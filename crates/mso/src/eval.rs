//! A naive MSO₂ model checker.
//!
//! Quantifiers are evaluated by enumeration — vertex/edge variables range
//! over the graph, set variables over all `2^n`/`2^m` bitmasks — so this is
//! strictly a **small-graph oracle** (`n, m ≤ 24` enforced). It pins the
//! semantics that the homomorphism algebras (`lanecert-algebra`) and the
//! certification pipeline must agree with.

use std::collections::HashMap;

use lanecert_graph::{EdgeId, Graph, VertexId};

use crate::{Formula, Sort, Var};

/// Evaluation size guard: set quantifiers enumerate `2^n` / `2^m` masks.
pub const EVAL_LIMIT: usize = 24;

#[derive(Clone, Copy, Debug)]
enum Value {
    Vertex(VertexId),
    Edge(EdgeId),
    VSet(u32),
    ESet(u32),
}

/// Checks a closed formula on a graph.
///
/// # Panics
///
/// Panics if the graph exceeds [`EVAL_LIMIT`] or the formula is not closed /
/// not well-sorted.
pub fn check(graph: &Graph, formula: &Formula) -> bool {
    assert!(
        graph.vertex_count() <= EVAL_LIMIT && graph.edge_count() <= EVAL_LIMIT,
        "naive evaluator limited to {EVAL_LIMIT} vertices/edges"
    );
    let mut env = HashMap::new();
    eval(graph, formula, &mut env)
}

fn eval(g: &Graph, f: &Formula, env: &mut HashMap<Var, Value>) -> bool {
    use Formula::*;
    match f {
        True => true,
        False => false,
        InVSet(v, s) => {
            let (Value::Vertex(v), Value::VSet(mask)) = (get(env, *v), get(env, *s)) else {
                panic!("sort error in ∈ (vertex)");
            };
            mask & (1 << v.index()) != 0
        }
        InESet(e, s) => {
            let (Value::Edge(e), Value::ESet(mask)) = (get(env, *e), get(env, *s)) else {
                panic!("sort error in ∈ (edge)");
            };
            mask & (1 << e.index()) != 0
        }
        Inc(e, v) => {
            let (Value::Edge(e), Value::Vertex(v)) = (get(env, *e), get(env, *v)) else {
                panic!("sort error in inc");
            };
            g.edge(e).is_incident(v)
        }
        Adj(u, v) => {
            let (Value::Vertex(u), Value::Vertex(v)) = (get(env, *u), get(env, *v)) else {
                panic!("sort error in adj");
            };
            g.has_edge(u, v)
        }
        EqV(u, v) => {
            let (Value::Vertex(u), Value::Vertex(v)) = (get(env, *u), get(env, *v)) else {
                panic!("sort error in vertex =");
            };
            u == v
        }
        EqE(a, b) => {
            let (Value::Edge(a), Value::Edge(b)) = (get(env, *a), get(env, *b)) else {
                panic!("sort error in edge =");
            };
            a == b
        }
        Not(a) => !eval(g, a, env),
        And(a, b) => eval(g, a, env) && eval(g, b, env),
        Or(a, b) => eval(g, a, env) || eval(g, b, env),
        Implies(a, b) => !eval(g, a, env) || eval(g, b, env),
        Iff(a, b) => eval(g, a, env) == eval(g, b, env),
        Exists(sort, var, a) => quantify(g, *sort, *var, a, env, false),
        Forall(sort, var, a) => quantify(g, *sort, *var, a, env, true),
    }
}

fn get(env: &HashMap<Var, Value>, v: Var) -> Value {
    *env.get(&v)
        .unwrap_or_else(|| panic!("unbound variable {v} (formula not closed)"))
}

fn quantify(
    g: &Graph,
    sort: Sort,
    var: Var,
    body: &Formula,
    env: &mut HashMap<Var, Value>,
    forall: bool,
) -> bool {
    let saved = env.get(&var).copied();
    let mut result = forall;
    let candidates: Box<dyn Iterator<Item = Value>> = match sort {
        Sort::Vertex => Box::new(g.vertices().map(Value::Vertex)),
        Sort::Edge => Box::new(g.edges().map(|(id, _)| Value::Edge(id))),
        Sort::VertexSet => Box::new((0u32..(1 << g.vertex_count())).map(Value::VSet)),
        Sort::EdgeSet => Box::new((0u32..(1 << g.edge_count())).map(Value::ESet)),
    };
    for value in candidates {
        env.insert(var, value);
        let holds = eval(g, body, env);
        if forall && !holds {
            result = false;
            break;
        }
        if !forall && holds {
            result = true;
            break;
        }
    }
    match saved {
        Some(v) => {
            env.insert(var, v);
        }
        None => {
            env.remove(&var);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Formula::*, Sort as S};
    use lanecert_graph::generators;

    #[test]
    fn constants() {
        let g = generators::path_graph(2);
        assert!(check(&g, &True));
        assert!(!check(&g, &False));
    }

    #[test]
    fn existential_vertex_adjacency() {
        let g = generators::path_graph(3);
        // ∃u ∃v adj(u,v)
        let f = Exists(
            S::Vertex,
            0,
            Box::new(Exists(S::Vertex, 1, Box::new(Adj(0, 1)))),
        );
        assert!(check(&g, &f));
        let lonely = lanecert_graph::Graph::new(2);
        assert!(!check(&lonely, &f));
    }

    #[test]
    fn forall_with_sets() {
        let g = generators::cycle_graph(4);
        // ∀X ∃v (v ∈ X ∨ ¬(v ∈ X)) — trivially true but exercises sets.
        let body = InVSet(1, 0).or(InVSet(1, 0).not());
        let f = Forall(
            S::VertexSet,
            0,
            Box::new(Exists(S::Vertex, 1, Box::new(body))),
        );
        assert!(check(&g, &f));
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn open_formula_panics() {
        let g = generators::path_graph(2);
        let _ = check(&g, &Adj(0, 1));
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn oversize_graph_panics() {
        let g = generators::path_graph(EVAL_LIMIT + 2);
        let _ = check(&g, &True);
    }
}
