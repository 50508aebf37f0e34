//! The MSO₂ abstract syntax tree.

use std::fmt;

/// A variable identifier. Sorts are tracked at binding sites; well-sorted
/// usage is the formula author's responsibility (the evaluator panics on
/// sort confusion, which the tests exercise).
pub type Var = u32;

/// The four variable sorts of MSO₂ (Section 1.2 of the paper).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// An individual vertex.
    Vertex,
    /// An individual edge.
    Edge,
    /// A set of vertices.
    VertexSet,
    /// A set of edges.
    EdgeSet,
}

/// An MSO₂ formula over unlabeled graphs: atoms talk about incidence,
/// adjacency, membership and equality only, since a network carries no
/// vertex or edge input labels.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula {
    /// Constant truth.
    True,
    /// Constant falsehood.
    False,
    /// `v ∈ U` for vertex `v`, vertex set `U`.
    InVSet(Var, Var),
    /// `e ∈ F` for edge `e`, edge set `F`.
    InESet(Var, Var),
    /// `inc(e, v)`: edge `e` is incident to vertex `v`.
    Inc(Var, Var),
    /// `adj(u, v)`: vertices are adjacent.
    Adj(Var, Var),
    /// Vertex equality.
    EqV(Var, Var),
    /// Edge equality.
    EqE(Var, Var),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Biconditional.
    Iff(Box<Formula>, Box<Formula>),
    /// Existential quantifier of the given sort.
    Exists(Sort, Var, Box<Formula>),
    /// Universal quantifier of the given sort.
    Forall(Sort, Var, Box<Formula>),
}

impl std::ops::Not for Formula {
    type Output = Formula;

    fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }
}

impl Formula {
    /// `¬self`.
    // Part of the `and`/`or`/`implies` builder family; `std::ops::Not` above
    // provides the operator form for callers who prefer `!f`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `self ∧ rhs`.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// `self ∨ rhs`.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// `self → rhs`.
    pub fn implies(self, rhs: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(rhs))
    }

    /// `self ↔ rhs`.
    pub fn iff(self, rhs: Formula) -> Formula {
        Formula::Iff(Box::new(self), Box::new(rhs))
    }

    /// Conjunction over an iterator (empty = `True`).
    pub fn all<I: IntoIterator<Item = Formula>>(fs: I) -> Formula {
        fs.into_iter().reduce(Formula::and).unwrap_or(Formula::True)
    }

    /// Disjunction over an iterator (empty = `False`).
    pub fn any<I: IntoIterator<Item = Formula>>(fs: I) -> Formula {
        fs.into_iter().reduce(Formula::or).unwrap_or(Formula::False)
    }

    /// Number of AST nodes (diagnostics).
    pub fn size(&self) -> usize {
        use Formula::*;
        match self {
            True | False | InVSet(..) | InESet(..) | Inc(..) | Adj(..) | EqV(..) | EqE(..) => 1,
            Not(a) => 1 + a.size(),
            And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => 1 + a.size() + b.size(),
            Exists(_, _, a) | Forall(_, _, a) => 1 + a.size(),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Formula::*;
        match self {
            True => write!(f, "true"),
            False => write!(f, "false"),
            InVSet(v, s) => write!(f, "x{v} ∈ X{s}"),
            InESet(e, s) => write!(f, "y{e} ∈ Y{s}"),
            Inc(e, v) => write!(f, "inc(y{e}, x{v})"),
            Adj(u, v) => write!(f, "adj(x{u}, x{v})"),
            EqV(u, v) => write!(f, "x{u} = x{v}"),
            EqE(a, b) => write!(f, "y{a} = y{b}"),
            Not(a) => write!(f, "¬({a})"),
            And(a, b) => write!(f, "({a} ∧ {b})"),
            Or(a, b) => write!(f, "({a} ∨ {b})"),
            Implies(a, b) => write!(f, "({a} → {b})"),
            Iff(a, b) => write!(f, "({a} ↔ {b})"),
            Exists(s, v, a) => write!(f, "∃{} ({a})", bind(*s, *v)),
            Forall(s, v, a) => write!(f, "∀{} ({a})", bind(*s, *v)),
        }
    }
}

fn bind(s: Sort, v: Var) -> String {
    match s {
        Sort::Vertex => format!("x{v}"),
        Sort::Edge => format!("y{v}"),
        Sort::VertexSet => format!("X{v}"),
        Sort::EdgeSet => format!("Y{v}"),
    }
}

/// A fresh-variable generator for building closed formulas.
#[derive(Default, Debug)]
pub struct VarGen {
    next: Var,
}

impl VarGen {
    /// Creates a generator starting at variable 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh variable id.
    pub fn fresh(&mut self) -> Var {
        let v = self.next;
        self.next += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        let f = Formula::Adj(0, 1).and(Formula::EqV(0, 1).not());
        assert_eq!(f.to_string(), "(adj(x0, x1) ∧ ¬(x0 = x1))");
        assert_eq!(f.size(), 4);
        let g = Formula::Exists(Sort::VertexSet, 2, Box::new(Formula::InVSet(0, 2)));
        assert!(g.to_string().contains("∃X2"));
    }

    #[test]
    fn all_any_reduce() {
        assert_eq!(Formula::all([]), Formula::True);
        assert_eq!(Formula::any([]), Formula::False);
        let both = Formula::all([Formula::True, Formula::False]);
        assert_eq!(both.size(), 3);
    }

    #[test]
    fn vargen_is_sequential() {
        let mut g = VarGen::new();
        assert_eq!(g.fresh(), 0);
        assert_eq!(g.fresh(), 1);
    }
}
