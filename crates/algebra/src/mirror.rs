//! Trace harness: replays primitive-operation programs both through an
//! [`crate::Algebra`] and as a concrete graph, so algebra verdicts
//! can be compared against brute force ([`oracles`]).

use lanecert_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::{Algebra, Class, Slot};

/// One primitive operation over the current slot list.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceStep {
    /// Introduce a vertex.
    Vertex,
    /// Introduce an edge between two slots (`marked` flag).
    Edge(Slot, Slot, bool),
    /// Identify two slots.
    Glue(Slot, Slot),
    /// Retire a slot.
    Forget(Slot),
}

/// A program: several independent segments, disjoint-unioned in order, then
/// a tail of further steps over the combined slot list.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Independent prefixes (each starts from the empty state).
    pub segments: Vec<Vec<TraceStep>>,
    /// Steps applied after all segments are unioned.
    pub tail: Vec<TraceStep>,
}

/// Concrete replay of a program: tracks slot→vertex bindings,
/// identifications, and marked edges.
#[derive(Clone, Debug, Default)]
pub struct Mirror {
    slots: Vec<usize>,
    parent: Vec<usize>, // union-find over concrete vertices
    marked_edges: Vec<(usize, usize)>,
}

impl Mirror {
    fn root(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Live slot count.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the (merged) vertices at two slots are joined by a
    /// marked edge — used by the generator to avoid self-loops and marked
    /// parallels.
    pub fn marked_adjacent(&mut self, a: Slot, b: Slot) -> bool {
        let (ra, rb) = (self.root(self.slots[a]), self.root(self.slots[b]));
        let edges = self.marked_edges.clone();
        edges.iter().any(|&(u, v)| {
            let (ru, rv) = (self.root(u), self.root(v));
            (ru, rv) == (ra, rb) || (ru, rv) == (rb, ra)
        })
    }

    /// Returns `true` if two slots refer to the same merged vertex.
    pub fn same_vertex(&mut self, a: Slot, b: Slot) -> bool {
        self.root(self.slots[a]) == self.root(self.slots[b])
    }

    /// Returns `true` if the two slots have a common marked neighbour —
    /// gluing them would create parallel marked edges (multigraph
    /// territory the pipeline never enters, so the generator avoids it).
    pub fn share_marked_neighbor(&mut self, a: Slot, b: Slot) -> bool {
        let (ra, rb) = (self.root(self.slots[a]), self.root(self.slots[b]));
        let edges = self.marked_edges.clone();
        let nbrs = |m: &mut Self, r: usize| -> Vec<usize> {
            edges
                .iter()
                .filter_map(|&(u, v)| {
                    let (ru, rv) = (m.root(u), m.root(v));
                    if ru == r {
                        Some(rv)
                    } else if rv == r {
                        Some(ru)
                    } else {
                        None
                    }
                })
                .collect()
        };
        let na = nbrs(self, ra);
        let nb = nbrs(self, rb);
        na.iter().any(|x| nb.contains(x))
    }

    /// Applies one step.
    pub fn apply(&mut self, step: TraceStep) {
        match step {
            TraceStep::Vertex => {
                let id = self.parent.len();
                self.parent.push(id);
                self.slots.push(id);
            }
            TraceStep::Edge(a, b, marked) => {
                if marked {
                    self.marked_edges.push((self.slots[a], self.slots[b]));
                }
            }
            TraceStep::Glue(a, b) => {
                let (ra, rb) = (self.root(self.slots[a]), self.root(self.slots[b]));
                assert_ne!(ra, rb, "gluing a vertex with itself");
                self.parent[rb] = ra;
                let (_, drop) = crate::property::glue_order(a, b);
                self.slots.remove(drop);
            }
            TraceStep::Forget(a) => {
                self.slots.remove(a);
            }
        }
    }

    /// Disjoint union (appends the other mirror's slots).
    pub fn union(&mut self, other: &Mirror) {
        let offset = self.parent.len();
        self.parent.extend(other.parent.iter().map(|&p| p + offset));
        self.slots.extend(other.slots.iter().map(|&s| s + offset));
        self.marked_edges.extend(
            other
                .marked_edges
                .iter()
                .map(|&(u, v)| (u + offset, v + offset)),
        );
    }

    /// The final **marked subgraph** as a simple graph over merged vertices.
    ///
    /// # Panics
    ///
    /// Panics on marked self-loops (the generator avoids them).
    pub fn marked_graph(&mut self) -> Graph {
        let mut rep: Vec<Option<u32>> = vec![None; self.parent.len()];
        let mut next = 0u32;
        for x in 0..self.parent.len() {
            let r = self.root(x);
            if rep[r].is_none() {
                rep[r] = Some(next);
                next += 1;
            }
        }
        let mut g = Graph::new(next as usize);
        let edges = self.marked_edges.clone();
        for (u, v) in edges {
            let (ru, rv) = (self.root(u), self.root(v));
            let (a, b) = (VertexId(rep[ru].unwrap()), VertexId(rep[rv].unwrap()));
            assert_ne!(a, b, "marked self-loop in trace");
            let _ = g.ensure_edge(a, b); // collapse marked parallels
        }
        g
    }
}

/// Runs a program through an algebra.
pub fn run_program(alg: &Algebra, prog: &Program) -> Class {
    let mut acc = alg.empty();
    for seg in &prog.segments {
        let mut s = alg.empty();
        for &step in seg {
            s = apply_alg(alg, s, step);
        }
        acc = alg.union(acc, s);
    }
    for &step in &prog.tail {
        acc = apply_alg(alg, acc, step);
    }
    acc
}

fn apply_alg(alg: &Algebra, s: Class, step: TraceStep) -> Class {
    match step {
        TraceStep::Vertex => alg.add_vertex(s),
        TraceStep::Edge(a, b, m) => alg.add_edge(s, a, b, m),
        TraceStep::Glue(a, b) => alg.glue(s, a, b),
        TraceStep::Forget(a) => alg.forget(s, a),
    }
}

/// Replays a program concretely.
pub fn mirror_program(prog: &Program) -> Mirror {
    let mut acc = Mirror::default();
    for seg in &prog.segments {
        let mut m = Mirror::default();
        for &step in seg {
            m.apply(step);
        }
        acc.union(&m);
    }
    for &step in &prog.tail {
        acc.apply(step);
    }
    acc
}

/// Generates a random program whose final marked graph is simple (no marked
/// self-loops or parallels) and has at most 12 vertices (oracle limits).
/// `size` scales the step counts.
pub fn random_program(rng: &mut StdRng, size: usize) -> Program {
    let segs = rng.random_range(1..=2);
    let mut prog = Program::default();
    let mut mirrors: Vec<Mirror> = Vec::new();
    let mut budget = 12usize.saturating_sub(2 * (segs as usize + 1));
    for _ in 0..segs {
        let mut steps = Vec::new();
        let mut m = Mirror::default();
        gen_steps(rng, size, &mut m, &mut steps, &mut budget);
        mirrors.push(m);
        prog.segments.push(steps);
    }
    let mut combined = Mirror::default();
    for m in &mirrors {
        combined.union(m);
    }
    gen_steps(rng, size / 2, &mut combined, &mut prog.tail, &mut budget);
    prog
}

fn gen_steps(
    rng: &mut StdRng,
    count: usize,
    m: &mut Mirror,
    out: &mut Vec<TraceStep>,
    budget: &mut usize,
) {
    // Seed with a couple of vertices so edge ops have targets.
    for _ in 0..2 {
        let step = TraceStep::Vertex;
        m.apply(step);
        out.push(step);
    }
    for _ in 0..count {
        let k = m.slot_count();
        let step = match rng.random_range(0..10u32) {
            0..=2 if *budget > 0 => {
                *budget -= 1;
                TraceStep::Vertex
            }
            _ if k < 2 => continue,
            3..=6 if k >= 2 => {
                let a = rng.random_range(0..k);
                let b = rng.random_range(0..k);
                if a == b || m.same_vertex(a, b) {
                    continue;
                }
                let marked = rng.random_range(0..5u32) != 0; // mostly marked
                if marked && m.marked_adjacent(a, b) {
                    continue;
                }
                TraceStep::Edge(a, b, marked)
            }
            7 if k >= 3 => {
                let a = rng.random_range(0..k);
                let b = rng.random_range(0..k);
                if a == b
                    || m.same_vertex(a, b)
                    || m.marked_adjacent(a, b)
                    || m.share_marked_neighbor(a, b)
                {
                    continue;
                }
                TraceStep::Glue(a, b)
            }
            8 if k >= 2 => TraceStep::Forget(rng.random_range(0..k)),
            _ => continue,
        };
        m.apply(step);
        out.push(step);
    }
}

/// Compares an algebra against a brute-force oracle on `trials` random
/// programs; panics (with the offending program) on disagreement.
pub fn check_against_oracle(
    alg: &Algebra,
    oracle: &dyn Fn(&Graph) -> bool,
    seed: u64,
    trials: usize,
    size: usize,
) {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    for t in 0..trials {
        let prog = random_program(&mut rng, size);
        let got = alg.accept(&run_program(alg, &prog));
        let mut m = mirror_program(&prog);
        let g = m.marked_graph();
        let want = oracle(&g);
        assert_eq!(
            got,
            want,
            "{}: trial {t} disagrees (graph n={} m={}): {prog:?}",
            alg.name(),
            g.vertex_count(),
            g.edge_count()
        );
    }
}

/// Brute-force oracles over the marked subgraph (small graphs only).
pub mod oracles {
    use lanecert_graph::{components, Graph, VertexId};

    /// Is the graph connected?
    pub fn connected(g: &Graph) -> bool {
        components::is_connected(g)
    }

    /// Is the graph acyclic?
    pub fn forest(g: &Graph) -> bool {
        components::is_forest(g)
    }

    /// Is the graph bipartite?
    pub fn bipartite(g: &Graph) -> bool {
        colorable(g, 2)
    }

    /// Is the graph properly `c`-colorable? (backtracking)
    pub fn colorable(g: &Graph, c: usize) -> bool {
        fn go(g: &Graph, col: &mut Vec<usize>, v: usize, c: usize) -> bool {
            if v == g.vertex_count() {
                return true;
            }
            for color in 0..c {
                let ok = g
                    .neighbors(VertexId::new(v))
                    .all(|w| w.index() >= v || col[w.index()] != color);
                if ok {
                    col[v] = color;
                    if go(g, col, v + 1, c) {
                        return true;
                    }
                }
            }
            false
        }
        go(g, &mut vec![0; g.vertex_count()], 0, c)
    }

    /// Does the graph have a perfect matching? (bitmask DP)
    pub fn perfect_matching(g: &Graph) -> bool {
        let n = g.vertex_count();
        if n % 2 == 1 {
            return false;
        }
        if n == 0 {
            return true;
        }
        assert!(n <= 22, "oracle limit");
        let full = (1u32 << n) - 1;
        let mut reachable = vec![false; 1 << n];
        reachable[0] = true;
        for mask in 0..(1u32 << n) {
            if !reachable[mask as usize] {
                continue;
            }
            let v = (!mask & full).trailing_zeros() as usize;
            if v >= n {
                continue;
            }
            for w in g.neighbors(VertexId::new(v)) {
                if mask & (1 << w.index()) == 0 {
                    reachable[(mask | 1 << v | 1 << w.index()) as usize] = true;
                }
            }
        }
        reachable[full as usize]
    }

    /// Does the graph have a Hamiltonian cycle? (Held–Karp)
    pub fn hamiltonian_cycle(g: &Graph) -> bool {
        let n = g.vertex_count();
        if n < 3 {
            return false;
        }
        assert!(n <= 16, "oracle limit");
        // dp[mask][v]: path from 0 covering mask, ending at v.
        let mut dp = vec![vec![false; n]; 1 << n];
        dp[1][0] = true;
        for mask in 1u32..(1 << n) {
            if mask & 1 == 0 {
                continue;
            }
            for v in 0..n {
                if !dp[mask as usize][v] {
                    continue;
                }
                for w in g.neighbors(VertexId::new(v)) {
                    let wb = 1u32 << w.index();
                    if mask & wb == 0 {
                        dp[(mask | wb) as usize][w.index()] = true;
                    }
                }
            }
        }
        let full = ((1u64 << n) - 1) as u32;
        (1..n).any(|v| dp[full as usize][v] && g.has_edge(VertexId::new(v), VertexId(0)))
    }

    /// Does a vertex cover of size at most `s` exist? (subset enumeration)
    pub fn vertex_cover_at_most(g: &Graph, s: usize) -> bool {
        let n = g.vertex_count();
        assert!(n <= 20, "oracle limit");
        (0u32..(1 << n)).any(|mask| {
            (mask.count_ones() as usize) <= s
                && g.edges()
                    .all(|(_, e)| mask & (1 << e.u.index()) != 0 || mask & (1 << e.v.index()) != 0)
        })
    }

    /// Does an independent set of size at least `s` exist?
    pub fn independent_set_at_least(g: &Graph, s: usize) -> bool {
        let n = g.vertex_count();
        assert!(n <= 20, "oracle limit");
        (0u32..(1 << n)).any(|mask| {
            (mask.count_ones() as usize) >= s
                && g.edges()
                    .all(|(_, e)| mask & (1 << e.u.index()) == 0 || mask & (1 << e.v.index()) == 0)
        })
    }

    /// Does a dominating set of size at most `s` exist?
    pub fn dominating_set_at_most(g: &Graph, s: usize) -> bool {
        let n = g.vertex_count();
        assert!(n <= 20, "oracle limit");
        (0u32..(1 << n)).any(|mask| {
            (mask.count_ones() as usize) <= s
                && g.vertices().all(|v| {
                    mask & (1 << v.index()) != 0
                        || g.neighbors(v).any(|w| mask & (1 << w.index()) != 0)
                })
        })
    }

    /// Is every degree at most `d`?
    pub fn max_degree_at_most(g: &Graph, d: usize) -> bool {
        g.vertices().all(|v| g.degree(v) <= d)
    }

    /// Is every degree even?
    pub fn even_degrees(g: &Graph) -> bool {
        g.vertices().all(|v| g.degree(v).is_multiple_of(2))
    }

    /// Is the edge count congruent to `r` mod `m`?
    pub fn edge_count_mod(g: &Graph, m: usize, r: usize) -> bool {
        g.edge_count() % m == r
    }

    /// Is the vertex count congruent to `r` mod `m`?
    pub fn vertex_count_mod(g: &Graph, m: usize, r: usize) -> bool {
        g.vertex_count() % m == r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mirror_builds_expected_graph() {
        let prog = Program {
            segments: vec![vec![
                TraceStep::Vertex,
                TraceStep::Vertex,
                TraceStep::Edge(0, 1, true),
                TraceStep::Vertex,
                TraceStep::Edge(1, 2, false), // unmarked: invisible
            ]],
            tail: vec![TraceStep::Forget(0)],
        };
        let mut m = mirror_program(&prog);
        let g = m.marked_graph();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn glue_identifies_vertices() {
        let prog = Program {
            segments: vec![
                vec![
                    TraceStep::Vertex,
                    TraceStep::Vertex,
                    TraceStep::Edge(0, 1, true),
                ],
                vec![
                    TraceStep::Vertex,
                    TraceStep::Vertex,
                    TraceStep::Edge(0, 1, true),
                ],
            ],
            // Glue slot 1 (seg1's second vertex) with slot 2 (seg2's first).
            tail: vec![TraceStep::Glue(1, 2)],
        };
        let mut m = mirror_program(&prog);
        let g = m.marked_graph();
        assert_eq!(g.vertex_count(), 3); // path of 3 after identification
        assert_eq!(g.edge_count(), 2);
        assert!(oracles::connected(&g));
    }

    #[test]
    fn random_programs_build_simple_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let prog = random_program(&mut rng, 12);
            let mut m = mirror_program(&prog);
            let g = m.marked_graph(); // panics on self-loops/parallels
            assert!(g.vertex_count() >= 2);
        }
    }

    #[test]
    fn oracle_sanity() {
        use lanecert_graph::generators as gen;
        assert!(oracles::hamiltonian_cycle(&gen::cycle_graph(5)));
        assert!(!oracles::hamiltonian_cycle(&gen::path_graph(5)));
        assert!(oracles::perfect_matching(&gen::path_graph(4)));
        assert!(!oracles::perfect_matching(&gen::path_graph(3)));
        assert!(oracles::vertex_cover_at_most(&gen::star(6), 1));
        assert!(!oracles::bipartite(&gen::cycle_graph(5)));
        assert!(oracles::even_degrees(&gen::cycle_graph(4)));
        assert!(oracles::dominating_set_at_most(&gen::star(6), 1));
        assert!(oracles::independent_set_at_least(&gen::path_graph(5), 3));
    }
}
