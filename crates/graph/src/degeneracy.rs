//! Degeneracy orderings and bounded-outdegree orientations.
//!
//! A graph is `d`-degenerate if its edges can be acyclically oriented with
//! outdegree at most `d` (Section 2.1 of the paper). Proposition 2.1 turns an
//! `f(n)`-bit edge-labeling scheme into an `O(d·f(n))`-bit vertex-labeling
//! scheme by moving each edge's label to its orientation tail; this module
//! supplies the orientations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{EdgeId, Graph, VertexId};

/// The result of the peeling procedure: an elimination ordering whose
/// back-degree is the degeneracy.
#[derive(Clone, Debug)]
pub struct DegeneracyOrdering {
    /// Vertices in peel order (each vertex had minimum degree among the
    /// not-yet-peeled vertices when removed).
    pub order: Vec<VertexId>,
    /// The degeneracy `d`: the maximum degree observed at removal time.
    pub degeneracy: usize,
    /// `rank[v]` is the position of `v` in `order`.
    pub rank: Vec<usize>,
}

/// Computes a degeneracy ordering by repeatedly peeling a minimum-degree
/// vertex (lazy-deletion heap, `O((n + m) log n)`).
pub fn degeneracy_ordering(g: &Graph) -> DegeneracyOrdering {
    let n = g.vertex_count();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(VertexId::new(v))).collect();
    let mut removed = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> = deg
        .iter()
        .enumerate()
        .map(|(v, &d)| Reverse((d, v as u32)))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0;
    while let Some(Reverse((d, v))) = heap.pop() {
        let vi = v as usize;
        if removed[vi] || d != deg[vi] {
            continue; // stale heap entry
        }
        removed[vi] = true;
        degeneracy = degeneracy.max(d);
        order.push(VertexId(v));
        for h in g.incident(VertexId(v)) {
            let w = h.to.index();
            if !removed[w] {
                deg[w] -= 1;
                heap.push(Reverse((deg[w], w as u32)));
            }
        }
    }
    let mut rank = vec![0; n];
    for (i, v) in order.iter().enumerate() {
        rank[v.index()] = i;
    }
    DegeneracyOrdering {
        order,
        degeneracy,
        rank,
    }
}

/// An acyclic orientation with bounded outdegree.
#[derive(Clone, Debug)]
pub struct Orientation {
    /// `tail[e]` is the vertex the edge is oriented *out of* (the vertex that
    /// will carry the edge's label under Proposition 2.1).
    pub tail: Vec<VertexId>,
    /// The maximum outdegree over all vertices.
    pub max_outdegree: usize,
}

impl Orientation {
    /// The head (target) of edge `e` in graph `g`.
    pub fn head(&self, g: &Graph, e: EdgeId) -> VertexId {
        g.edge(e).other(self.tail[e.index()])
    }
}

/// Orients every edge from its earlier endpoint (in the degeneracy ordering)
/// to the later one, yielding outdegree at most the degeneracy.
pub fn degeneracy_orientation(g: &Graph) -> Orientation {
    let ord = degeneracy_ordering(g);
    let mut tail = Vec::with_capacity(g.edge_count());
    let mut outdeg = vec![0usize; g.vertex_count()];
    for (_, e) in g.edges() {
        let t = if ord.rank[e.u.index()] < ord.rank[e.v.index()] {
            e.u
        } else {
            e.v
        };
        outdeg[t.index()] += 1;
        tail.push(t);
    }
    Orientation {
        tail,
        max_outdegree: outdeg.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn tree_is_one_degenerate() {
        let g = generators::caterpillar(5, 2);
        let ord = degeneracy_ordering(&g);
        assert_eq!(ord.degeneracy, 1);
        let o = degeneracy_orientation(&g);
        assert!(o.max_outdegree <= 1);
    }

    #[test]
    fn cycle_is_two_degenerate() {
        let g = generators::cycle_graph(7);
        assert_eq!(degeneracy_ordering(&g).degeneracy, 2);
        assert!(degeneracy_orientation(&g).max_outdegree <= 2);
    }

    #[test]
    fn complete_graph_degeneracy() {
        let g = generators::complete_graph(5);
        assert_eq!(degeneracy_ordering(&g).degeneracy, 4);
    }

    #[test]
    fn star_center_carries_nothing() {
        // Star is 1-degenerate: leaves peel first, so each edge's tail is a
        // leaf and the hub has outdegree 0 or 1.
        let g = generators::star(9);
        let o = degeneracy_orientation(&g);
        assert!(o.max_outdegree <= 1);
    }

    #[test]
    fn orientation_covers_every_edge_once() {
        let g = generators::grid(3, 4);
        let o = degeneracy_orientation(&g);
        let seen: usize = g
            .vertices()
            .map(|v| o.tail.iter().filter(|&&t| t == v).count())
            .sum();
        assert_eq!(seen, g.edge_count());
        for (e, edge) in g.edges() {
            assert!(edge.is_incident(o.tail[e.index()]));
            assert_eq!(o.head(&g, e), edge.other(o.tail[e.index()]));
        }
    }
}
