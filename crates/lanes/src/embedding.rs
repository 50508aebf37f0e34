//! Embeddings of completion edges into the original graph (Definition 4.5).

use std::collections::HashMap;

use lanecert_graph::{traversal, EdgeId, Graph, VertexId};

use crate::Completion;

/// An embedding: for each *virtual* completion edge, a path in `G` between
/// its endpoints (stored as the vertex sequence, endpoints included).
#[derive(Clone, Debug, Default)]
pub struct Embedding {
    paths: HashMap<EdgeId, Vec<VertexId>>,
}

impl Embedding {
    /// Creates an empty embedding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the path for virtual completion edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if a path for `e` was already recorded.
    pub fn insert(&mut self, e: EdgeId, path: Vec<VertexId>) {
        let prev = self.paths.insert(e, path);
        assert!(prev.is_none(), "duplicate embedding path for {e}");
    }

    /// The path of virtual edge `e`, if recorded.
    pub fn path(&self, e: EdgeId) -> Option<&[VertexId]> {
        self.paths.get(&e).map(Vec::as_slice)
    }

    /// Iterates `(virtual edge, path)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &[VertexId])> {
        self.paths.iter().map(|(e, p)| (*e, p.as_slice()))
    }

    /// Number of embedded edges.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Returns `true` if nothing is embedded.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The congestion: the maximum number of embedding paths using a single
    /// edge of `g` (Definition 4.5). Returns 0 for an empty embedding.
    pub fn congestion(&self, g: &Graph) -> usize {
        let mut load = vec![0usize; g.edge_count()];
        for path in self.paths.values() {
            for w in path.windows(2) {
                let e = g
                    .edge_between(w[0], w[1])
                    .expect("embedding paths follow edges of G");
                load[e.index()] += 1;
            }
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// Congestion restricted to the paths of a subset of virtual edges
    /// (used to measure the weak completion separately from the full one).
    pub fn congestion_of(&self, g: &Graph, edges: &[EdgeId]) -> usize {
        let mut load = vec![0usize; g.edge_count()];
        for e in edges {
            if let Some(path) = self.paths.get(e) {
                for w in path.windows(2) {
                    let id = g
                        .edge_between(w[0], w[1])
                        .expect("embedding paths follow edges of G");
                    load[id.index()] += 1;
                }
            }
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// Checks that every virtual edge of `completion` has a path in `g`
    /// whose ends match the edge's endpoints, every hop is a `g`-edge, and
    /// the path is simple.
    ///
    /// # Panics
    ///
    /// Panics on the first inconsistency (test/debug helper).
    pub fn validate(&self, g: &Graph, completion: &Completion) {
        for e in completion.virtual_edges() {
            let (u, v) = completion.graph.endpoints(e);
            let path = self
                .paths
                .get(&e)
                .unwrap_or_else(|| panic!("virtual edge {e} ({u},{v}) has no path"));
            assert!(path.len() >= 2, "path of {e} too short");
            assert_eq!(path[0], u, "path of {e} starts at wrong endpoint");
            assert_eq!(
                *path.last().unwrap(),
                v,
                "path of {e} ends at wrong endpoint"
            );
            let mut seen = std::collections::HashSet::new();
            for &x in path {
                assert!(seen.insert(x), "path of {e} revisits {x}");
            }
            for w in path.windows(2) {
                assert!(
                    g.has_edge(w[0], w[1]),
                    "path of {e} uses non-edge ({}, {})",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

/// Embeds every virtual edge along a BFS shortest path in `g` — the
/// *greedy* strategy. No worst-case congestion bound, but measured
/// congestion is small on the benchmark families (ablation T9).
///
/// Each path is exactly `bfs(g, u).path_to(v)`, found by one reused
/// early-exit [`PathSearcher`](traversal::PathSearcher): a query visits
/// only the vertices a full BFS discovers before `v`, so virtual edges
/// between nearby vertices cost a small ball each rather than `O(n)`.
pub fn shortest_path_embedding(g: &Graph, completion: &Completion) -> Embedding {
    let mut emb = Embedding::new();
    let mut searcher = traversal::PathSearcher::new();
    for e in completion.virtual_edges() {
        let (u, v) = completion.graph.endpoints(e);
        let path = searcher
            .path(g, u, v)
            .unwrap_or_else(|| panic!("G must be connected (no {u}–{v} path)"));
        emb.insert(e, path);
    }
    emb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::greedy_partition;
    use lanecert_graph::generators;
    use lanecert_pathwidth::{Interval, IntervalRep};

    fn cycle6() -> (Graph, IntervalRep) {
        let g = generators::cycle_graph(6);
        let rep = IntervalRep::new(
            [(0, 3), (0, 0), (0, 1), (1, 2), (2, 3), (3, 3)]
                .iter()
                .map(|&(a, b)| Interval::new(a, b))
                .collect(),
        );
        (g, rep)
    }

    #[test]
    fn shortest_path_embedding_is_valid() {
        let (g, rep) = cycle6();
        let c = Completion::build(&g, greedy_partition(&rep));
        let emb = shortest_path_embedding(&g, &c);
        emb.validate(&g, &c);
        assert_eq!(emb.len(), c.virtual_edges().count());
        assert!(emb.congestion(&g) >= 1);
    }

    #[test]
    fn empty_embedding_when_nothing_virtual() {
        let g = generators::path_graph(3);
        let rep = IntervalRep::new(vec![
            Interval::new(0, 0),
            Interval::new(1, 1),
            Interval::new(2, 2),
        ]);
        let c = Completion::build(&g, greedy_partition(&rep));
        let emb = shortest_path_embedding(&g, &c);
        assert!(emb.is_empty());
        assert_eq!(emb.congestion(&g), 0);
        emb.validate(&g, &c);
    }

    #[test]
    #[should_panic(expected = "duplicate embedding")]
    fn duplicate_path_panics() {
        let mut emb = Embedding::new();
        emb.insert(EdgeId(0), vec![VertexId(0), VertexId(1)]);
        emb.insert(EdgeId(0), vec![VertexId(0), VertexId(1)]);
    }

    #[test]
    fn congestion_counts_overlaps() {
        // Star: all virtual paths go through the hub.
        let g = generators::star(5);
        // Leaves get disjoint intervals; hub overlaps everything.
        let rep = IntervalRep::new(vec![
            Interval::new(0, 4),
            Interval::new(0, 0),
            Interval::new(1, 1),
            Interval::new(2, 2),
            Interval::new(3, 3),
        ]);
        let c = Completion::build(&g, greedy_partition(&rep));
        let emb = shortest_path_embedding(&g, &c);
        emb.validate(&g, &c);
        // Lane {v1,v2,v3,v4} needs 3 paths, each through two spokes.
        assert!(emb.congestion(&g) >= 2);
    }
}
