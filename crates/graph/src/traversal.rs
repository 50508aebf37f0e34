//! Breadth-first traversal utilities.

use std::collections::VecDeque;

use crate::{EdgeId, Graph, VertexId};

/// A BFS tree rooted at some vertex: parent pointers and hop distances.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root the tree was grown from.
    pub root: VertexId,
    /// `parent[v]` is the BFS parent of `v` (`None` for the root and for
    /// vertices unreachable from the root).
    pub parent: Vec<Option<VertexId>>,
    /// `parent_edge[v]` is the edge to the parent.
    pub parent_edge: Vec<Option<EdgeId>>,
    /// `dist[v]` is the hop distance from the root (`u32::MAX` if
    /// unreachable).
    pub dist: Vec<u32>,
    /// Vertices in visit order (only reachable ones).
    pub order: Vec<VertexId>,
}

impl BfsTree {
    /// Returns `true` if `v` was reached from the root.
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist[v.index()] != u32::MAX
    }

    /// Reconstructs the root-to-`v` vertex path, or `None` if unreachable.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Runs BFS from `root` over the whole graph.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs(g: &Graph, root: VertexId) -> BfsTree {
    let n = g.vertex_count();
    assert!(root.index() < n, "root out of range");
    let mut tree = BfsTree {
        root,
        parent: vec![None; n],
        parent_edge: vec![None; n],
        dist: vec![u32::MAX; n],
        order: Vec::new(),
    };
    let mut queue = VecDeque::new();
    tree.dist[root.index()] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        tree.order.push(v);
        for h in g.incident(v) {
            let w = h.to;
            if tree.dist[w.index()] == u32::MAX {
                tree.dist[w.index()] = tree.dist[v.index()] + 1;
                tree.parent[w.index()] = Some(v);
                tree.parent_edge[w.index()] = Some(h.edge);
                queue.push_back(w);
            }
        }
    }
    tree
}

/// A reusable breadth-first path searcher that stops as soon as the
/// target is discovered.
///
/// The search discovers vertices in exactly the order a full [`bfs`]
/// does (same queue discipline, same incidence order), and a vertex's
/// parent is fixed when it is discovered. When the target is discovered,
/// it and all its ancestors have their final parents, so **same discovery
/// order ⇒ same path as a full BFS**: [`PathSearcher::path`] returns
/// `bfs(g, u).path_to(v)` while visiting only the vertices discovered
/// before `v`.
///
/// The `seen` and `parent` buffers persist across calls and are
/// invalidated by bumping an epoch stamp, so a query costs nothing
/// proportional to `n` beyond the buffers' one-time allocation.
#[derive(Clone, Debug, Default)]
pub struct PathSearcher {
    /// Current query stamp; `seen[x] == epoch` marks `x` discovered.
    epoch: u32,
    seen: Vec<u32>,
    parent: Vec<VertexId>,
    queue: VecDeque<VertexId>,
}

impl PathSearcher {
    /// A searcher with empty buffers (they grow to the graph on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A shortest `u`–`v` path in `g`, identical to
    /// `bfs(g, u).path_to(v)`, or `None` if `v` is unreachable from `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn path(&mut self, g: &Graph, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let n = g.vertex_count();
        assert!(u.index() < n && v.index() < n, "endpoint out of range");
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.parent.resize(n, u);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.seen.fill(0);
                1
            }
        };
        let epoch = self.epoch;
        self.queue.clear();
        self.seen[u.index()] = epoch;
        self.queue.push_back(u);
        let mut found = u == v;
        while !found {
            let x = self.queue.pop_front()?;
            for h in g.incident(x) {
                let w = h.to;
                if self.seen[w.index()] != epoch {
                    self.seen[w.index()] = epoch;
                    self.parent[w.index()] = x;
                    if w == v {
                        found = true;
                        break;
                    }
                    self.queue.push_back(w);
                }
            }
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != u {
            cur = self.parent[cur.index()];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path_graph(5);
        let tree = bfs(&g, VertexId(0));
        assert_eq!(tree.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(tree.path_to(VertexId(4)).unwrap().len(), 5);
    }

    #[test]
    fn bfs_unreachable_component() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let tree = bfs(&g, VertexId(0));
        assert!(tree.reached(VertexId(1)));
        assert!(!tree.reached(VertexId(3)));
        assert_eq!(tree.path_to(VertexId(3)), None);
    }

    /// The searcher against full-BFS paths on one graph: every ordered
    /// pair through one reused searcher, unreachable pairs included.
    fn assert_searcher_matches_bfs(g: &Graph) {
        let mut searcher = PathSearcher::new();
        for u in g.vertices() {
            let tree = bfs(g, u);
            for v in g.vertices() {
                assert_eq!(searcher.path(g, u, v), tree.path_to(v), "{u}–{v}");
            }
        }
    }

    #[test]
    fn searcher_matches_full_bfs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut graphs = vec![
            generators::caterpillar(5, 2),
            generators::ladder(6),
            generators::cycle_graph(9),
            Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ];
        for _ in 0..8 {
            graphs.push(generators::random_pathwidth_graph(24, 3, 0.5, &mut rng).0);
            let gnp = generators::gnp(20, 0.15, &mut rng);
            if crate::components::is_connected(&gnp) {
                graphs.push(gnp);
            }
        }
        for g in &graphs {
            assert_searcher_matches_bfs(g);
        }
    }

    #[test]
    fn searcher_survives_unreachable_targets_and_epoch_wrap() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut searcher = PathSearcher::new();
        assert_eq!(searcher.path(&g, VertexId(0), VertexId(4)), None);
        let want = Some(vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(searcher.path(&g, VertexId(0), VertexId(2)), want);
        // A wrapped stamp clears the buffers instead of aliasing old marks.
        searcher.epoch = u32::MAX;
        assert_eq!(searcher.path(&g, VertexId(0), VertexId(2)), want);
        assert_eq!(searcher.path(&g, VertexId(2), VertexId(3)), None);
        assert_eq!(
            searcher.path(&g, VertexId(4), VertexId(4)),
            Some(vec![VertexId(4)])
        );
        // A larger graph later grows the buffers.
        let big = generators::path_graph(12);
        assert_eq!(
            searcher
                .path(&big, VertexId(0), VertexId(11))
                .unwrap()
                .len(),
            12
        );
    }
}
