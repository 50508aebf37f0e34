//! Completions of a lane partition (Definition 4.4).
//!
//! Given `(G, I, P)`, the *weak completion* adds `E1` (edges joining
//! consecutive vertices of each lane) and the *completion* also adds `E2`
//! (edges joining the heads of consecutive lanes). The edge sets are unions,
//! so an `E1`/`E2` edge may coincide with an original edge of `G` — the
//! [`EdgeRole`] records every role an edge plays.

use lanecert_graph::{EdgeId, Graph};
use lanecert_pathwidth::IntervalRep;

use crate::{Lane, LanePartition};

/// The roles a completion edge plays (several may hold at once when the
/// union collapses).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeRole {
    /// The edge is an original edge of `G` (its id in `G`, which equals its
    /// id in the completion graph because original edges are inserted
    /// first).
    pub original: Option<EdgeId>,
    /// `E1`: the edge joins positions `pos` and `pos + 1` of `lane`.
    pub lane_step: Option<(Lane, usize)>,
    /// `E2`: the edge joins the heads of `lane` and `lane + 1`.
    pub head_link: Option<Lane>,
}

impl EdgeRole {
    /// Returns `true` if the edge exists only because of the completion.
    pub fn is_virtual(&self) -> bool {
        self.original.is_none()
    }
}

/// The completion `G' = (V, E ∪ E1 ∪ E2)` of `(G, I, P)`.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The completion graph `G'`. Edges `0..m` coincide with the edges of
    /// `G` (same ids); the remaining edges are the virtual `E1`/`E2` edges.
    pub graph: Graph,
    /// Role of each completion edge, indexed by its [`EdgeId`] in
    /// [`Self::graph`].
    pub roles: Vec<EdgeRole>,
    /// The partition that induced the completion.
    pub partition: LanePartition,
    /// Number of edges of the original graph `G`.
    pub original_edges: usize,
}

impl Completion {
    /// Builds the completion of `(g, partition)`.
    ///
    /// The caller is responsible for `partition` being a valid lane
    /// partition of an interval representation of `g` (checked in debug
    /// builds via the representation if supplied to
    /// [`Completion::validate`]).
    pub fn build(g: &Graph, partition: LanePartition) -> Self {
        let mut graph = Graph::new(g.vertex_count());
        let mut roles: Vec<EdgeRole> = Vec::with_capacity(g.edge_count());
        for (_, e) in g.edges() {
            let id = graph.add_edge(e.u, e.v).expect("G is simple");
            debug_assert_eq!(id.index(), roles.len());
            roles.push(EdgeRole {
                original: Some(id),
                ..EdgeRole::default()
            });
        }
        // E1: consecutive vertices within each lane.
        for (l, lane) in partition.lanes().iter().enumerate() {
            for (pos, w) in lane.windows(2).enumerate() {
                let (e, fresh) = graph
                    .ensure_edge(w[0], w[1])
                    .expect("no self loops in lanes");
                if fresh {
                    roles.push(EdgeRole::default());
                }
                roles[e.index()].lane_step = Some((l, pos));
            }
        }
        // E2: heads of consecutive lanes.
        let heads = partition.heads();
        for (l, w) in heads.windows(2).enumerate() {
            let (e, fresh) = graph.ensure_edge(w[0], w[1]).expect("heads are distinct");
            if fresh {
                roles.push(EdgeRole::default());
            }
            roles[e.index()].head_link = Some(l);
        }
        Self {
            graph,
            roles,
            partition,
            original_edges: g.edge_count(),
        }
    }

    /// The virtual edges (`E1 ∪ E2` minus collapses), i.e. the edges that
    /// must be embedded into `G`.
    pub fn virtual_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_virtual())
            .map(|(i, _)| EdgeId::new(i))
    }

    /// Sanity-checks the completion against the graph and representation it
    /// was built from: partition validity, `E1`/`E2` shape, role exactness.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) on any inconsistency — this is a
    /// test/debug helper, not a soundness gate.
    pub fn validate(&self, g: &Graph, rep: &IntervalRep) {
        self.partition.validate(rep).expect("partition invalid");
        assert_eq!(self.original_edges, g.edge_count());
        assert_eq!(self.graph.vertex_count(), g.vertex_count());
        // Original edges coincide.
        for (id, e) in g.edges() {
            assert_eq!(self.graph.endpoints(id), (e.u, e.v), "edge {id} moved");
            assert_eq!(self.roles[id.index()].original, Some(id));
        }
        // Every completion edge is original, lane-step, or head-link.
        for (id, _) in self.graph.edges() {
            let r = &self.roles[id.index()];
            assert!(
                r.original.is_some() || r.lane_step.is_some() || r.head_link.is_some(),
                "edge {id} has no role"
            );
        }
        // E1 edges match the lanes exactly.
        for (l, lane) in self.partition.lanes().iter().enumerate() {
            for (pos, w) in lane.windows(2).enumerate() {
                let e = self
                    .graph
                    .edge_between(w[0], w[1])
                    .expect("lane-step edge missing");
                assert_eq!(self.roles[e.index()].lane_step, Some((l, pos)));
            }
        }
        // E2 edges match the heads.
        let heads = self.partition.heads();
        for (l, w) in heads.windows(2).enumerate() {
            let e = self
                .graph
                .edge_between(w[0], w[1])
                .expect("head-link edge missing");
            assert_eq!(self.roles[e.index()].head_link, Some(l));
        }
    }
}

/// Renders a completion as a small ASCII diagram (used to regenerate the
/// paper's Figure 3 in `examples/paper_figures.rs`).
pub fn ascii_diagram(c: &Completion) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (l, lane) in c.partition.lanes().iter().enumerate() {
        let _ = write!(out, "lane {l}: ");
        for (i, v) in lane.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, " ── ");
            }
            let _ = write!(out, "{v}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "heads path: {}",
        c.partition
            .heads()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ── ")
    );
    let virtuals: Vec<String> = c
        .virtual_edges()
        .map(|e| {
            let (u, v) = c.graph.endpoints(e);
            format!("({u},{v})")
        })
        .collect();
    let _ = writeln!(out, "virtual edges: {}", virtuals.join(" "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::greedy_partition;
    use lanecert_graph::generators;
    use lanecert_pathwidth::Interval;

    fn figure1() -> (Graph, IntervalRep) {
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
    fn completion_of_figure1() {
        let (g, rep) = figure1();
        let p = greedy_partition(&rep);
        let c = Completion::build(&g, p);
        c.validate(&g, &rep);
        // G has 6 edges. Lanes (by greedy): {a}, {b,d,f}? — depends on sort;
        // whatever the partition, |E1| = n - w and |E2| = w - 1 before
        // collapsing, so |E'| <= 6 + (6 - w) + (w - 1) = 11.
        assert!(c.graph.edge_count() <= 11);
        assert!(c.graph.edge_count() > 6);
        // Roles cover every edge.
        assert_eq!(c.roles.len(), c.graph.edge_count());
    }

    #[test]
    fn collapsed_edges_keep_both_roles() {
        // Path v0-v1-v2 with intervals [0,0],[1,1],[2,2]: single lane, and
        // both E1 edges coincide with original edges.
        let g = generators::path_graph(3);
        let rep = IntervalRep::new(vec![
            Interval::new(0, 0),
            Interval::new(1, 1),
            Interval::new(2, 2),
        ]);
        let p = greedy_partition(&rep);
        let c = Completion::build(&g, p);
        c.validate(&g, &rep);
        assert_eq!(c.graph.edge_count(), 2);
        assert_eq!(c.virtual_edges().count(), 0);
        assert_eq!(c.roles[0].lane_step, Some((0, 0)));
        assert!(c.roles[0].original.is_some());
    }

    #[test]
    fn virtual_edges_are_e1_e2() {
        let (g, rep) = figure1();
        let c = Completion::build(&g, greedy_partition(&rep));
        for e in c.virtual_edges() {
            let r = &c.roles[e.index()];
            assert!(r.lane_step.is_some() || r.head_link.is_some());
            assert!(r.original.is_none());
        }
    }

    #[test]
    fn ascii_diagram_mentions_lanes() {
        let (g, rep) = figure1();
        let c = Completion::build(&g, greedy_partition(&rep));
        let art = ascii_diagram(&c);
        assert!(art.contains("lane 0"));
        assert!(art.contains("heads path"));
    }
}
