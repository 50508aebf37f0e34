//! The end-to-end layout pipeline: graph + interval representation →
//! lane partition → completion → embedding → construction → hierarchy.
//!
//! This is the prover-side machinery of Theorem 1 packaged as one call;
//! the certification crate (`lanecert`) builds labels from a [`Layout`].

use lanecert_graph::Graph;
use lanecert_pathwidth::IntervalRep;

use crate::{
    build_hierarchy, completion::Completion, embedding, partition, recursive, BuiltConstruction,
    Construction, Embedding, Hierarchy,
};

/// Which lane-partition strategy to use (the T9 ablation).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LaneStrategy {
    /// Greedy first-fit colouring (Observation 4.3): uses exactly
    /// `width(I)` lanes, so an accepted certificate witnesses
    /// `pathwidth ≤ width(I) − 1`; embedding paths are BFS-shortest with no
    /// worst-case congestion bound.
    Greedy,
    /// The Proposition 4.6 recursion: at most `f(width)` lanes and measured
    /// congestion at most `g(width)` / `h(width)`.
    Recursive,
}

/// Everything the prover derives from `(G, I)`.
#[derive(Clone, Debug)]
pub struct Layout {
    /// The completion `G'` and the partition inside it.
    pub completion: Completion,
    /// Embedding of the virtual completion edges into `G`.
    pub embedding: Embedding,
    /// The lanewidth construction recovered via Proposition 5.2.
    pub construction: BuiltConstruction,
    /// The hierarchical decomposition (Proposition 5.6).
    pub hierarchy: Hierarchy,
    /// The strategy that produced the partition.
    pub strategy: LaneStrategy,
}

impl Layout {
    /// Runs the full pipeline.
    ///
    /// # Panics
    ///
    /// `g` must be connected and `rep` a valid interval representation of
    /// `g`; debug builds assert both, release builds may panic anywhere
    /// in the pipeline otherwise. Callers (the prover) validate both
    /// upfront and refuse to certify instead.
    pub fn build(g: &Graph, rep: &IntervalRep, strategy: LaneStrategy) -> Layout {
        debug_assert!(rep.validate(g).is_ok(), "invalid interval representation");
        debug_assert!(
            lanecert_graph::components::is_connected(g),
            "proof labeling schemes run on connected networks"
        );
        let (part, e1_paths) = match strategy {
            LaneStrategy::Greedy => (partition::greedy_partition(rep), None),
            LaneStrategy::Recursive => {
                let rl = recursive::recursive_partition(g, rep);
                (rl.partition, Some(rl.e1_paths))
            }
        };
        let part = partition::ensure_two_lanes(part);
        let completion = Completion::build(g, part);
        let embedding = match e1_paths {
            // The `ensure_two_lanes` normalization may have introduced new
            // consecutive pairs, so fall back to BFS paths when it fired.
            Some(paths)
                if completion.virtual_edges().all(|e| {
                    let (u, v) = completion.graph.endpoints(e);
                    completion.roles[e.index()].head_link.is_some()
                        || paths.contains_key(&recursive::pair_key(u, v))
                }) =>
            {
                recursive::embedding_from_paths(g, &completion, &paths)
            }
            _ => embedding::shortest_path_embedding(g, &completion),
        };
        #[cfg(debug_assertions)]
        embedding.validate(g, &completion);
        let construction = Construction::from_completion(&completion, rep)
            .build()
            .expect("Proposition 5.2 conversion is well-formed");
        let hierarchy = build_hierarchy(&construction);
        Layout {
            completion,
            embedding,
            construction,
            hierarchy,
            strategy,
        }
    }

    /// Number of lanes `w` in the layout.
    pub fn lane_count(&self) -> usize {
        self.completion.partition.lane_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_graph::generators;
    use lanecert_pathwidth::solver;
    use rand::SeedableRng;

    fn rep_of(g: &Graph) -> IntervalRep {
        let (_, pd) = solver::pathwidth_exact(g).unwrap();
        IntervalRep::from_decomposition(&pd, g.vertex_count())
    }

    #[test]
    fn both_strategies_build_and_validate() {
        for g in [
            generators::path_graph(8),
            generators::cycle_graph(7),
            generators::caterpillar(3, 2),
            generators::ladder(4),
        ] {
            let rep = rep_of(&g);
            for strat in [LaneStrategy::Greedy, LaneStrategy::Recursive] {
                let layout = Layout::build(&g, &rep, strat);
                layout.hierarchy.validate(&layout.construction);
                // The construction graph is exactly the completion graph.
                assert_eq!(
                    layout.construction.graph.edge_count(),
                    layout.completion.graph.edge_count()
                );
                assert!(layout.lane_count() >= 2 || g.vertex_count() == 1);
            }
        }
    }

    #[test]
    fn greedy_lane_count_equals_width() {
        let g = generators::cycle_graph(9);
        let rep = rep_of(&g);
        let layout = Layout::build(&g, &rep, LaneStrategy::Greedy);
        assert_eq!(layout.lane_count(), rep.width());
    }

    #[test]
    fn random_graphs_both_strategies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for k in 1..=2 {
            for _ in 0..5 {
                let (g, _) = generators::random_pathwidth_graph(12, k, 0.5, &mut rng);
                let rep = rep_of(&g);
                for strat in [LaneStrategy::Greedy, LaneStrategy::Recursive] {
                    let layout = Layout::build(&g, &rep, strat);
                    layout.hierarchy.validate(&layout.construction);
                }
            }
        }
    }
}
