//! Parity and determinism of the branch-and-bound pathwidth solver.
//!
//! Three contracts, matching the hintless-certification ladder:
//!
//! * **Exactness** — on every graph within the exact DP's limit,
//!   [`pathwidth_bnb`] must agree with `pathwidth_exact`: full equality
//!   with `optimal = true` on the band where the default work budget
//!   provably suffices (n ≤ 16 at every density, per the budget sweep
//!   behind `DEFAULT_MAX_WORK`'s docs), and sound upper-bound semantics
//!   (width ≥ exact, never worse than the heuristic seed, equality
//!   whenever optimality is claimed) up to `EXACT_LIMIT`, where dense
//!   instances can exhaust the budget.
//! * **Purity** — [`pathwidth_bnb`] must return the identical result
//!   (width, optimality, bags, node and prune counts) on any thread,
//!   budget exhaustion included: the work budget counts adjacency
//!   halves, not wall-clock time. The engine's bit-parity with
//!   `BatchRunner` on hintless jobs rests on this.
//! * **Hintless ceiling** — a 10,000-vertex bounded-pathwidth family
//!   (caterpillars; random interval graphs) certifies with
//!   [`ProverHint::auto`], where the pre-B&B 256-vertex ceiling refused.

use lanecert_suite::algebra::{props::Connected, Algebra};
use lanecert_suite::graph::{generators, Graph};
use lanecert_suite::pathwidth::bnb::{pathwidth_bnb, BnbOptions, BnbResult};
use lanecert_suite::pathwidth::solver::{pathwidth_exact, EXACT_LIMIT};
use lanecert_suite::{Certifier, Configuration, ProverHint, AUTO_HEURISTIC_LIMIT};
use proptest::prelude::*;

/// Arbitrary graph in the given vertex range, sweeping the density
/// range from near-forest to near-clique.
fn random_graph(vertices: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Graph> {
    (vertices, any::<u64>(), 1usize..=8).prop_map(|(n, seed, d)| {
        let mut rng = generators::seeded_rng(seed);
        generators::gnp(n, d as f64 * 0.1, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On the band where the default budget provably suffices, B&B must
    /// agree with the exact DP on width, produce a valid decomposition
    /// of that width, and prove optimality.
    #[test]
    fn bnb_matches_exact_dp(g in random_graph(2..=16)) {
        let (pw, _) = pathwidth_exact(&g).unwrap();
        let r = pathwidth_bnb(&g, &BnbOptions::default());
        prop_assert!(r.optimal, "default budget must suffice at n ≤ 16");
        prop_assert_eq!(r.width, pw);
        prop_assert_eq!(r.decomposition.width(), pw);
        r.decomposition.validate(&g).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Up to the exact DP's limit, B&B under the default budget is a
    /// sound upper bound: a valid decomposition never wider than the
    /// heuristic seed, never narrower than the true pathwidth, and
    /// exactly the true pathwidth whenever it claims optimality.
    #[test]
    fn bnb_is_a_sound_upper_bound_to_exact_limit(g in random_graph(17..=EXACT_LIMIT)) {
        let (pw, _) = pathwidth_exact(&g).unwrap();
        let r = pathwidth_bnb(&g, &BnbOptions::default());
        prop_assert!(r.width >= pw, "upper bound below the true pathwidth");
        prop_assert!(r.width <= r.stats.seed_width, "worse than the seed");
        prop_assert_eq!(r.decomposition.width(), r.width);
        r.decomposition.validate(&g).unwrap();
        if r.optimal {
            prop_assert_eq!(r.width, pw, "claimed optimality with the wrong width");
        }
    }
}

#[test]
fn bnb_is_a_pure_function_of_graph_and_options() {
    // A small work budget keeps the test fast and exhausts on some
    // inputs; exhaustion must be just as reproducible as completion.
    let opts = BnbOptions {
        max_work: 150_000,
        ..BnbOptions::default()
    };
    let mut rng = generators::seeded_rng(2026);
    for trial in 0..4u32 {
        let g = generators::gnp(66 + trial as usize, 0.06, &mut rng);
        let here = pathwidth_bnb(&g, &opts);
        let there: BnbResult = std::thread::scope(|s| {
            s.spawn(|| pathwidth_bnb(&g, &opts))
                .join()
                .expect("solver thread panicked")
        });
        for r in [&here, &there] {
            r.decomposition.validate(&g).unwrap();
        }
        assert_eq!(there.width, here.width, "trial {trial}");
        assert_eq!(there.optimal, here.optimal, "trial {trial}");
        assert_eq!(
            there.decomposition.bags(),
            here.decomposition.bags(),
            "decomposition must be a pure function of the graph and options"
        );
        assert_eq!(there.stats.nodes, here.stats.nodes, "trial {trial}");
        assert_eq!(there.stats.prunes, here.stats.prunes, "trial {trial}");
    }
}

#[test]
fn hintless_certification_covers_10k_vertex_caterpillars() {
    // 3334 spine vertices × 2 legs ≈ 10k vertices, pathwidth 1. Before
    // the B&B ladder the 256-vertex ceiling refused this outright.
    let g = generators::caterpillar(3334, 2);
    let n = g.vertex_count();
    assert!(
        n >= 10_000,
        "family must reach the advertised scale, got {n}"
    );
    assert!(n <= AUTO_HEURISTIC_LIMIT);
    let cfg = Configuration::with_random_ids(g, 23);
    let certifier = Certifier::builder()
        .property(Algebra::shared(Connected))
        .pathwidth(2)
        .build()
        .unwrap();
    let report = certifier.run(&cfg).unwrap();
    assert!(report.accepted(), "{:?}", report.first_rejection());
}

#[test]
fn hintless_resolution_covers_10k_vertex_random_interval_graphs() {
    // Sparse random interval graphs: bounded width, no supplied
    // representation. The resolved decomposition must validate; its
    // width is the solver's upper bound (exact when the budget proved
    // it), which is all the prover needs to proceed.
    let mut rng = generators::seeded_rng(7);
    let (g, _) = generators::random_interval_graph(10_000, 500_000, 100, &mut rng);
    let cfg = Configuration::with_sequential_ids(g);
    let hint = ProverHint::auto();
    let rep = hint.resolve(&cfg).unwrap();
    rep.validate(cfg.graph()).unwrap();
    assert!(rep.width() >= 1);
}
