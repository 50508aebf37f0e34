//! Facade smoke test: every `lanecert_suite` re-export resolves to a live
//! crate, and a certify/verify round-trip runs entirely through
//! `lanecert_suite::` paths — both the typed `Scheme` trait and the
//! root-level builder API.

use lanecert_suite::algebra::{props as alg_props, Algebra};
use lanecert_suite::graph::{components, generators};
use lanecert_suite::lanes::{bounds, LaneStrategy, Layout};
use lanecert_suite::mso::{eval, props as mso_props};
use lanecert_suite::pathwidth::{solver, IntervalRep};
use lanecert_suite::pls::registry::THEOREM1;
use lanecert_suite::pls::theorem1::{PathwidthScheme, SchemeOptions};
use lanecert_suite::{BatchJob, BatchRunner, Certifier, Configuration, ProverHint, Scheme};

/// Touches one entry point behind each re-exported module, so a facade
/// wiring regression (a dropped `pub use`, a renamed crate) fails here
/// rather than deep inside an integration suite.
#[test]
fn every_reexport_resolves() {
    // graph
    let g = generators::cycle_graph(6);
    assert!(components::is_connected(&g));

    // pathwidth
    let (pw, pd) = solver::pathwidth_exact(&g).unwrap();
    assert_eq!(pw, 2);
    pd.validate(&g).unwrap();

    // lanes
    let rep = IntervalRep::from_decomposition(&pd, g.vertex_count());
    let layout = Layout::build(&g, &rep, LaneStrategy::Greedy);
    assert!(layout.lane_count() >= 1);
    assert_eq!(bounds::f(1), 1);

    // mso
    assert!(eval::check(&g, &mso_props::bipartite()));

    // algebra: pure value ops plus the canonical frozen table
    let alg = Algebra::shared(alg_props::Connected);
    let empty = alg.empty();
    assert!(alg.accept(&alg.add_vertex(empty)));
    let frozen = lanecert_suite::algebra::FrozenAlgebra::freeze(
        Algebra::shared(alg_props::Connected),
        &lanecert_suite::algebra::FreezeOptions::for_interface_arity(2),
    );
    assert!(frozen.is_total());
    assert!(frozen.knows(lanecert_suite::algebra::StateId(0)));

    // pls (labels are per-edge; a 3-path has 2 edges)
    let labels = lanecert_suite::pls::simple::WholeGraphScheme::trivially_true()
        .prove(
            &Configuration::with_sequential_ids(generators::path_graph(3)),
            &ProverHint::auto(),
        )
        .unwrap();
    assert_eq!(labels.len(), 2);

    // unified API at the crate root
    let certifier = Certifier::builder()
        .property(Algebra::shared(alg_props::Connected))
        .pathwidth(2)
        .scheme(THEOREM1)
        .build()
        .unwrap();
    assert!(certifier.name().starts_with(THEOREM1));
}

/// A minimal certify → verify round-trip through the typed trait:
/// connectedness on a 6-cycle with the Theorem 1 scheme.
#[test]
fn certify_verify_roundtrip() {
    let g = generators::cycle_graph(6);
    let (_, pd) = solver::pathwidth_exact(&g).unwrap();
    let rep = IntervalRep::from_decomposition(&pd, g.vertex_count());
    let cfg = Configuration::with_random_ids(g, 42);

    let scheme = PathwidthScheme::new(
        Algebra::shared(alg_props::Connected),
        SchemeOptions::exact_pathwidth(3),
    );
    let labels = scheme
        .prove(&cfg, &ProverHint::with_representation(rep))
        .expect("cycle is connected, pw 2");
    let report = scheme.run(&cfg, &labels).unwrap();
    assert!(
        report.accepted(),
        "honest labels rejected: {:?}",
        report.first_rejection()
    );
    assert!(report.max_label_bits > 0);
}

/// The same round-trip through the builder facade and the batch runner.
#[test]
fn builder_batch_roundtrip() {
    let certifier = Certifier::builder()
        .property(Algebra::shared(alg_props::Connected))
        .pathwidth(2)
        .build()
        .unwrap();
    let report = BatchRunner::new(certifier).run([
        BatchJob::new(Configuration::with_random_ids(
            generators::cycle_graph(6),
            1,
        ))
        .named("C6"),
        BatchJob::new(Configuration::with_random_ids(generators::ladder(3), 2)).named("L3"),
    ]);
    assert!(report.all_accepted(), "{}", report.summary());
    assert!(report.max_label_bits() > 0);
    assert!(report.avg_label_bits() > 0.0);
}
