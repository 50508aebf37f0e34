//! Every absorbed failure path of the old per-scheme APIs maps to its
//! documented `CertError` variant, identically through the typed trait,
//! the erased layer, and the builder facade — and malformed labelings are
//! errors, never panics.

use lanecert_suite::algebra::{props, Algebra};
use lanecert_suite::graph::{generators, Graph};
use lanecert_suite::pathwidth::Interval;
use lanecert_suite::pls::simple::BipartiteScheme;
use lanecert_suite::pls::theorem1::{PathwidthScheme, SchemeOptions};
use lanecert_suite::{
    CertError, Certifier, Configuration, DynScheme, EncodedLabeling, ProverHint, Scheme,
};

fn theorem1(k: usize) -> PathwidthScheme {
    PathwidthScheme::new(
        Algebra::shared(props::Connected),
        SchemeOptions::exact_pathwidth(k),
    )
}

/// Asserts that the typed prover, the erased prover, and the builder-built
/// certifier all refuse `cfg` with exactly `expected`.
fn assert_refusal_everywhere(
    scheme: &PathwidthScheme,
    certifier: &Certifier,
    cfg: &Configuration,
    hint: &ProverHint,
    expected: &CertError,
) {
    assert_eq!(&scheme.prove(cfg, hint).map(|_| ()).unwrap_err(), expected);
    let erased: &dyn DynScheme = scheme;
    assert_eq!(
        &erased.prove_encoded(cfg, hint).map(|_| ()).unwrap_err(),
        expected
    );
    assert_eq!(
        &certifier.certify_with(cfg, hint).map(|_| ()).unwrap_err(),
        expected
    );
}

fn connected_certifier(k: usize) -> Certifier {
    Certifier::builder()
        .property(Algebra::shared(props::Connected))
        .pathwidth(k)
        .build()
        .unwrap()
}

#[test]
fn disconnected_maps_to_disconnected() {
    let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
    let cfg = Configuration::with_sequential_ids(g);
    let hint = ProverHint::with_representation(lanecert_suite::pathwidth::IntervalRep::new(vec![
        Interval::new(0, 1),
        Interval::new(1, 2),
        Interval::new(4, 5),
        Interval::new(5, 6),
    ]));
    assert_refusal_everywhere(
        &theorem1(2),
        &connected_certifier(2),
        &cfg,
        &hint,
        &CertError::Disconnected,
    );
}

#[test]
fn property_violation_maps_to_property_violated() {
    // Odd cycle against the bipartiteness property.
    let scheme = PathwidthScheme::new(
        Algebra::shared(props::Bipartite),
        SchemeOptions::exact_pathwidth(2),
    );
    let certifier = Certifier::builder()
        .property(Algebra::shared(props::Bipartite))
        .pathwidth(2)
        .build()
        .unwrap();
    let cfg = Configuration::with_sequential_ids(generators::cycle_graph(7));
    assert_refusal_everywhere(
        &scheme,
        &certifier,
        &cfg,
        &ProverHint::auto(),
        &CertError::PropertyViolated,
    );
}

#[test]
fn lane_overflow_maps_to_too_many_lanes() {
    // A ladder has pathwidth 2: with bound k = 1 the prover must refuse.
    let cfg = Configuration::with_sequential_ids(generators::ladder(4));
    let err = theorem1(1).prove(&cfg, &ProverHint::auto()).unwrap_err();
    assert!(matches!(err, CertError::TooManyLanes { needed, bound }
        if needed > bound && bound == 2));
    let builder_err = connected_certifier(1)
        .certify(&cfg)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, builder_err);
}

#[test]
fn over_wide_representation_maps_to_too_many_lanes() {
    // All 70 intervals share a point: a valid width-70 representation,
    // wider than the 64 lanes a lane set can hold. Refused, never a panic.
    let cfg = Configuration::with_sequential_ids(generators::path_graph(70));
    let hint = ProverHint::with_representation(lanecert_suite::pathwidth::IntervalRep::new(
        vec![Interval::new(0, 0); 70],
    ));
    assert_refusal_everywhere(
        &theorem1(4),
        &connected_certifier(4),
        &cfg,
        &hint,
        &CertError::TooManyLanes {
            needed: 70,
            bound: 5,
        },
    );
}

#[test]
fn solver_limit_maps_to_need_representation() {
    // Past both derivation tiers (exact solver and the beam-search
    // heuristic fallback) with no supplied representation.
    let cfg = Configuration::with_sequential_ids(generators::cycle_graph(
        lanecert_suite::AUTO_HEURISTIC_LIMIT + 1,
    ));
    assert_refusal_everywhere(
        &theorem1(2),
        &connected_certifier(2),
        &cfg,
        &ProverHint::auto(),
        &CertError::NeedRepresentation,
    );
}

#[test]
fn heuristic_fallback_certifies_past_the_exact_limit() {
    // Between the exact-solver limit and the heuristic limit an auto hint
    // now resolves instead of refusing: the fallback derives an
    // upper-bound decomposition good enough for low-width families.
    let cfg = Configuration::with_sequential_ids(generators::cycle_graph(64));
    let report = connected_certifier(2).run(&cfg).unwrap();
    assert!(report.accepted(), "{:?}", report.first_rejection());
}

#[test]
fn non_bipartite_one_bit_scheme_maps_to_property_violated() {
    // The Option-returning `prove_bipartite` of the old API is now the
    // documented PropertyViolated refusal, on all three layers.
    let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
    assert_eq!(
        BipartiteScheme
            .prove(&cfg, &ProverHint::auto())
            .map(|_| ())
            .unwrap_err(),
        CertError::PropertyViolated
    );
    let erased: &dyn DynScheme = &BipartiteScheme;
    assert_eq!(
        erased
            .prove_encoded(&cfg, &ProverHint::auto())
            .map(|_| ())
            .unwrap_err(),
        CertError::PropertyViolated
    );
    let certifier = Certifier::builder()
        .scheme("bipartite-1bit")
        .build()
        .unwrap();
    assert_eq!(
        certifier.certify(&cfg).map(|_| ()).unwrap_err(),
        CertError::PropertyViolated
    );
}

#[test]
fn malformed_labelings_are_errors_not_panics() {
    // The old harness `assert_eq!`-panicked on wrong label counts; both
    // layers now return LabelCountMismatch.
    let cfg = Configuration::with_sequential_ids(generators::cycle_graph(6));
    let scheme = BipartiteScheme;
    let labels = scheme.prove(&cfg, &ProverHint::auto()).unwrap();
    let truncated = &labels[..4];
    assert_eq!(
        scheme.run(&cfg, truncated).unwrap_err(),
        CertError::LabelCountMismatch {
            expected: 6,
            got: 4
        }
    );
    let certifier = Certifier::builder()
        .scheme("bipartite-1bit")
        .build()
        .unwrap();
    assert_eq!(
        certifier
            .verify(&cfg, &EncodedLabeling::default())
            .unwrap_err(),
        CertError::LabelCountMismatch {
            expected: 6,
            got: 0
        }
    );
}

#[test]
fn builder_spec_errors_are_typed() {
    assert!(matches!(
        Certifier::builder().scheme("no-such-scheme").build().err(),
        Some(CertError::UnknownScheme { .. })
    ));
    assert!(matches!(
        Certifier::builder().scheme("theorem1").build().err(),
        Some(CertError::InvalidSpec(_))
    ));
}
