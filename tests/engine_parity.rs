//! Sequential-vs-parallel parity: for every registered scheme family
//! (compiler-lowered formula schemes included), the
//! engine — proving **on the pool** (the default since canonical algebra
//! interning) — at 1, 2, and 8 workers produces a `BatchReport`
//! **bit-identical** to the sequential `BatchRunner`: same names, same
//! per-vertex verdicts in the same order, same label-size statistics,
//! same refusal errors — regardless of scheduling (the shard threshold is
//! forced low so the per-vertex fan-out path is exercised too). The same
//! sweep checks `Engine::verify` against `Certifier::verify` on standing
//! labelings: honest, bit-flipped, wrong-length and restamped. A second
//! proptest pins the stronger claim behind it: the encoded labels
//! themselves are a pure function of `(graph, property, hint)` across
//! independently built certifiers. A regression test pins the canonical
//! `StateId` assignment of a fixed small algebra.

use std::sync::Arc;

use proptest::prelude::*;

use lanecert_suite::algebra::{props, Algebra, FreezeOptions, FrozenAlgebra, StateId};
use lanecert_suite::engine::{CorpusFamily, CorpusSpec, FormulaCorpus};
use lanecert_suite::graph::generators;
use lanecert_suite::pls::{compiled, registry};
use lanecert_suite::{
    BatchJob, BatchRunner, CertError, Certifier, Configuration, EncodedLabeling, Engine,
};

/// A named, rebuildable certifier constructor.
type Factory = (&'static str, fn() -> Certifier);

/// Every scheme family in the standard registry, as a rebuildable factory
/// (the engine and the runner each need their own certifier instance, and
/// the parity claim is per-scheme). The theorem1 lane bound stays within
/// the freeze pass's arity cap, so its algebra table is total and class
/// ids are canonical — the invariant the whole suite pins.
fn scheme_factories() -> Vec<Factory> {
    vec![
        (registry::THEOREM1, || {
            Certifier::builder()
                .property(Algebra::shared(props::Connected))
                .scheme(registry::THEOREM1)
                .max_lanes(4)
                .build()
                .unwrap()
        }),
        (registry::FMR_BASELINE, || {
            Certifier::builder()
                .scheme(registry::FMR_BASELINE)
                .build()
                .unwrap()
        }),
        (registry::BIPARTITE_1BIT, || {
            Certifier::builder()
                .property(Algebra::shared(props::Bipartite))
                .scheme(registry::BIPARTITE_1BIT)
                .build()
                .unwrap()
        }),
        (registry::WHOLE_GRAPH, || {
            Certifier::builder()
                .property(Algebra::shared(props::Connected))
                .scheme(registry::WHOLE_GRAPH)
                .build()
                .unwrap()
        }),
        // Compiler-lowered schemes ride the same parity contract. Only
        // the cheap-to-freeze catalog entries run here — the heavyweight
        // freezes are exercised (once, memoized) in `compile_parity`.
        ("compiled:max-degree-1", || compiled_factory("max-degree-1")),
        ("compiled:vertex-cover-1", || {
            compiled_factory("vertex-cover-1")
        }),
    ]
}

/// Builds a compiled certifier for a standard catalog formula.
fn compiled_factory(name: &str) -> Certifier {
    let entry = compiled::standard_formula(name).expect("catalog formula");
    Certifier::builder()
        .compiled(entry.formula())
        .build()
        .expect("catalog formulas compile and freeze")
}

/// A mixed corpus for one scheme: accepting instances, refusing instances
/// (odd cycles for the 1-bit scheme, disconnected unions elsewhere), and
/// both hinted and hintless jobs.
fn jobs_for(scheme: &str, seed: u64, small: usize, large: usize) -> Vec<BatchJob> {
    if let Some(name) = scheme.strip_prefix("compiled:") {
        // Compiled schemes: certifying witness instances at both sizes,
        // plus both refusal kinds — the lane bound (cycles have
        // pathwidth 2 > DEFAULT_MAX_LANES − 1) and connectivity.
        return vec![
            BatchJob::new(Configuration::with_random_ids(
                FormulaCorpus::witness(name, small),
                seed,
            ))
            .named("witness-small"),
            BatchJob::new(Configuration::with_random_ids(
                FormulaCorpus::witness(name, large),
                seed ^ 1,
            ))
            .named("witness-large"),
            BatchJob::new(Configuration::with_random_ids(
                generators::cycle_graph(small.max(4)),
                seed ^ 2,
            ))
            .named("cycle-refuses-lanes"),
            BatchJob::new(Configuration::with_random_ids(
                generators::disjoint_union(
                    &generators::path_graph(small),
                    &generators::path_graph(small),
                ),
                seed ^ 3,
            ))
            .named("disconnected-refuses"),
        ];
    }
    if scheme == registry::BIPARTITE_1BIT {
        // Structure-free 1-bit scheme: parity of the cycle decides.
        return vec![
            BatchJob::new(Configuration::with_random_ids(
                generators::cycle_graph(2 * small),
                seed,
            ))
            .named("even"),
            BatchJob::new(Configuration::with_random_ids(
                generators::cycle_graph(2 * small + 1),
                seed ^ 1,
            ))
            .named("odd"),
            BatchJob::new(Configuration::with_random_ids(
                generators::path_graph(large),
                seed ^ 2,
            ))
            .named("path"),
        ];
    }
    CorpusSpec::new()
        .families([
            CorpusFamily::Path,
            CorpusFamily::Cycle,
            CorpusFamily::Ladder,
            CorpusFamily::DisjointPaths,
        ])
        .sizes([small, large])
        .seed(seed)
        .jobs()
        .collect()
}

/// Standing labelings for `Engine::verify`, all over the largest
/// configuration `certifier` certifies in `jobs`: the honest labeling, a
/// bit-flipped copy, a wrong-length copy and a copy restamped with a
/// foreign fingerprint.
fn standing_labelings(
    certifier: &Certifier,
    jobs: Vec<BatchJob>,
) -> (Arc<Configuration>, [Arc<EncodedLabeling>; 4]) {
    let (cfg, honest) = jobs
        .into_iter()
        .filter_map(|job| {
            let hint = job.hint.as_ref().unwrap_or_else(|| certifier.hint());
            let labels = certifier.certify_with(&job.cfg, hint).ok()?;
            (!labels.is_empty()).then_some((job.cfg, labels))
        })
        .max_by_key(|(cfg, _)| cfg.n())
        .expect("every corpus has a certifying job");
    let mut flipped = honest.clone();
    flipped.flip_bit(honest.len() / 2, 0);
    let mut short = honest.to_vec();
    short.pop();
    let restamped = honest
        .clone()
        .with_fingerprint(certifier.scheme().fingerprint() ^ 1);
    (
        Arc::new(cfg),
        [honest, flipped, EncodedLabeling::new(short), restamped].map(Arc::new),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full-report parity — labels' size statistics included, not just
    /// verdicts — with proving on the pool at every worker count.
    #[test]
    fn engine_is_bit_identical_to_batch_runner_for_every_scheme(
        seed in any::<u64>(),
        small in 4usize..12,
        large in 16usize..40,
    ) {
        for (name, certifier) in scheme_factories() {
            let sequential =
                BatchRunner::new(certifier()).run(jobs_for(name, seed, small, large));
            let reference = certifier();
            let (cfg, standing) = standing_labelings(&reference, jobs_for(name, seed, small, large));
            let expected: Vec<_> = standing.iter().map(|l| reference.verify(&cfg, l)).collect();
            prop_assert!(expected[0].as_ref().is_ok_and(|r| r.accepted()), "{}", name);
            prop_assert!(
                matches!(expected[2], Err(CertError::LabelCountMismatch { .. })),
                "{}",
                name
            );
            prop_assert!(
                matches!(expected[3], Err(CertError::FingerprintMismatch { .. })),
                "{}",
                name
            );
            for workers in [1usize, 2, 8] {
                let engine = Engine::builder()
                    .certifier(certifier())
                    .workers(workers)
                    // Low threshold: even the small instances take the
                    // sharded per-vertex path when workers > 1.
                    .shard_threshold(16)
                    .build()
                    .unwrap();
                let parallel = engine.run(jobs_for(name, seed, small, large));
                prop_assert_eq!(
                    &parallel.batch,
                    &sequential,
                    "{} at {} workers",
                    name,
                    workers
                );
                prop_assert_eq!(parallel.throughput.jobs, sequential.outcomes.len());
                // Prove time is attributed from inside the prove task,
                // as summed worker CPU-seconds.
                prop_assert!(parallel.throughput.prove_seconds > 0.0);
                // The verify stage alone, over the same forced shards.
                for (labels, want) in standing.iter().zip(&expected) {
                    prop_assert_eq!(
                        &engine.verify(Arc::clone(&cfg), Arc::clone(labels)),
                        want,
                        "{} verify at {} workers",
                        name,
                        workers
                    );
                }
            }
        }
    }

    /// The invariant underneath report parity: the *encoded labels* are a
    /// pure function of `(graph, property, hint)` — two independently
    /// built certifiers of the same spec emit byte-identical labelings,
    /// which is what lets proves run concurrently in any interleaving.
    #[test]
    fn encoded_labels_are_a_pure_function_of_the_job(
        seed in any::<u64>(),
        small in 4usize..10,
        large in 12usize..24,
    ) {
        for (name, certifier) in scheme_factories() {
            let (a, b) = (certifier(), certifier());
            prop_assert_eq!(a.scheme().fingerprint(), b.scheme().fingerprint(), "{}", name);
            for job in jobs_for(name, seed, small, large) {
                let hint = job.hint.as_ref().unwrap_or_else(|| a.hint());
                let la = a.certify_with(&job.cfg, hint);
                let lb = b.certify_with(&job.cfg, hint);
                match (la, lb) {
                    (Ok(la), Ok(lb)) => prop_assert_eq!(la, lb, "{}", name),
                    (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "{}", name),
                    _ => prop_assert!(false, "{}: prove outcome kind diverged", name),
                }
            }
        }
    }
}

/// Regression pin of the canonical `StateId` assignment for a fixed small
/// algebra: `Connected` frozen at interface arity 2 has exactly 12
/// reachable states (partitions of ≤ 2 live slots × dead ∈ {0, 1, 2}),
/// and the structural sort (arity, then state rendering) fixes their ids.
/// If this pin moves, every recorded label corpus invalidates — bump the
/// fingerprint story consciously, don't just update the numbers.
#[test]
fn canonical_state_ids_are_pinned() {
    let frozen = FrozenAlgebra::freeze(
        Algebra::shared(props::Connected),
        &FreezeOptions::for_interface_arity(2),
    );
    assert!(frozen.is_total());
    assert_eq!(frozen.canonical_state_count(), 12);

    let empty = frozen.empty();
    let v = frozen.add_vertex(empty.clone());
    let vv = frozen.union(v.clone(), v.clone());
    let edge = frozen.add_edge(vv.clone(), 0, 1, true);
    let retired = frozen.forget(v.clone(), 0);

    assert_eq!(frozen.id_of(&empty), Some(StateId(0)));
    assert_eq!(frozen.id_of(&retired), Some(StateId(1)));
    assert_eq!(frozen.id_of(&v), Some(StateId(3)));
    assert_eq!(frozen.id_of(&edge), Some(StateId(6)));
    assert_eq!(frozen.id_of(&vv), Some(StateId(9)));

    // Ids survive a rebuild (the table is a pure function of the
    // property and options — the cache only makes this cheap, the
    // enumeration itself is deterministic).
    let again = FrozenAlgebra::freeze(
        Algebra::shared(props::Connected),
        &FreezeOptions::for_interface_arity(2),
    );
    assert_eq!(again.fingerprint(), frozen.fingerprint());
    assert_eq!(again.id_of(&edge), Some(StateId(6)));
}
