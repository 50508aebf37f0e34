//! `lanecert-engine` — the parallel certification engine.
//!
//! The paper's verifier is embarrassingly parallel by construction: every
//! vertex accepts or rejects from its local view alone. This crate turns
//! that into throughput. It has three layers:
//!
//! * [`pool`] — a thread pool on `std::thread` (no crates.io in the
//!   build environment): one shared task queue under one mutex, tasks
//!   spawned by a worker run first, and each submission wakes the most
//!   recently idle worker.
//! * [`corpus`] — declarative streaming corpora: a [`CorpusSpec`]
//!   (families × sizes × seeds over the `lanecert_graph` generators)
//!   lazily streams [`BatchJob`](lanecert::BatchJob)s, attaching
//!   known-width interval representations where the family provides one.
//! * [`engine`] — the pipeline: [`Engine::run`] fans each job through
//!   prove → encode → verify, **both stages on the pool** (canonical
//!   class ids — `lanecert_algebra::FrozenAlgebra` — made proving a pure
//!   function of the job, so nothing serializes on the driver any more),
//!   sharding per-vertex verification of large configurations across
//!   workers in continuation style (also on its own, for one standing
//!   labeling: [`Engine::verify`]), and folds outcomes into the standard
//!   [`BatchReport`](lanecert::BatchReport) — **bit-identical** to the
//!   sequential [`BatchRunner`](lanecert::BatchRunner), labels and
//!   label-size statistics included, regardless of worker count or
//!   scheduling (pinned by the parity proptests).
//!
//! ```
//! use lanecert::Certifier;
//! use lanecert_algebra::{props::Connected, Algebra};
//! use lanecert_engine::{CorpusFamily, CorpusSpec, Engine};
//!
//! let engine = Engine::builder()
//!     .certifier(
//!         Certifier::builder()
//!             .property(Algebra::shared(Connected))
//!             .pathwidth(2)
//!             .build()
//!             .unwrap(),
//!     )
//!     .workers(2)
//!     .build()
//!     .unwrap();
//! let corpus = CorpusSpec::new()
//!     .family(CorpusFamily::Cycle)
//!     .sizes([16, 48])
//!     .seeds([1, 2]);
//! let report = engine.run(corpus.jobs());
//! assert!(report.batch.all_accepted());
//! println!("{}", report.throughput.summary());
//! ```

pub mod pool;
pub use pool::{Pool, Spawner};

pub mod corpus;
pub use corpus::{CorpusFamily, CorpusSpec, FormulaCorpus};

pub mod engine;
pub use engine::{Engine, EngineBuilder, EngineReport, Throughput};

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert::{
        BatchJob, BatchRunner, CertError, Certifier, Configuration, AUTO_HEURISTIC_LIMIT,
    };
    use lanecert_algebra::{props::Bipartite, props::Connected, Algebra};
    use lanecert_graph::generators;

    fn connected_certifier() -> Certifier {
        Certifier::builder()
            .property(Algebra::shared(Connected))
            .pathwidth(2)
            .build()
            .unwrap()
    }

    fn mixed_corpus() -> CorpusSpec {
        CorpusSpec::new()
            .families(CorpusSpec::benchmark_families())
            .family(CorpusFamily::DisjointPaths)
            .sizes([8, 20])
            .seeds([3, 9])
    }

    #[test]
    fn engine_report_matches_batch_runner_exactly() {
        let corpus = mixed_corpus();
        let sequential = BatchRunner::new(connected_certifier()).run(corpus.jobs());
        for workers in [1, 2, 5] {
            let engine = Engine::builder()
                .certifier(connected_certifier())
                .workers(workers)
                .build()
                .unwrap();
            let parallel = engine.run(corpus.jobs());
            assert_eq!(parallel.batch, sequential, "{workers} workers");
            assert_eq!(parallel.throughput.jobs, corpus.len());
            assert_eq!(parallel.throughput.workers, workers);
            // Disjoint-paths jobs refuse; the rest certify.
            assert_eq!(parallel.throughput.certified, sequential.accepted());
            assert!(parallel.throughput.vertices > 0);
            assert!(parallel.throughput.wall_seconds > 0.0);
        }
    }

    #[test]
    fn sharded_verification_is_bit_identical() {
        // Force the per-vertex shard path with a low threshold and check
        // against the inline path job by job.
        let jobs = || {
            (0..6u64).map(|s| {
                BatchJob::new(Configuration::with_random_ids(
                    generators::cycle_graph(64),
                    s,
                ))
                .named(format!("C64/{s}"))
            })
        };
        let inline = Engine::builder()
            .certifier(connected_certifier())
            .workers(1)
            .build()
            .unwrap()
            .run(jobs());
        let sharded = Engine::builder()
            .certifier(connected_certifier())
            .workers(4)
            .shard_threshold(16)
            .build()
            .unwrap()
            .run(jobs());
        assert_eq!(sharded.batch, inline.batch);
        assert!(inline.batch.all_accepted());
    }

    #[test]
    fn pool_proving_is_bit_identical_to_sequential() {
        // Canonical class ids made proving a pure function of the job:
        // a total table selects pool proving, and the report agrees bit
        // for bit with the sequential BatchRunner — sizes included, not
        // just verdicts.
        assert!(connected_certifier().scheme().canonical_labels());
        let corpus = mixed_corpus();
        let sequential = BatchRunner::new(connected_certifier()).run(corpus.jobs());
        let pool = Engine::builder()
            .certifier(connected_certifier())
            .workers(4)
            .build()
            .unwrap()
            .run(corpus.jobs());
        assert_eq!(pool.batch, sequential);
        // Prove time is attributed from inside the pool task.
        assert!(pool.throughput.prove_seconds > 0.0);
    }

    #[test]
    fn sealed_algebras_fall_back_to_driver_proving_and_keep_parity() {
        // pathwidth 4 → max_lanes 5 → freeze arity 10 > MAX_FREEZE_ARITY:
        // the scheme rides a sealed table whose tail ids are
        // arrival-ordered, so the builder must keep the prove stage on
        // the driver — and with that placement the report stays
        // bit-identical to the sequential BatchRunner.
        let sealed = || {
            Certifier::builder()
                .property(Algebra::shared(Connected))
                .pathwidth(4)
                .build()
                .unwrap()
        };
        assert!(!sealed().scheme().canonical_labels());
        let jobs = || {
            (0..6u64).map(|s| {
                BatchJob::new(Configuration::with_random_ids(
                    generators::cycle_graph(12 + s as usize),
                    s,
                ))
            })
        };
        let sequential = BatchRunner::new(sealed()).run(jobs());
        let engine = Engine::builder()
            .certifier(sealed())
            .workers(4)
            .build()
            .unwrap();
        let parallel = engine.run(jobs());
        assert_eq!(parallel.batch, sequential);
        // Driver-prove placement shows up in the accounting.
        assert!(parallel.throughput.prove_seconds > 0.0);
    }

    #[test]
    fn traced_run_attaches_observability_and_stays_bit_identical() {
        // Tracing is a pure observer: the traced report equals the
        // untraced one (BatchReport equality compares outcomes only),
        // and the run gains a TraceLog plus an ObsReport with stage
        // histograms and pool deltas. Other tests in this binary may
        // run concurrently and record into the same session, so the
        // assertions are presence/lower bounds, never exact counts.
        let corpus = mixed_corpus();
        let builder = || {
            Engine::builder()
                .certifier(connected_certifier())
                .workers(2)
                .shard_threshold(8)
        };
        let untraced = builder().build().unwrap().run(corpus.jobs());
        assert!(untraced.trace.is_none());
        assert!(untraced.batch.obs.is_none());

        let traced = builder()
            .trace(lanecert_obs::TraceConfig::new())
            .build()
            .unwrap()
            .run(corpus.jobs());
        assert_eq!(traced.batch, untraced.batch);

        let log = traced.trace.as_ref().expect("trace log");
        assert!(log.event_count() > 0);
        assert!(!log.to_jsonl(traced.batch.obs.as_ref()).is_empty());

        let obs = traced.batch.obs.as_ref().expect("obs report");
        assert!(obs.wall_ns > 0);
        let jobs = corpus.len() as u64;
        let prove = obs.histogram(lanecert_obs::names::PROVE_NS).unwrap();
        assert!(prove.count >= jobs, "prove samples: {}", prove.count);
        assert!(obs
            .histogram(lanecert_obs::names::VERIFY_SHARD_NS)
            .is_some());
        assert!(obs.counter(lanecert_obs::names::LABELS_DECODED) > 0);
        assert!(obs.counter(lanecert_obs::names::LABEL_BYTES_READ) > 0);

        let pool = obs.pool.as_ref().expect("pool stats");
        assert_eq!(pool.workers, 2);
        assert!(pool.total_tasks() >= jobs);
    }

    #[test]
    fn empty_source_yields_empty_report() {
        let engine = Engine::builder()
            .certifier(connected_certifier())
            .workers(2)
            .build()
            .unwrap();
        let report = engine.run(std::iter::empty());
        assert!(report.batch.outcomes.is_empty());
        assert_eq!(report.throughput.jobs, 0);
        assert_eq!(report.throughput.jobs_per_sec(), 0.0);
    }

    #[test]
    fn builder_requires_a_certifier() {
        assert!(matches!(
            Engine::builder().build().err().unwrap(),
            CertError::InvalidSpec(_)
        ));
    }

    #[test]
    fn hintless_jobs_past_the_ceiling_refuse_in_their_slot() {
        // A hintless cycle one vertex past the auto-decomposition ceiling
        // must refuse with NeedRepresentation, in its own slot, exactly
        // as the sequential BatchRunner reports it.
        let jobs = || {
            [12, AUTO_HEURISTIC_LIMIT + 1, 16].into_iter().map(|n| {
                BatchJob::new(Configuration::with_random_ids(
                    generators::cycle_graph(n),
                    n as u64,
                ))
            })
        };
        let sequential = BatchRunner::new(connected_certifier()).run(jobs());
        let report = Engine::builder()
            .certifier(connected_certifier())
            .workers(2)
            .build()
            .unwrap()
            .run(jobs());
        assert_eq!(report.batch, sequential);
        assert!(matches!(
            report.batch.outcomes[1].result,
            Err(CertError::NeedRepresentation)
        ));
        assert_eq!(report.batch.failed(), 1);
    }

    #[test]
    fn streaming_window_bounds_do_not_drop_or_reorder_jobs() {
        // Many more jobs than the window admits (40 through 4 per worker
        // × 3 workers); names must come back in submission order with
        // nothing lost.
        let engine = Engine::builder()
            .certifier(
                Certifier::builder()
                    .property(Algebra::shared(Bipartite))
                    .pathwidth(2)
                    .build()
                    .unwrap(),
            )
            .workers(3)
            .build()
            .unwrap();
        let total = 40usize;
        let report = engine.run((0..total).map(|i| {
            // Odd cycles refuse (non-bipartite); even ones accept.
            BatchJob::new(Configuration::with_random_ids(
                generators::cycle_graph(i + 3),
                i as u64,
            ))
        }));
        assert_eq!(report.batch.outcomes.len(), total);
        for (i, outcome) in report.batch.outcomes.iter().enumerate() {
            assert_eq!(outcome.name, i.to_string());
            let odd_cycle = (i + 3) % 2 == 1;
            assert_eq!(
                matches!(outcome.result, Err(CertError::PropertyViolated)),
                odd_cycle,
                "job {i}"
            );
        }
        assert_eq!(report.batch.refused(), total / 2);
    }
}
