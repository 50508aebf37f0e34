//! The streaming certification pipeline on top of the engine's [`Pool`].
//!
//! [`Engine::run`] pulls [`BatchJob`]s from any job source (an iterator —
//! e.g. [`CorpusSpec::jobs`](crate::CorpusSpec::jobs) — is one), keeps a
//! bounded window of them in flight, and fans each job through
//! prove → encode → verify. Large configurations additionally shard their
//! per-vertex verification across workers in continuation style: one leaf
//! task per contiguous vertex range, and the *last* shard to finish
//! assembles the report, so no worker ever blocks on another (the pool's
//! no-waiting rule).
//!
//! # Stage placement and parity
//!
//! **Both stages run on the pool.** Proving used to be serialized on the
//! driver thread because the algebra's state interner assigned class ids
//! in arrival order — concurrent proving perturbed the ids that labels
//! carry on the wire, and id magnitude leaks into varint label sizes.
//! Since the canonical freeze (`lanecert_algebra::FrozenAlgebra`),
//! class ids are a pure function
//! of `(property, width)`: proving is side-effect-free, so each job's
//! prove is just another pool task and the whole pipeline scales.
//! Outcomes land in submission-indexed slots and shard verdicts in
//! range-indexed slots, so the folded [`BatchReport`] is **bit-identical**
//! to the sequential [`BatchRunner`](lanecert::BatchRunner) — labels,
//! label-size statistics, verdicts, refusals — for any worker count and
//! any scheduling. Pinned for every registered scheme family by the
//! parity proptests in `tests/engine_parity.rs`.
//!
//! Placement is derived, never configured: the builder asks the scheme
//! (`DynScheme::canonical_labels`). The one exception to pool proving is
//! the rare *sealed* algebra — a property too large to pre-enumerate,
//! whose dynamic-tail ids are still arrival-ordered — which proves on the
//! driver thread in job order, so its label sizes stay reproducible too.
//!
//! [`Engine::verify`] runs the verify stage alone for one standing
//! labeling: the same single-task or sharded path, one result slot,
//! bit-identical to [`Certifier::verify`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use lanecert::{
    BatchJob, BatchOutcome, BatchReport, CertError, Certifier, Configuration, EncodedLabeling,
    RunReport, Verdict,
};
use lanecert_obs::{names, Clock, ObsReport, TraceConfig, TraceLog, TraceSession};

use crate::pool::{Pool, Spawner};

/// In-flight jobs per worker that [`Engine::run`]'s streaming window
/// admits.
const WINDOW_PER_WORKER: usize = 4;

/// Throughput accounting for one engine run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Throughput {
    /// Worker threads the engine ran with.
    pub workers: usize,
    /// Jobs pulled from the source.
    pub jobs: usize,
    /// Jobs that produced a full report (accepted or rejected), as
    /// opposed to prover refusals/errors.
    pub certified: usize,
    /// Vertices verified across all certified jobs.
    pub vertices: usize,
    /// Edges labeled across all certified jobs.
    pub edges: usize,
    /// Wall-clock duration of the whole run, in seconds.
    pub wall_seconds: f64,
    /// Time spent in the prove stage, summed over whichever threads
    /// proved: CPU-seconds accumulated from each prove's own timing, so
    /// it can legitimately exceed `wall_seconds` when proves overlap on
    /// the pool.
    pub prove_seconds: f64,
}

impl Throughput {
    /// Jobs per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        per_second(self.jobs, self.wall_seconds)
    }

    /// Verified vertices per wall-clock second.
    pub fn vertices_per_sec(&self) -> f64 {
        per_second(self.vertices, self.wall_seconds)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} workers: {} jobs ({} certified), {} vertices in {:.3}s ({:.3}s proving) — {:.0} jobs/s, {:.0} vertices/s",
            self.workers,
            self.jobs,
            self.certified,
            self.vertices,
            self.wall_seconds,
            self.prove_seconds,
            self.jobs_per_sec(),
            self.vertices_per_sec(),
        )
    }
}

fn per_second(count: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// What an engine run returns: the batch outcomes (bit-identical to the
/// sequential path) plus throughput accounting — and, for traced runs,
/// the drained span log.
#[derive(Debug)]
pub struct EngineReport {
    /// Per-job outcomes folded into the standard batch report (carries
    /// the run's [`ObsReport`] when tracing was enabled).
    pub batch: BatchReport,
    /// Rate accounting for the run.
    pub throughput: Throughput,
    /// The span event log, when the engine was built with
    /// [`EngineBuilder::trace`] (empty in an obs-disabled build).
    pub trace: Option<TraceLog>,
}

/// The parallel certification engine: a thread pool plus one
/// certifier, streaming jobs through prove → encode → verify.
///
/// ```
/// use lanecert_engine::{CorpusFamily, CorpusSpec, Engine};
/// use lanecert::Certifier;
/// use lanecert_algebra::{props::Connected, Algebra};
///
/// let engine = Engine::builder()
///     .certifier(
///         Certifier::builder()
///             .property(Algebra::shared(Connected))
///             .pathwidth(2)
///             .build()
///             .unwrap(),
///     )
///     .workers(2)
///     .build()
///     .unwrap();
/// let spec = CorpusSpec::new()
///     .families(CorpusSpec::benchmark_families())
///     .sizes([12, 24])
///     .seed(1);
/// let report = engine.run(spec.jobs());
/// assert!(report.batch.all_accepted());
/// assert_eq!(report.throughput.jobs, spec.len());
/// ```
pub struct Engine {
    pool: Pool,
    certifier: Arc<Certifier>,
    shard_threshold: usize,
    /// Derived from `DynScheme::canonical_labels` at build time: `false`
    /// only for sealed algebras, which prove on the driver.
    prove_on_pool: bool,
    /// Set by [`EngineBuilder::trace`]; every run installs a session.
    trace: Option<TraceConfig>,
    /// The trace clock when tracing, the monotonic clock otherwise —
    /// all engine timing reads this, never `Instant::now` directly.
    clock: Clock,
}

impl Engine {
    /// Starts a builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The engine's certifier.
    pub fn certifier(&self) -> &Certifier {
        &self.certifier
    }

    /// Streams `jobs` through the pipeline and folds the outcomes, in
    /// submission order, into a [`BatchReport`] bit-identical to the
    /// sequential [`BatchRunner`](lanecert::BatchRunner) run of the same
    /// jobs — at any worker count, proving and verifying both on the
    /// pool (see the module docs) — alongside [`Throughput`] accounting.
    ///
    /// The source is pulled lazily: at most four jobs per worker are in
    /// flight at once, so arbitrarily long corpora stream in bounded
    /// memory.
    ///
    /// When the engine was built with [`EngineBuilder::trace`], the run
    /// installs a run-scoped [`TraceSession`]: stage spans and
    /// histograms record as the pipeline executes, and the drained
    /// [`TraceLog`] / [`ObsReport`] ride back on the report. Tracing
    /// never changes the batch outcomes — pinned bit-for-bit by the
    /// parity proptests.
    pub fn run(&self, jobs: impl IntoIterator<Item = BatchJob>) -> EngineReport {
        let session = self
            .trace
            .as_ref()
            .map(|config| TraceSession::begin(config.clone()));
        let pool_base = self.pool.stats();
        let run_span = lanecert_obs::span!("run");
        let start_ns = self.clock.now_ns();
        let window = WINDOW_PER_WORKER * self.workers();
        let state = Arc::new(RunState::with_slots(0));

        for (index, job) in jobs.into_iter().enumerate() {
            {
                let mut in_flight = state.in_flight.lock().expect("engine state poisoned");
                while *in_flight >= window {
                    in_flight = state
                        .job_done
                        .wait(in_flight)
                        .expect("engine state poisoned");
                }
                *in_flight += 1;
            }
            state
                .slots
                .lock()
                .expect("engine state poisoned")
                .push(None);
            let task = self.job_task(&state, index);
            if self.prove_on_pool {
                // Canonical class ids make the prove a pure function of
                // the job, so it is a pool task like any other.
                self.pool.spawn(move || task.prove_and_verify(job));
            } else {
                // Sealed algebra: prove on the driver, in job order; the
                // verification still goes to the pool.
                task.prove_and_verify(job);
            }
        }

        let outcomes = state.drain();
        let wall_ns = self.clock.now_ns().saturating_sub(start_ns);
        drop(run_span);
        let mut throughput = Throughput {
            workers: self.workers(),
            jobs: outcomes.len(),
            wall_seconds: wall_ns as f64 / 1e9,
            prove_seconds: state.prove_ns.load(Ordering::Relaxed) as f64 / 1e9,
            ..Throughput::default()
        };
        for outcome in &outcomes {
            if let Ok(report) = &outcome.result {
                throughput.certified += 1;
                throughput.vertices += report.verdicts.len();
                throughput.edges += report.edges;
            }
        }
        let (trace, obs) = match session {
            Some(session) => {
                let run = session.end();
                let report = ObsReport {
                    wall_ns,
                    counters: run.counters,
                    histograms: run.histograms,
                    pool: Some(self.pool.stats().delta_since(&pool_base)),
                };
                (Some(run.log), Some(report))
            }
            None => (None, None),
        };
        EngineReport {
            batch: BatchReport { outcomes, obs },
            throughput,
            trace,
        }
    }

    /// Verifies one standing labeling on the pool: the verify stage of
    /// [`Engine::run`] on its own, sharded per vertex range once `cfg`
    /// reaches the shard threshold. The report is bit-identical to
    /// [`Certifier::verify`] at any worker count. `cfg` and `labels` are
    /// shared with the verify tasks, never copied, so re-verifying the
    /// same labeling allocates O(1) beyond the verifier's own decode.
    ///
    /// Call it from outside the engine's pool, as [`Engine::run`].
    ///
    /// # Errors
    ///
    /// As [`Certifier::verify`]: [`CertError::LabelCountMismatch`] for a
    /// wrong-length labeling, [`CertError::FingerprintMismatch`] for one
    /// stamped by another scheme; a panicking scheme becomes
    /// [`CertError::Internal`].
    pub fn verify(
        &self,
        cfg: Arc<Configuration>,
        labels: Arc<EncodedLabeling>,
    ) -> Result<RunReport, CertError> {
        let state = Arc::new(RunState::with_slots(1));
        NamedTask {
            task: self.job_task(&state, 0),
            name: String::new(),
        }
        .submit_verify(cfg, labels);
        state.drain().pop().expect("the verify slot reports").result
    }

    fn job_task(&self, state: &Arc<RunState>, index: usize) -> JobTask {
        JobTask {
            state: Arc::clone(state),
            certifier: Arc::clone(&self.certifier),
            index,
            shards: ShardPlan {
                threshold: self.shard_threshold,
                workers: self.workers(),
            },
            spawner: self.pool.spawner(),
            clock: self.clock.clone(),
        }
    }
}

struct RunState {
    /// One slot per submitted job, in submission order.
    slots: Mutex<Vec<Option<BatchOutcome>>>,
    /// Jobs submitted but not yet reported.
    in_flight: Mutex<usize>,
    /// Signalled on every job completion (feeds both the window gate and
    /// the final drain).
    job_done: Condvar,
    /// Nanoseconds spent proving, accumulated by whichever thread ran
    /// each prove — worker, or driver for sealed algebras.
    prove_ns: AtomicU64,
}

impl RunState {
    /// State for `jobs` outcomes already reserved and in flight.
    fn with_slots(jobs: usize) -> Self {
        Self {
            slots: Mutex::new((0..jobs).map(|_| None).collect()),
            in_flight: Mutex::new(jobs),
            job_done: Condvar::new(),
            prove_ns: AtomicU64::new(0),
        }
    }

    /// Waits until nothing is in flight, then takes the outcomes in slot
    /// order.
    fn drain(&self) -> Vec<BatchOutcome> {
        let mut in_flight = self.in_flight.lock().expect("engine state poisoned");
        while *in_flight > 0 {
            in_flight = self
                .job_done
                .wait(in_flight)
                .expect("engine state poisoned");
        }
        drop(in_flight);
        self.slots
            .lock()
            .expect("engine state poisoned")
            .drain(..)
            .map(|slot| slot.expect("every submitted job reports"))
            .collect()
    }

    fn finish(&self, index: usize, name: String, result: Result<RunReport, CertError>) {
        self.slots.lock().expect("engine state poisoned")[index] =
            Some(BatchOutcome { name, result });
        let mut in_flight = self.in_flight.lock().expect("engine state poisoned");
        *in_flight -= 1;
        drop(in_flight);
        self.job_done.notify_all();
    }
}

#[derive(Copy, Clone)]
struct ShardPlan {
    threshold: usize,
    workers: usize,
}

impl ShardPlan {
    /// Vertices per cache-line-sized stride: shard boundaries snap to
    /// multiples of this so adjacent workers write disjoint cache lines
    /// of the verdict array and stream disjoint spans of the CSR arena
    /// instead of bouncing the boundary lines between cores.
    const STRIDE: usize = 64;

    /// Contiguous vertex ranges for a configuration of `n` vertices, or
    /// `None` when the job should verify as one task (small instance or a
    /// single worker — sharding would only pay coordination overhead).
    fn ranges(&self, n: usize) -> Option<Vec<std::ops::Range<usize>>> {
        if self.workers < 2 || n < self.threshold.max(2) {
            return None;
        }
        // Two shards per worker keeps the tail balanced without flooding
        // the queues with tiny ranges; stride alignment keeps the shard
        // boundaries off shared cache lines.
        let shards = (self.workers * 2).min(n);
        let chunk = n.div_ceil(shards);
        let chunk = if chunk >= Self::STRIDE {
            chunk.next_multiple_of(Self::STRIDE)
        } else {
            chunk
        };
        Some(
            (0..shards)
                .map(|s| (s * chunk)..((s + 1) * chunk).min(n))
                .filter(|r| !r.is_empty())
                .collect(),
        )
    }
}

/// One job's pipeline context; carries the job across stages. The name is
/// resolved at prove time, the outcome slot at `index` is reserved by the
/// driver.
struct JobTask {
    state: Arc<RunState>,
    certifier: Arc<Certifier>,
    index: usize,
    shards: ShardPlan,
    spawner: Spawner,
    clock: Clock,
}

impl JobTask {
    /// The prove stage, then a hand-off to the verify stage. A refusal
    /// or error is reported as the job's outcome.
    ///
    /// A panicking scheme becomes an outcome, not a hung run: the driver
    /// waits for every slot, so an unwound task would otherwise strand it
    /// (the sequential `BatchRunner` would propagate the panic; schemes
    /// are hardened against label-induced panics since the erased layer
    /// landed).
    fn prove_and_verify(self, job: BatchJob) {
        let BatchJob { name, cfg, hint } = job;
        let name = name.unwrap_or_else(|| self.index.to_string());
        // Borrow the certifier's default hint rather than cloning it per
        // job.
        let hint = hint.as_ref().unwrap_or_else(|| self.certifier.hint());
        let span = lanecert_obs::span!("prove", job = self.index);
        let t0 = self.clock.now_ns();
        let result = no_panic(|| self.certifier.scheme().prove_encoded(&cfg, hint));
        let dt = self.clock.now_ns().saturating_sub(t0);
        self.state.prove_ns.fetch_add(dt, Ordering::Relaxed);
        lanecert_obs::record_ns(names::PROVE_NS, dt);
        drop(span);
        match result {
            Ok(labels) => {
                NamedTask { task: self, name }.submit_verify(Arc::new(cfg), Arc::new(labels));
            }
            Err(e) => self.state.finish(self.index, name, Err(e)),
        }
    }
}

/// A job past its prove stage: name resolved, outcome still owed.
struct NamedTask {
    task: JobTask,
    name: String,
}

impl NamedTask {
    /// The verify stage: one pool task for small configurations, a
    /// continuation-style shard fan-out for large ones. Never blocks —
    /// the last shard to finish assembles and reports, which is what
    /// keeps the executor deadlock-free.
    fn submit_verify(self, cfg: Arc<Configuration>, labels: Arc<EncodedLabeling>) {
        let NamedTask { task, name } = self;
        match task.shards.ranges(cfg.n()) {
            None => {
                let certifier = Arc::clone(&task.certifier);
                let state = Arc::clone(&task.state);
                let index = task.index;
                let clock = task.clock.clone();
                task.spawner.spawn(move || {
                    let _span = lanecert_obs::span!("verify", job = index);
                    let t0 = clock.now_ns();
                    let result = no_panic(|| certifier.scheme().verify_encoded(&cfg, &labels));
                    lanecert_obs::record_ns(names::VERIFY_NS, clock.now_ns().saturating_sub(t0));
                    state.finish(index, name, result);
                });
            }
            Some(ranges) => {
                let gather = Arc::new(ShardGather {
                    state: Arc::clone(&task.state),
                    certifier: Arc::clone(&task.certifier),
                    cfg,
                    labels,
                    index: task.index,
                    name: Mutex::new(Some(name)),
                    verdicts: Mutex::new((0..ranges.len()).map(|_| None).collect()),
                    remaining: AtomicUsize::new(ranges.len()),
                    clock: task.clock.clone(),
                });
                for (shard, range) in ranges.into_iter().enumerate() {
                    let gather = Arc::clone(&gather);
                    task.spawner
                        .spawn(move || gather.verify_shard(shard, range));
                }
            }
        }
    }
}

/// One shard's pending result slot.
type ShardSlot = Option<Result<Vec<Verdict>, CertError>>;

/// Continuation state for one sharded verification: range-indexed verdict
/// slots plus a countdown; the last shard assembles the report.
struct ShardGather {
    state: Arc<RunState>,
    certifier: Arc<Certifier>,
    cfg: Arc<Configuration>,
    labels: Arc<EncodedLabeling>,
    index: usize,
    name: Mutex<Option<String>>,
    verdicts: Mutex<Vec<ShardSlot>>,
    remaining: AtomicUsize,
    clock: Clock,
}

/// Runs `f`, mapping an unwind to [`CertError::Internal`] so pipeline
/// tasks always report an outcome.
fn no_panic<T>(f: impl FnOnce() -> Result<T, CertError>) -> Result<T, CertError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|_| {
        Err(CertError::Internal(
            "scheme panicked in the pipeline".into(),
        ))
    })
}

impl ShardGather {
    fn verify_shard(&self, shard: usize, range: std::ops::Range<usize>) {
        // The span covers the whole shard task — including, on the last
        // shard, report assembly — so collapsed stacks attribute that
        // tail work to the shard that performed it.
        let _span = lanecert_obs::span!("verify_shard", shard = shard);
        let t0 = self.clock.now_ns();
        let result = no_panic(|| {
            self.certifier
                .scheme()
                .verify_encoded_range(&self.cfg, &self.labels, range)
        });
        lanecert_obs::record_ns(
            names::VERIFY_SHARD_NS,
            self.clock.now_ns().saturating_sub(t0),
        );
        self.verdicts.lock().expect("shard state poisoned")[shard] = Some(result);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.assemble();
        }
    }

    /// Runs on whichever worker finishes last; concatenates the verdict
    /// ranges in vertex order (deterministic regardless of which worker
    /// ran which shard) and reports the job outcome.
    fn assemble(&self) {
        let shards = std::mem::take(&mut *self.verdicts.lock().expect("shard state poisoned"));
        let mut verdicts = Vec::with_capacity(self.cfg.n());
        let mut error = None;
        for slot in shards {
            match slot.expect("all shards reported") {
                Ok(vs) => verdicts.extend(vs),
                Err(e) => {
                    // Shard errors are per-job-global conditions (count
                    // mismatch, panic); keep the first in range order so
                    // the outcome is deterministic.
                    error = error.or(Some(e));
                }
            }
        }
        let result = match error {
            Some(e) => Err(e),
            None => Ok(RunReport {
                verdicts,
                max_label_bits: self.labels.max_bits(),
                total_label_bits: self.labels.total_bits(),
                edges: self.cfg.graph().edge_count(),
            }),
        };
        let name = self
            .name
            .lock()
            .expect("shard state poisoned")
            .take()
            .expect("assemble runs once");
        self.state.finish(self.index, name, result);
    }
}

/// Fluent configuration for an [`Engine`].
pub struct EngineBuilder {
    certifier: Option<Certifier>,
    workers: Option<usize>,
    shard_threshold: usize,
    trace: Option<TraceConfig>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            certifier: None,
            workers: None,
            shard_threshold: 1024,
            trace: None,
        }
    }
}

impl EngineBuilder {
    /// The certifier every job runs through (required).
    pub fn certifier(mut self, certifier: Certifier) -> Self {
        self.certifier = Some(certifier);
        self
    }

    /// Worker thread count (default: the machine's available
    /// parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Vertex count at which a job's verification is sharded across
    /// workers instead of running as one task (default 1024). Has no
    /// effect on results — only on scheduling.
    pub fn shard_threshold(mut self, vertices: usize) -> Self {
        self.shard_threshold = vertices;
        self
    }

    /// Enables run-scoped tracing: every [`Engine::run`] installs a
    /// [`TraceSession`] on `config`'s clock, records stage spans
    /// (`run`, `prove`, `verify`, `verify_shard`) and histograms, and
    /// returns the drained [`TraceLog`] plus an [`ObsReport`] (with
    /// per-run pool statistics) on its report. Engine timing switches
    /// onto the same clock, so a [`lanecert_obs::ManualClock`] makes
    /// the whole report deterministic. In a build without the `obs`
    /// feature the spans compile to nothing: the log comes back empty,
    /// but pool statistics (always-on counters) are still populated.
    /// Batch outcomes are bit-identical either way.
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Builds the engine, spawning its workers.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidSpec`] when no certifier was supplied.
    pub fn build(self) -> Result<Engine, CertError> {
        let certifier = self.certifier.ok_or_else(|| {
            CertError::InvalidSpec("the engine needs a certifier (.certifier(...))".into())
        })?;
        let prove_on_pool = certifier.scheme().canonical_labels();
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let clock = self
            .trace
            .as_ref()
            .map(|t| t.clock.clone())
            .unwrap_or_default();
        Ok(Engine {
            pool: Pool::new(workers),
            certifier: Arc::new(certifier),
            shard_threshold: self.shard_threshold,
            prove_on_pool,
            trace: self.trace,
            clock,
        })
    }
}
