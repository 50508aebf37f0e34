//! The scaling sweep behind the `throughput` section of
//! `BENCH_results.json`: the same corpus pushed through the engine at
//! 1/2/4/8 workers, plus a pure verify-stage sweep.
//!
//! Two measurements, because the pipeline has two very different stages:
//!
//! * **Pipeline** (proving *and* verifying on the pool): a [`CorpusSpec`]
//!   streamed end to end through [`Engine::run`] per worker count,
//!   bit-identical to the sequential path.
//! * **Verify-only**: one large instance proven once, then
//!   everywhere-verified via [`Engine::verify`] per worker count — the
//!   paper's verifier is embarrassingly parallel, and this isolates
//!   exactly that stage on the code path production runs.
//!
//! Both series get one untimed warm-up pass, so the 1-worker run does
//! not absorb the process's one-time costs. Speedups are reported
//! against the 1-worker run of the same sweep.
//! They are honest wall-clock measurements: on a single-core machine
//! expect ≈ 1×.

use std::fmt::Write as _;
use std::sync::Arc;

use lanecert::{registry, Certifier, Configuration, ProverHint};
use lanecert_algebra::{props::Connected, Algebra};
use lanecert_engine::{CorpusSpec, Engine};
use lanecert_graph::{generators, Graph};
use lanecert_obs::{Clock, TraceConfig, TraceSession};
use lanecert_pathwidth::bnb::{pathwidth_bnb, BnbOptions};

use crate::{path_family, theorem1_certifier, Scale};

/// Worker counts every sweep visits.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One pipeline run at a fixed worker count.
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// Engine workers.
    pub workers: usize,
    /// Jobs streamed.
    pub jobs: usize,
    /// Vertices verified.
    pub vertices: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Jobs per second.
    pub jobs_per_sec: f64,
    /// Vertices per second.
    pub vertices_per_sec: f64,
    /// Throughput relative to the 1-worker run.
    pub speedup_vs_1: f64,
}

/// One verify-only run at a fixed worker count.
#[derive(Clone, Debug)]
pub struct VerifyRun {
    /// Engine workers.
    pub workers: usize,
    /// Repetitions of the verify pass inside the timed window.
    pub reps: usize,
    /// Vertices verified (instance size × `reps`).
    pub vertices: usize,
    /// Wall-clock seconds of the timed window.
    pub seconds: f64,
    /// Vertices per second.
    pub vertices_per_sec: f64,
    /// Throughput relative to the 1-worker run.
    pub speedup_vs_1: f64,
}

/// Allocator traffic of the 1-worker verify pass, measured by the
/// `count-allocs` counting allocator when the harness installs one
/// (`experiments --features count-allocs`). Zeroed and `enabled: false`
/// otherwise — the memory-bound claim is only ever *measured*, never
/// assumed.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemStats {
    /// Whether a counting allocator was installed.
    pub enabled: bool,
    /// Heap allocations per verified vertex during the verify pass.
    pub allocations_per_vertex: f64,
    /// Heap bytes requested per verified vertex during the verify pass.
    pub bytes_per_vertex: f64,
}

/// Snapshot hook of a process-global counting allocator: returns
/// cumulative `(allocations, bytes)` so far. Lives in the harness binary
/// because installing a `#[global_allocator]` needs `unsafe`, which this
/// library forbids.
pub type AllocSnapshot = fn() -> (u64, u64);

/// Instrumentation cost of the observability layer on the verify stage:
/// the same verify-only workload run twice, once with an active
/// [`TraceSession`] recording spans and counters and once without.
///
/// With the `obs` feature off (`compiled: false`) the session is a
/// no-op, so the two rates measure the same code and the ratio pins the
/// zero-cost claim (≈ 1.0 up to scheduler noise). With it on, the ratio
/// is the honest recording overhead the README quotes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsOverhead {
    /// Whether the recorder was compiled in (`lanecert_obs::COMPILED`).
    pub compiled: bool,
    /// Vertices verified per second with no session active.
    pub uninstrumented_vertices_per_sec: f64,
    /// Vertices verified per second inside a recording session.
    pub instrumented_vertices_per_sec: f64,
    /// `uninstrumented / instrumented` — ≥ 1.0 means recording cost.
    pub slowdown: f64,
}

/// One hintless certification run: a bounded-pathwidth instance with
/// **no supplied representation**, so the prover's decomposition ladder
/// (exact DP → branch-and-bound → refusal) does the work. Before the
/// B&B solver these instances refused outright past 256 vertices.
#[derive(Clone, Debug)]
pub struct HintlessRun {
    /// Corpus family (`caterpillar` / `random-pw2`).
    pub family: &'static str,
    /// Instance vertex count.
    pub vertices: usize,
    /// Seconds spent in the standalone solver probe
    /// (`pathwidth_bnb` with the auto budget — the same call
    /// `ProverHint::resolve` makes).
    pub solve_seconds: f64,
    /// Width of the derived decomposition.
    pub width: usize,
    /// Whether the solver proved the width optimal.
    pub optimal: bool,
    /// Whether the heuristic seed already matched the lower bound
    /// (search skipped entirely).
    pub seed_known_optimal: bool,
    /// Branch nodes the solver expanded.
    pub solver_nodes: u64,
    /// Branches pruned by the incumbent bound.
    pub solver_prunes: u64,
    /// Dominated prefix re-visits answered by the memo table.
    pub memo_hits: u64,
    /// Wall-clock seconds for the full hintless certification
    /// (resolve + prove + everywhere-verify).
    pub certify_seconds: f64,
    /// Vertices certified per second, hintless end to end.
    pub vertices_per_sec: f64,
    /// Whether every vertex accepted.
    pub accepted: bool,
}

/// The full scaling sweep: pipeline and verify-only series.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Description of the streamed corpus.
    pub corpus: String,
    /// End-to-end pipeline runs, one per [`WORKER_COUNTS`] entry.
    pub pipeline: Vec<PipelineRun>,
    /// Verify-only runs, one per [`WORKER_COUNTS`] entry.
    pub verify_only: Vec<VerifyRun>,
    /// Hintless certification runs (no supplied representation), one
    /// per family × size.
    pub hintless: Vec<HintlessRun>,
    /// Allocator traffic of the verify stage (see [`MemStats`]).
    pub mem_stats: MemStats,
    /// Instrumented-vs-uninstrumented verify throughput (see
    /// [`ObsOverhead`]).
    pub obs_overhead: ObsOverhead,
}

const FULL_SIZES: &[usize] = &[64, 256, 1024];
const QUICK_SIZES: &[usize] = &[16, 48];
const FULL_SEEDS: &[u64] = &[1, 2, 3, 4];
const QUICK_SEEDS: &[u64] = &[1, 2];

fn corpus_spec(scale: Scale) -> CorpusSpec {
    CorpusSpec::new()
        .families(CorpusSpec::benchmark_families())
        .sizes(scale.pick(FULL_SIZES, QUICK_SIZES).iter().copied())
        .seeds(scale.pick(FULL_SEEDS, QUICK_SEEDS).iter().copied())
}

/// Runs the sweep at `scale` (T-scale corpus on `Full`, CI-sized on
/// `Quick`).
pub fn sweep(scale: Scale) -> ThroughputReport {
    sweep_with(scale, None)
}

/// [`sweep`] with an optional counting-allocator snapshot hook; when
/// given, the report's `mem_stats` section carries measured
/// allocations-per-vertex for the 1-worker verify pass.
pub fn sweep_with(scale: Scale, alloc_snapshot: Option<AllocSnapshot>) -> ThroughputReport {
    let spec = corpus_spec(scale);
    let corpus = format!(
        "benchmark families × sizes {:?} × seeds {:?} ({} jobs)",
        scale.pick(FULL_SIZES, QUICK_SIZES),
        scale.pick(FULL_SEEDS, QUICK_SEEDS),
        spec.len(),
    );

    let mut pipeline = Vec::new();
    let mut base_rate = 0.0;
    for workers in WORKER_COUNTS {
        let engine = Engine::builder()
            .certifier(theorem1_certifier(Algebra::shared(Connected)))
            .workers(workers)
            .shard_threshold(512)
            .build()
            .expect("spec is complete");
        if workers == 1 {
            // Untimed warm-up: the process's first run pays one-time
            // costs that would otherwise bias the 1-worker baseline
            // every speedup is taken against.
            engine.run(spec.jobs());
        }
        let report = engine.run(spec.jobs());
        assert_eq!(
            report.batch.refused() + report.batch.failed(),
            0,
            "throughput corpus must certify cleanly: {}",
            report.batch.summary()
        );
        let t = report.throughput;
        let rate = t.vertices_per_sec();
        if workers == 1 {
            base_rate = rate;
        }
        pipeline.push(PipelineRun {
            workers,
            jobs: t.jobs,
            vertices: t.vertices,
            seconds: t.wall_seconds,
            jobs_per_sec: t.jobs_per_sec(),
            vertices_per_sec: rate,
            speedup_vs_1: if base_rate > 0.0 {
                rate / base_rate
            } else {
                0.0
            },
        });
    }

    // Verify-only: one big path instance, proven once; the verify stage is
    // then re-run per worker count over the same shared labels. The prover
    // recurses only as deep as the hierarchy (at most 2k nodes), so the
    // one-off prove runs on the calling thread's default stack.
    //
    // Each worker count is timed over `reps` back-to-back passes after
    // one untimed warmup: a single quick-scale pass is a few
    // milliseconds, far too small a window for the CI bench-regression
    // gate to compare runs without tripping on scheduler noise. The
    // reported rate is the steady-state throughput of the verify stage.
    let n = scale.pick(8192, 512);
    let reps = scale.pick(3, 10);
    let (g, rep) = path_family(n);
    let cfg = Arc::new(Configuration::with_random_ids(g, 17));
    let certifier = theorem1_certifier(Algebra::shared(Connected));
    let labels = Arc::new(
        certifier
            .certify_with(&cfg, &ProverHint::with_representation(rep))
            .expect("path family certifies"),
    );
    let verify_engine = |workers: usize| {
        Engine::builder()
            .certifier(theorem1_certifier(Algebra::shared(Connected)))
            .workers(workers)
            .build()
            .expect("spec is complete")
    };
    let verify = |engine: &Engine| {
        let report = engine
            .verify(Arc::clone(&cfg), Arc::clone(&labels))
            .expect("honest labels verify");
        assert!(report.accepted());
    };
    let clock = Clock::monotonic();
    let mut verify_only = Vec::new();
    let mut base_rate = 0.0;
    let mut mem_stats = MemStats::default();
    for workers in WORKER_COUNTS {
        let engine = verify_engine(workers);
        verify(&engine);
        let before = alloc_snapshot.map(|snap| snap());
        let t0 = clock.now_ns();
        for _ in 0..reps {
            verify(&engine);
        }
        let seconds = clock.seconds_since(t0);
        if workers == 1 {
            if let (Some(snap), Some((a0, b0))) = (alloc_snapshot, before) {
                let (a1, b1) = snap();
                let verified = (n * reps) as f64;
                mem_stats = MemStats {
                    enabled: true,
                    allocations_per_vertex: (a1 - a0) as f64 / verified,
                    bytes_per_vertex: (b1 - b0) as f64 / verified,
                };
            }
        }
        let vertices = n * reps;
        let rate = if seconds > 0.0 {
            vertices as f64 / seconds
        } else {
            0.0
        };
        if workers == 1 {
            base_rate = rate;
        }
        verify_only.push(VerifyRun {
            workers,
            reps,
            vertices,
            seconds,
            vertices_per_sec: rate,
            speedup_vs_1: if base_rate > 0.0 {
                rate / base_rate
            } else {
                0.0
            },
        });
    }

    // Instrumentation overhead: the 1-worker verify workload again,
    // untraced then traced. Both windows run the identical code path —
    // only the presence of a recording session differs.
    let obs_overhead = {
        let engine = verify_engine(1);
        verify(&engine);
        let timed_pass = || {
            let t0 = clock.now_ns();
            for _ in 0..reps {
                verify(&engine);
            }
            let seconds = clock.seconds_since(t0);
            if seconds > 0.0 {
                (n * reps) as f64 / seconds
            } else {
                0.0
            }
        };
        let uninstrumented = timed_pass();
        let session = TraceSession::begin(TraceConfig::new());
        let instrumented = timed_pass();
        drop(session.end());
        ObsOverhead {
            compiled: lanecert_obs::COMPILED,
            uninstrumented_vertices_per_sec: uninstrumented,
            instrumented_vertices_per_sec: instrumented,
            slowdown: if instrumented > 0.0 {
                uninstrumented / instrumented
            } else {
                0.0
            },
        }
    };

    ThroughputReport {
        corpus,
        pipeline,
        verify_only,
        hintless: hintless_series(scale, &clock),
        mem_stats,
        obs_overhead,
    }
}

/// Sizes for the hintless sweep: the full scale tops out at the
/// 10k-vertex acceptance family, the quick scale keeps CI under a
/// second per run.
const HINTLESS_FULL_SIZES: &[usize] = &[1024, 10_000];
const HINTLESS_QUICK_SIZES: &[usize] = &[256, 2048];

/// The hintless corpus families: both connected with small bounded
/// pathwidth, neither carrying a representation — certification stands
/// or falls with the solver ladder.
fn hintless_instance(family: &'static str, n: usize) -> Graph {
    match family {
        // ~n vertices, pathwidth 1: spine of n/3, two legs per spine
        // vertex. The seed heuristic proves these optimal outright.
        "caterpillar" => generators::caterpillar(n.div_ceil(3), 2),
        // Random connected pathwidth-≤2 graphs: the width witness is
        // thrown away, so the solver has to rediscover a bound.
        "random-pw2" => {
            let mut rng = generators::seeded_rng(n as u64);
            generators::random_pathwidth_graph(n, 2, 0.35, &mut rng).0
        }
        other => unreachable!("unknown hintless family {other}"),
    }
}

/// Runs the hintless certification sweep: per family × size, a
/// standalone solver probe (for width/node/memo metrics) followed by a
/// timed end-to-end hintless certification through [`Certifier::run`].
fn hintless_series(scale: Scale, clock: &Clock) -> Vec<HintlessRun> {
    let sizes = scale.pick(HINTLESS_FULL_SIZES, HINTLESS_QUICK_SIZES);
    let mut series = Vec::new();
    for &n in sizes {
        for family in ["caterpillar", "random-pw2"] {
            let g = hintless_instance(family, n);
            let vertices = g.vertex_count();
            // The solver probe mirrors the call `ProverHint::resolve`
            // makes, exposing the stats resolve discards.
            let t0 = clock.now_ns();
            let solve = pathwidth_bnb(&g, &BnbOptions::for_auto(vertices));
            let solve_seconds = clock.seconds_since(t0);
            let certifier = Certifier::builder()
                .property(Algebra::shared(Connected))
                .scheme(registry::THEOREM1)
                .max_lanes((solve.width + 1).max(4))
                .build()
                .expect("theorem1 spec is complete");
            let cfg = Configuration::with_random_ids(g, 29);
            let t0 = clock.now_ns();
            let report = certifier
                .run(&cfg)
                .expect("hintless certification must resolve a decomposition");
            let certify_seconds = clock.seconds_since(t0);
            series.push(HintlessRun {
                family,
                vertices,
                solve_seconds,
                width: solve.width,
                optimal: solve.optimal,
                seed_known_optimal: solve.stats.seed_known_optimal,
                solver_nodes: solve.stats.nodes,
                solver_prunes: solve.stats.prunes,
                memo_hits: solve.stats.memo_hits,
                certify_seconds,
                vertices_per_sec: if certify_seconds > 0.0 {
                    vertices as f64 / certify_seconds
                } else {
                    0.0
                },
                accepted: report.accepted(),
            });
        }
    }
    series
}

impl ThroughputReport {
    /// The human-readable table (rendered alongside T1–T9).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Throughput: {}\npipeline (pool prove + sharded verify — bit-identical to sequential)\n\
             workers  jobs  vertices  wall(s)   jobs/s    vert/s  speedup\n",
            self.corpus,
        );
        for r in &self.pipeline {
            let _ = writeln!(
                out,
                "{:>7}  {:>4}  {:>8}  {:>7.3}  {:>7.1}  {:>8.0}  {:>6.2}x",
                r.workers,
                r.jobs,
                r.vertices,
                r.seconds,
                r.jobs_per_sec,
                r.vertices_per_sec,
                r.speedup_vs_1,
            );
        }
        out.push_str("verify-only (one instance, Engine::verify, steady state)\nworkers  reps  vertices  wall(s)    vert/s  speedup\n");
        for r in &self.verify_only {
            let _ = writeln!(
                out,
                "{:>7}  {:>4}  {:>8}  {:>7.4}  {:>8.0}  {:>6.2}x",
                r.workers, r.reps, r.vertices, r.seconds, r.vertices_per_sec, r.speedup_vs_1,
            );
        }
        out.push_str(
            "hintless (no representation supplied — solver ladder derives one)\n\
             family           vertices  width  opt  seed-opt  nodes  prunes  memo-hits  solve(s)  cert(s)    vert/s\n",
        );
        for r in &self.hintless {
            let _ = writeln!(
                out,
                "{:<16} {:>8}  {:>5}  {:>3}  {:>8}  {:>5}  {:>6}  {:>9}  {:>8.4}  {:>7.3}  {:>8.0}",
                r.family,
                r.vertices,
                r.width,
                if r.optimal { "yes" } else { "no" },
                if r.seed_known_optimal { "yes" } else { "no" },
                r.solver_nodes,
                r.solver_prunes,
                r.memo_hits,
                r.solve_seconds,
                r.certify_seconds,
                r.vertices_per_sec,
            );
        }
        if self.mem_stats.enabled {
            let _ = writeln!(
                out,
                "mem: {:.1} allocations/vertex, {:.0} heap bytes/vertex (1-worker verify)",
                self.mem_stats.allocations_per_vertex, self.mem_stats.bytes_per_vertex,
            );
        }
        let o = &self.obs_overhead;
        let _ = writeln!(
            out,
            "obs-overhead (recorder {}): {:.0} vert/s untraced vs {:.0} vert/s traced ({:.3}x slowdown)",
            if o.compiled { "compiled in" } else { "compiled out" },
            o.uninstrumented_vertices_per_sec,
            o.instrumented_vertices_per_sec,
            o.slowdown,
        );
        out
    }

    /// The `throughput` JSON section of `BENCH_results.json` (the
    /// workspace has no serde offline; the structure is flat enough to
    /// print by hand).
    pub fn to_json(&self, escape: impl Fn(&str) -> String) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "    \"corpus\": \"{}\",", escape(&self.corpus));
        json.push_str("    \"pipeline\": [\n");
        for (i, r) in self.pipeline.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"workers\": {}, \"jobs\": {}, \"vertices\": {}, \"seconds\": {:.6}, \
                 \"jobs_per_sec\": {:.3}, \"vertices_per_sec\": {:.3}, \"speedup_vs_1\": {:.4}}}{}",
                r.workers,
                r.jobs,
                r.vertices,
                r.seconds,
                r.jobs_per_sec,
                r.vertices_per_sec,
                r.speedup_vs_1,
                comma(i, self.pipeline.len()),
            );
        }
        json.push_str("    ],\n    \"verify_only\": [\n");
        for (i, r) in self.verify_only.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"workers\": {}, \"reps\": {}, \"vertices\": {}, \"seconds\": {:.6}, \
                 \"vertices_per_sec\": {:.3}, \"speedup_vs_1\": {:.4}}}{}",
                r.workers,
                r.reps,
                r.vertices,
                r.seconds,
                r.vertices_per_sec,
                r.speedup_vs_1,
                comma(i, self.verify_only.len()),
            );
        }
        json.push_str("    ],\n    \"hintless\": [\n");
        for (i, r) in self.hintless.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"family\": \"{}\", \"vertices\": {}, \"width\": {}, \"optimal\": {}, \
                 \"seed_known_optimal\": {}, \"solver_nodes\": {}, \"solver_prunes\": {}, \
                 \"memo_hits\": {}, \"solve_seconds\": {:.6}, \"certify_seconds\": {:.6}, \
                 \"vertices_per_sec\": {:.3}, \"accepted\": {}}}{}",
                escape(r.family),
                r.vertices,
                r.width,
                r.optimal,
                r.seed_known_optimal,
                r.solver_nodes,
                r.solver_prunes,
                r.memo_hits,
                r.solve_seconds,
                r.certify_seconds,
                r.vertices_per_sec,
                r.accepted,
                comma(i, self.hintless.len()),
            );
        }
        let _ = writeln!(
            json,
            "    ],\n    \"mem_stats\": {{\"enabled\": {}, \"allocations_per_vertex\": {:.3}, \
             \"bytes_per_vertex\": {:.3}}},",
            self.mem_stats.enabled,
            self.mem_stats.allocations_per_vertex,
            self.mem_stats.bytes_per_vertex,
        );
        let o = &self.obs_overhead;
        let _ = writeln!(
            json,
            "    \"obs_overhead\": {{\"compiled\": {}, \
             \"uninstrumented_vertices_per_sec\": {:.3}, \
             \"instrumented_vertices_per_sec\": {:.3}, \"slowdown\": {:.4}}}",
            o.compiled,
            o.uninstrumented_vertices_per_sec,
            o.instrumented_vertices_per_sec,
            o.slowdown,
        );
        json.push_str("  }");
        json
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_runs_and_serializes() {
        let report = sweep(Scale::Quick);
        assert_eq!(report.pipeline.len(), WORKER_COUNTS.len());
        assert_eq!(report.verify_only.len(), WORKER_COUNTS.len());
        assert!((report.pipeline[0].speedup_vs_1 - 1.0).abs() < 1e-9);
        assert!(report.pipeline.iter().all(|r| r.vertices > 0));
        let rendered = report.render();
        assert!(rendered.contains("verify-only"));
        assert!(rendered.contains("hintless"));
        assert!(report.verify_only.iter().all(|r| r.reps > 0));
        assert_eq!(report.hintless.len(), 4, "two families × two sizes");
        assert!(
            report.hintless.iter().all(|r| r.accepted),
            "hintless corpus must certify cleanly"
        );
        assert!(report.hintless.iter().all(|r| r.width >= 1));
        assert!(report
            .hintless
            .iter()
            .filter(|r| r.family == "caterpillar")
            .all(|r| r.width == 1 && r.seed_known_optimal));
        assert!(!report.mem_stats.enabled, "no hook installed in tests");
        let json = report.to_json(|s| s.to_string());
        assert!(json.contains("\"pipeline\""));
        assert!(json.contains("\"verify_only\""));
        assert!(json.contains("\"hintless\""));
        assert!(json.contains("\"solver_nodes\""));
        assert!(json.contains("\"memo_hits\""));
        assert!(json.contains("\"reps\""));
        assert!(json.contains("\"mem_stats\""));
        assert!(json.contains("\"allocations_per_vertex\""));
        assert!(json.contains("\"speedup_vs_1\""));
        assert!(json.contains("\"obs_overhead\""));
        assert!(json.contains("\"slowdown\""));
        assert!(rendered.contains("obs-overhead"));
        assert!(report.obs_overhead.uninstrumented_vertices_per_sec > 0.0);
        assert!(report.obs_overhead.instrumented_vertices_per_sec > 0.0);
    }
}
