//! Experiment harness regenerating the paper's quantitative claims
//! (tables T1–T9 of DESIGN.md / EXPERIMENTS.md).
//!
//! Every table that certifies or verifies goes through the unified
//! certification API — [`Certifier`] builders selecting schemes by the
//! [`lanecert::registry`] names (`theorem1`, `fmr-baseline`,
//! `bipartite-1bit`, `whole-graph`), with the parallel [`Engine`]
//! executing multi-configuration sweeps (bit-identical to the sequential
//! `BatchRunner` path) — so the
//! harness exercises exactly the surface users call. The [`throughput`]
//! module adds the scaling sweep behind the `throughput` section of
//! `BENCH_results.json`.
//!
//! Run `cargo run -p lanecert_bench --bin experiments` to print every
//! table; pass `--table tN` for a single one, `--quick` for the CI-sized
//! variant, and `--threads N` to pin the engine worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use lanecert::theorem1::PathwidthScheme;
use lanecert::{
    attacks, registry, BatchJob, Certifier, Configuration, ProverHint, Scheme, SchemeOptions,
};
use lanecert_algebra::props::{Bipartite, Connected, Forest, HamiltonianCycle, PerfectMatching};
use lanecert_algebra::{mirror::oracles, Algebra, SharedAlgebra};
use lanecert_engine::Engine;
use lanecert_graph::{generators, Graph};
use lanecert_lanes::{bounds, pipeline::LaneStrategy, recursive, Completion, Layout};
use lanecert_pathwidth::{Interval, IntervalRep};

pub mod compiled;
pub mod stats;
pub mod throughput;

/// Table sizing: the full paper-scale runs, or the small CI smoke scale
/// that keeps the perf-trajectory file exercised on every push.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale sizes (the defaults).
    Full,
    /// CI-sized: same code paths, small `n`.
    Quick,
}

impl Scale {
    fn pick<T: Copy>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// How a harness invocation runs: table sizing plus the engine worker
/// count the certification sweeps fan out over.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunCtx {
    /// Table sizing.
    pub scale: Scale,
    /// Engine workers for batched sweeps (`--threads`; 1 = sequential).
    pub threads: usize,
}

impl RunCtx {
    /// A context at `scale` with the machine's available parallelism.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Overrides the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Wraps a certifier in an engine at the context's worker count (the
/// sweeps' execution layer; reports stay bit-identical to the sequential
/// `BatchRunner` path by the engine's parity guarantee).
fn engine_for(ctx: &RunCtx, certifier: Certifier) -> Engine {
    Engine::builder()
        .certifier(certifier)
        .workers(ctx.threads)
        .build()
        .expect("certifier supplied")
}

/// A named benchmark family with a known-width interval representation
/// (so experiments scale past the exact solver).
pub struct Family {
    /// Display name.
    pub name: &'static str,
    /// Generator: `n` → (graph, representation).
    pub make: fn(usize) -> (Graph, IntervalRep),
}

pub(crate) fn path_family(n: usize) -> (Graph, IntervalRep) {
    let g = generators::path_graph(n);
    let rep = IntervalRep::new((0..n as u32).map(|i| Interval::new(i, i + 1)).collect());
    (g, rep)
}

fn cycle_family(n: usize) -> (Graph, IntervalRep) {
    let g = generators::cycle_graph(n);
    // Figure-1-style representation: v0 spans everything, the rest slide.
    let mut ivs = vec![Interval::new(0, (n - 2) as u32)];
    for i in 1..n {
        let lo = (i - 1) as u32;
        ivs.push(Interval::new(
            lo.min((n - 2) as u32),
            lo.min((n - 2) as u32),
        ));
    }
    // Widen so consecutive vertices overlap: v_i covers [i-1, i].
    for (i, iv) in ivs.iter_mut().enumerate().skip(1) {
        let lo = (i - 1) as u32;
        let hi = (i as u32).min((n - 2) as u32);
        *iv = Interval::new(lo.min(hi), hi);
    }
    (g, rep_checked(ivs))
}

fn caterpillar_family(n: usize) -> (Graph, IntervalRep) {
    // spine of n/3 vertices with 2 legs each.
    let spine = (n / 3).max(2);
    let g = generators::caterpillar(spine, 2);
    let mut ivs = vec![Interval::new(0, 0); g.vertex_count()];
    for (s, iv) in ivs.iter_mut().enumerate().take(spine) {
        *iv = Interval::new((3 * s) as u32, (3 * s + 3) as u32);
    }
    for leg in 0..2 {
        for s in 0..spine {
            let v = spine + s * 2 + leg;
            ivs[v] = Interval::new((3 * s + 1 + leg) as u32, (3 * s + 1 + leg) as u32);
        }
    }
    (g, rep_checked(ivs))
}

fn ladder_family(n: usize) -> (Graph, IntervalRep) {
    let cols = (n / 2).max(2);
    let g = generators::ladder(cols);
    // Vertex (r, c) at index r*cols + c: interval [2c + r, 2c + r + 2], so
    // horizontal neighbours overlap at 2c + r + 2 and vertical ones on the
    // whole middle stretch (width 3 = pathwidth 2).
    let ivs = (0..g.vertex_count())
        .map(|v| {
            let (r, c) = (v / cols, v % cols);
            let lo = (2 * c + r) as u32;
            Interval::new(lo, lo + 2)
        })
        .collect();
    (g, rep_checked(ivs))
}

fn rep_checked(ivs: Vec<Interval>) -> IntervalRep {
    IntervalRep::new(ivs)
}

/// The standard families used by T1/T5/T9.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "path",
            make: path_family,
        },
        Family {
            name: "cycle",
            make: cycle_family,
        },
        Family {
            name: "caterpillar",
            make: caterpillar_family,
        },
        Family {
            name: "ladder",
            make: ladder_family,
        },
    ]
}

/// A theorem1 certifier for the benchmark families (widths ≤ 3, so a
/// 4-lane bound suffices — and keeps the interface arity inside the
/// freeze pass's cap, so the algebra table is total and every label size
/// the tables print is canonical: identical at any `--threads`).
pub(crate) fn theorem1_certifier(alg: SharedAlgebra) -> Certifier {
    Certifier::builder()
        .property(alg)
        .scheme(registry::THEOREM1)
        .max_lanes(4)
        .build()
        .expect("theorem1 spec is complete")
}

/// T1: label size (bits) vs n — this paper vs the `O(log² n)` baseline vs
/// the trivial whole-graph scheme, across the benchmark families. The
/// theorem1 and baseline columns come from full [`Engine`] sweeps
/// (prove + everywhere-verify, fanned over the context's workers; reports
/// are bit-identical to the sequential path); the trivial column only
/// measures the honest labeling's size.
pub fn table_t1(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let sizes: &[usize] = scale.pick(&[32usize, 128, 512, 2048], &[32usize, 128]);
    let mut out = String::from(
        "T1: max label bits vs n (property: connected)\n\
         family        n     ours  ours/log2(n)  baseline  base/log2^2(n)  trivial\n",
    );
    let ours = engine_for(ctx, theorem1_certifier(Algebra::shared(Connected)));
    let base = engine_for(
        ctx,
        Certifier::builder()
            .scheme(registry::FMR_BASELINE)
            .build()
            .expect("baseline needs no spec"),
    );
    // The trivial column only measures label size, so skip the algebra
    // predicate (evaluating it over an n-slot boundary per configuration
    // is quadratic and pure overhead here).
    let trivial = Certifier::from_scheme(Box::new(
        lanecert::simple::WholeGraphScheme::trivially_true(),
    ));
    for fam in families() {
        let cases: Vec<(Configuration, IntervalRep)> = sizes
            .iter()
            .map(|&n| {
                let (g, rep) = (fam.make)(n);
                (Configuration::with_random_ids(g, 7), rep)
            })
            .collect();
        let jobs = |cases: &[(Configuration, IntervalRep)]| {
            cases
                .iter()
                .map(|(cfg, rep)| {
                    BatchJob::new(cfg.clone())
                        .with_hint(ProverHint::with_representation(rep.clone()))
                })
                .collect::<Vec<_>>()
        };
        let ours_report = ours.run(jobs(&cases)).batch;
        let base_report = base.run(jobs(&cases)).batch;
        assert!(
            ours_report.all_accepted() && base_report.all_accepted(),
            "{}: ours [{}], baseline [{}]",
            fam.name,
            ours_report.summary(),
            base_report.summary(),
        );
        for (i, (cfg, _)) in cases.iter().enumerate() {
            let nn = cfg.n() as f64;
            let log2 = nn.log2();
            let ours_bits = ours_report.outcomes[i]
                .result
                .as_ref()
                .unwrap()
                .max_label_bits;
            let base_bits = base_report.outcomes[i]
                .result
                .as_ref()
                .unwrap()
                .max_label_bits;
            let triv_bits = trivial
                .certify(cfg)
                .expect("families are connected")
                .max_bits();
            out += &format!(
                "{:<12} {:>5}  {:>6}  {:>11.1}  {:>8}  {:>13.1}  {:>7}\n",
                fam.name,
                cfg.n(),
                ours_bits,
                ours_bits as f64 / log2,
                base_bits,
                base_bits as f64 / (log2 * log2),
                triv_bits,
            );
        }
    }
    out
}

/// T2: lanes used vs the `f(k)` bound (recursive partition) and the width
/// (greedy partition).
pub fn table_t2(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let n = scale.pick(60, 30);
    let mut out = String::from(
        "T2: lane counts vs bounds\nfamily        n   width k  greedy w  recursive w  f(k)\n",
    );
    for fam in families() {
        let (g, rep) = (fam.make)(n);
        let k = rep.width();
        let greedy = lanecert_lanes::partition::greedy_partition(&rep);
        let rl = recursive::recursive_partition(&g, &rep);
        out += &format!(
            "{:<12} {:>4}  {:>7}  {:>8}  {:>11}  {:>4}\n",
            fam.name,
            g.vertex_count(),
            k,
            greedy.lane_count(),
            rl.partition.lane_count(),
            bounds::f(k),
        );
    }
    out
}

/// T3: measured embedding congestion vs `g(k)`/`h(k)`.
pub fn table_t3(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let n = scale.pick(60, 30);
    let mut out = String::from(
        "T3: embedding congestion vs bounds (recursive partition)\n\
         family        n   k  weak  g(k)  full  h(k)\n",
    );
    for fam in families() {
        let (g, rep) = (fam.make)(n);
        let k = rep.width();
        let rl = recursive::recursive_partition(&g, &rep);
        let completion = Completion::build(&g, rl.partition.clone());
        let emb = recursive::embedding_from_paths(&g, &completion, &rl.e1_paths);
        let e1: Vec<_> = completion
            .virtual_edges()
            .filter(|e| completion.roles[e.index()].lane_step.is_some())
            .collect();
        let weak = emb.congestion_of(&g, &e1);
        let full = emb.congestion(&g);
        assert!(weak as u64 <= bounds::g(k) && full as u64 <= bounds::h(k));
        out += &format!(
            "{:<12} {:>4}  {:>2}  {:>4}  {:>4}  {:>4}  {:>4}\n",
            fam.name,
            g.vertex_count(),
            k,
            weak,
            bounds::g(k),
            full,
            bounds::h(k),
        );
    }
    out
}

/// T4: hierarchy depth vs the `2k` bound (Observation 5.5).
pub fn table_t4(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let n = scale.pick(60, 30);
    let mut out = String::from(
        "T4: hierarchical decomposition depth vs 2w\nfamily        n   lanes w  depth  2w\n",
    );
    for fam in families() {
        let (g, rep) = (fam.make)(n);
        let layout = Layout::build(&g, &rep, LaneStrategy::Greedy);
        let depth = layout.hierarchy.depth();
        let w = layout.lane_count();
        assert!(depth <= 2 * w);
        out += &format!(
            "{:<12} {:>4}  {:>7}  {:>5}  {:>3}\n",
            fam.name,
            g.vertex_count(),
            w,
            depth,
            2 * w,
        );
    }
    out
}

/// T5: prover/verifier wall-clock scaling (rough, single run per point),
/// timed through the erased certify/verify entry points — plus the
/// pool-sharded [`Engine::verify`] at the context's worker count.
pub fn table_t5(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let sizes: &[usize] = scale.pick(&[64usize, 256, 1024, 4096], &[64usize, 256]);
    let mut out = format!(
        "T5: runtime scaling (connected, path family; engine verify at {} workers)\n\
         n      prove(ms)  verify-all(ms)  par-verify(ms)  per-vertex(us)\n",
        ctx.threads,
    );
    let certifier = theorem1_certifier(Algebra::shared(Connected));
    let engine = engine_for(ctx, theorem1_certifier(Algebra::shared(Connected)));
    let clock = lanecert_obs::Clock::monotonic();
    for &n in sizes {
        let (g, rep) = path_family(n);
        let cfg = Arc::new(Configuration::with_random_ids(g, 3));
        let hint = ProverHint::with_representation(rep);
        let t0 = clock.now_ns();
        let labels = certifier.certify_with(&cfg, &hint).unwrap();
        let prove_ms = clock.seconds_since(t0) * 1e3;
        let t1 = clock.now_ns();
        let report = certifier.verify(&cfg, &labels).unwrap();
        let ver_ms = clock.seconds_since(t1) * 1e3;
        assert!(report.accepted());
        let t2 = clock.now_ns();
        let par_report = engine.verify(cfg, Arc::new(labels)).unwrap();
        let par_ms = clock.seconds_since(t2) * 1e3;
        assert_eq!(par_report, report, "engine verify must be bit-identical");
        out += &format!(
            "{:<6} {:>9.2}  {:>14.2}  {:>14.2}  {:>13.2}\n",
            n,
            prove_ms,
            ver_ms,
            par_ms,
            ver_ms * 1e3 / n as f64,
        );
    }
    out
}

/// T6: soundness fuzzing — typed corruptions (which must all be rejected)
/// plus wire-level bit flips through the erased layer.
pub fn table_t6(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let n = scale.pick(40, 24);
    let rounds = scale.pick(60, 30);
    let mut out = String::from(
        "T6: adversarial label corruption\n\
         family        property     typed-att  typed-rej  bitflip-att  bitflip-rej\n",
    );
    for (fam, alg) in [
        ("cycle", Algebra::shared(Bipartite)),
        ("ladder", Algebra::shared(Connected)),
        ("caterpillar", Algebra::shared(Forest)),
    ] {
        let f = families().into_iter().find(|f| f.name == fam).unwrap();
        let (g, rep) = (f.make)(n);
        let cfg = Configuration::with_random_ids(g, 11);
        let hint = ProverHint::with_representation(rep);
        let scheme = PathwidthScheme::new(
            alg,
            SchemeOptions {
                strategy: LaneStrategy::Greedy,
                max_lanes: 64,
            },
        );
        let labels = scheme.prove(&cfg, &hint).unwrap();
        let (attempted, rejected) = attacks::fuzz_scheme(&scheme, &cfg, &labels, 9, rounds);
        assert_eq!(attempted, rejected, "{fam}: corruption slipped through");
        // Same bytes as the typed labels above — no second prover pass.
        let encoded = lanecert::EncodedLabeling::encode(&labels);
        let (f_att, f_rej) = attacks::fuzz_encoded(&scheme, &cfg, &encoded, 13, rounds);
        out += &format!(
            "{:<12} {:<12} {:>9}  {:>9}  {:>11}  {:>11}\n",
            fam,
            scheme.algebra().name(),
            attempted,
            rejected,
            f_att,
            f_rej,
        );
    }
    out
}

/// T7: algebra verdict vs brute force vs the naive MSO₂ checker.
pub fn table_t7(_ctx: &RunCtx) -> String {
    use lanecert_mso::{eval, props};
    let mut out = String::from("T7: semantics agreement (algebra == brute force == MSO eval)\nproperty            graphs  agreements\n");
    let graphs: Vec<Graph> = vec![
        generators::path_graph(5),
        generators::cycle_graph(5),
        generators::cycle_graph(6),
        generators::star(5),
        generators::complete_graph(4),
        generators::complete_bipartite(2, 3),
    ];
    type Entry = (
        &'static str,
        SharedAlgebra,
        fn(&Graph) -> bool,
        lanecert_mso::Formula,
    );
    let cases: Vec<Entry> = vec![
        (
            "bipartite",
            Algebra::shared(Bipartite),
            oracles::bipartite,
            props::bipartite(),
        ),
        (
            "forest",
            Algebra::shared(Forest),
            oracles::forest,
            props::acyclic(),
        ),
        (
            "connected",
            Algebra::shared(Connected),
            oracles::connected,
            props::connected(),
        ),
        (
            "perfect-matching",
            Algebra::shared(PerfectMatching),
            oracles::perfect_matching,
            props::perfect_matching(),
        ),
        (
            "hamiltonian",
            Algebra::shared(HamiltonianCycle),
            oracles::hamiltonian_cycle,
            props::hamiltonian_cycle(),
        ),
    ];
    for (name, alg, oracle, formula) in cases {
        let mut agree = 0;
        for g in &graphs {
            // Evaluate the algebra by a linear build of the whole graph.
            let mut s = alg.empty();
            for _ in g.vertices() {
                s = alg.add_vertex(s);
            }
            for (_, e) in g.edges() {
                s = alg.add_edge(s, e.u.index(), e.v.index(), true);
            }
            let a = alg.accept(&s);
            let b = oracle(g);
            let c = eval::check(g, &formula);
            assert_eq!(a, b, "{name}: algebra vs brute force");
            assert_eq!(b, c, "{name}: brute force vs MSO");
            agree += 1;
        }
        out += &format!("{:<18} {:>7}  {:>10}\n", name, graphs.len(), agree);
    }
    out
}

/// T8: the `Ω(log n)` cut-and-splice attack — smallest label width where
/// no accepted cycle can be spliced.
pub fn table_t8(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let sizes: &[usize] = scale.pick(&[40usize, 100], &[40usize]);
    let mut out = String::from(
        "T8: pigeonhole splice attack on b-bit path certificates\nn     bits  spliced-cycle\n",
    );
    for &n in sizes {
        for bits in 2..=8u8 {
            let res = attacks::splice_attack(n, bits);
            out += &format!(
                "{:<5} {:>4}  {}\n",
                n,
                bits,
                res.map(|c| c.to_string()).unwrap_or_else(|| "none".into()),
            );
        }
    }
    out += "(attack succeeds exactly while 2^bits < n - 1: labels below log2 n bits are unsound)\n";
    out
}

/// T9 (ablation): greedy vs recursive lane strategy, selected through the
/// builder's `.strategy(...)` knob.
pub fn table_t9(ctx: &RunCtx) -> String {
    let scale = ctx.scale;
    let n = scale.pick(120, 60);
    let mut out = String::from(
        "T9: lane strategy ablation (connected)\n\
         family        n   strategy   lanes  congestion  max-label-bits\n",
    );
    for fam in families() {
        for strategy in [LaneStrategy::Greedy, LaneStrategy::Recursive] {
            let (g, rep) = (fam.make)(n);
            let cfg = Configuration::with_random_ids(g, 13);
            let layout = Layout::build(cfg.graph(), &rep, strategy);
            let congestion = layout.embedding.congestion(cfg.graph());
            // The recursive strategy's lane count follows the f(k)
            // relaxation, not the width, so this table keeps the
            // generous bound (sealed algebra — fine here: T9 proves
            // sequentially on a fresh instance, so its sizes are still
            // deterministic).
            let certifier = Certifier::builder()
                .property(Algebra::shared(Connected))
                .scheme(registry::THEOREM1)
                .strategy(strategy)
                .max_lanes(64)
                .representation(rep)
                .build()
                .unwrap();
            let report = certifier.run(&cfg).unwrap();
            assert!(report.accepted(), "{:?}", report.first_rejection());
            out += &format!(
                "{:<12} {:>4}  {:<9}  {:>5}  {:>10}  {:>14}\n",
                fam.name,
                cfg.n(),
                format!("{strategy:?}"),
                layout.lane_count(),
                congestion,
                report.max_label_bits,
            );
        }
    }
    out
}

/// Runs a dedicated traced engine sweep and writes the span log as JSONL
/// to `path` plus a collapsed-stack profile (flamegraph input) to
/// `path.collapsed`.
///
/// The corpus is sized for scheduling visibility, not speed: enough jobs
/// and a low shard threshold so every worker proves, verifies shards,
/// runs shards another worker spawned (a steal), and parks. CI asserts
/// the JSONL summary line's steals, parks and every worker's task count
/// nonzero (`lanecert-trace/2`). With the `obs` feature off the recorder is
/// compiled out; the files are still written (header + summary), and a
/// warning goes to stderr.
pub fn write_trace(path: &str, threads: usize) -> std::io::Result<()> {
    if !lanecert_obs::COMPILED {
        eprintln!(
            "warning: recorder compiled out (build with --features obs); \
             {path} will have no span events"
        );
    }
    let engine = Engine::builder()
        .certifier(theorem1_certifier(Algebra::shared(Connected)))
        .workers(threads)
        .shard_threshold(32)
        .trace(lanecert_obs::TraceConfig::new())
        .build()
        .expect("spec is complete");
    let mut jobs: Vec<BatchJob> = Vec::new();
    for fam in families() {
        for n in [128usize, 256, 384] {
            for seed in 1u64..=3 {
                let (g, rep) = (fam.make)(n);
                jobs.push(
                    BatchJob::new(Configuration::with_random_ids(g, seed))
                        .with_hint(ProverHint::with_representation(rep))
                        .named(format!("{}/{n}/{seed}", fam.name)),
                );
            }
        }
    }
    let report = engine.run(jobs);
    assert!(
        report.batch.all_accepted(),
        "trace corpus must certify cleanly: {}",
        report.batch.summary()
    );
    let log = report.trace.as_ref().expect("engine ran with .trace()");
    let obs = report.batch.obs.as_ref();
    std::fs::write(path, log.to_jsonl(obs))?;
    std::fs::write(format!("{path}.collapsed"), log.to_collapsed())?;
    if let Some(obs) = obs {
        let pool = obs.pool.as_ref().expect("engine attaches pool stats");
        eprintln!(
            "wrote {path} ({} span events) and {path}.collapsed; pool: {} tasks, {} steals, {} parks",
            log.event_count(),
            pool.total_tasks(),
            pool.steals,
            pool.parks,
        );
    } else {
        eprintln!("wrote {path} and {path}.collapsed");
    }
    Ok(())
}

/// A table renderer: `(name, render)`.
pub type Table = (&'static str, fn(&RunCtx) -> String);

/// All tables in order.
pub fn all_tables() -> Vec<Table> {
    vec![
        ("t1", table_t1),
        ("t2", table_t2),
        ("t3", table_t3),
        ("t4", table_t4),
        ("t5", table_t5),
        ("t6", table_t6),
        ("t7", table_t7),
        ("t8", table_t8),
        ("t9", table_t9),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_pathwidth::solver;

    #[test]
    fn families_are_valid() {
        for fam in families() {
            for n in [20usize, 61] {
                let (g, rep) = (fam.make)(n);
                rep.validate(&g)
                    .unwrap_or_else(|e| panic!("{}: {e}", fam.name));
                assert!(lanecert_graph::components::is_connected(&g));
                // Widths match the known pathwidths of the families (≤ 3).
                assert!(rep.width() <= 3, "{}", fam.name);
            }
        }
    }

    #[test]
    fn family_widths_match_exact_solver() {
        for fam in families() {
            let (g, rep) = (fam.make)(18);
            let (pw, _) = solver::pathwidth_exact(&g).unwrap();
            assert!(rep.width() > pw, "{}", fam.name);
        }
    }

    #[test]
    fn small_tables_run() {
        // The cheap tables execute end to end (their asserts are the test).
        let ctx = RunCtx::new(Scale::Quick).with_threads(2);
        for (name, f) in all_tables() {
            if ["t2", "t3", "t4", "t7"].contains(&name) {
                let s = f(&ctx);
                assert!(!s.is_empty());
            }
        }
    }

    #[test]
    fn quick_scale_certification_tables_run() {
        // The API-heavy tables at CI scale: T1 (engine sweeps across all
        // three registry schemes), T6 (typed + wire-level fuzzing), T9
        // (builder strategy ablation).
        let ctx = RunCtx::new(Scale::Quick).with_threads(2);
        for (name, f) in all_tables() {
            if ["t1", "t6", "t9"].contains(&name) {
                let s = f(&ctx);
                assert!(!s.is_empty(), "{name}");
            }
        }
    }
}
