//! `batch-stream`: `Engine::run` at 1 and then 2 workers over the five
//! benchmark families × three sizes × eight seeds, plus caterpillar and
//! random pathwidth-2 jobs with the representation stripped, so the
//! solver runs on each. Measures per-job fixed cost, pool scheduling,
//! verify sharding and the hint ladder; the quadratic stages do little.

use std::collections::BTreeMap;

use lanecert::theorem1::PathwidthScheme;
use lanecert::{BatchReport, Certifier};
use lanecert_engine::{CorpusFamily, CorpusSpec, Engine, EngineReport, Throughput};
use lanecert_obs::{HistogramSummary, ObsReport, TraceConfig};

use super::prove_large::connected_scheme;
use super::{Ctx, Workload};
use crate::harness::{
    growth, reference_seconds, reference_seconds_2, traced, Sample, Tally, REFERENCE_UNIT_S,
};
use crate::inputs::{family_instance, random_pw2, seeds, Instance, Set};
use crate::layers;

/// Seeds per family and size (also the hintless jobs per stripped
/// family). Each seed is one slice of the corpus: pass `p` runs slice
/// `p mod SEEDS`, so passes stay short and a run takes the median of many.
const SEEDS: u64 = 8;

/// The workload's state after set-up.
pub struct BatchStream {
    one: Engine,
    two: Engine,
    /// The 2-worker engine with tracing on, for the traced passes.
    two_traced: Option<Engine>,
    certifier: Certifier,
    scheme: PathwidthScheme,
    /// Timed jobs: `slices[s][k]` holds seed `s`'s jobs at the `k`-th
    /// size, run as one `Engine::run`.
    slices: Vec<Vec<Vec<Instance>>>,
    sizes: [usize; 3],
    passes: usize,
    /// Label bits per job of each slice run, for the final check.
    bits: BTreeMap<usize, Vec<Vec<usize>>>,
}

fn engine(workers: usize, trace: bool) -> Engine {
    let (certifier, _) = connected_scheme();
    let builder = Engine::builder().certifier(certifier).workers(workers);
    let builder = if trace {
        builder.trace(TraceConfig::new())
    } else {
        builder
    };
    builder.build().expect("engine")
}

/// Stripped families: instances carry no representation.
fn stripped() -> [CorpusFamily; 2] {
    [CorpusFamily::Caterpillar, random_pw2()]
}

/// One group's jobs: every benchmark family at size `n` with the given
/// seeds, plus the stripped families when `hintless`.
fn group(n: usize, seeds: (u64, u64), hintless: bool) -> Vec<Instance> {
    let hinted = CorpusSpec::benchmark_families()
        .into_iter()
        .map(|f| family_instance(&f, n, seeds, true));
    let stripped = stripped()
        .into_iter()
        .filter(|_| hintless)
        .map(|f| family_instance(&f, n, seeds, false));
    hinted.chain(stripped).collect()
}

/// Checks every outcome: certified and accepted everywhere.
fn check(report: &BatchReport, tally: &mut Tally) -> Vec<usize> {
    report
        .outcomes
        .iter()
        .map(|o| {
            let ok = o.result.as_ref().is_ok_and(|r| r.accepted());
            tally.check(ok, || format!("{}: job not accepted", o.name));
            o.result.as_ref().map_or(0, |r| r.max_label_bits)
        })
        .collect()
}

/// Totals of one worker count's runs over all groups.
#[derive(Default)]
struct Side {
    wall: f64,
    prove: f64,
    vertices: usize,
    jobs: usize,
    /// Mean prove seconds and vertices per job at the smallest and
    /// largest size.
    ends: [(f64, f64); 2],
}

impl Side {
    /// Adds one run, its times multiplied by `scale` (see
    /// [`harness::timed`](crate::harness::timed)).
    fn add(&mut self, report: &EngineReport, end: Option<usize>, scale: f64) {
        let t = &report.throughput;
        self.wall += t.wall_seconds * scale;
        self.prove += t.prove_seconds * scale;
        self.vertices += t.vertices;
        self.jobs += t.jobs;
        if let Some(k) = end {
            let jobs = t.jobs.max(1) as f64;
            self.ends[k] = (t.prove_seconds * scale / jobs, t.vertices as f64 / jobs);
        }
    }
}

/// Median of a power-of-two-bucket histogram, interpolated inside the
/// bucket that holds it, in milliseconds.
fn p50_ms(hist: &HistogramSummary) -> f64 {
    let half = hist.count as f64 / 2.0;
    let mut seen = 0.0;
    for &(bound, count) in &hist.buckets {
        let lower = (bound / 2) as f64;
        if seen + count as f64 >= half {
            let frac = (half - seen) / count as f64;
            return (lower + frac * (bound as f64 - lower)) / 1e6;
        }
        seen += count as f64;
    }
    0.0
}

/// Adds one histogram's buckets into an accumulated one.
fn merge(into: &mut HistogramSummary, h: &HistogramSummary) {
    into.count += h.count;
    into.sum += h.sum;
    for &(bound, count) in &h.buckets {
        match into.buckets.iter_mut().find(|(b, _)| *b == bound) {
            Some(slot) => slot.1 += count,
            None => into.buckets.push((bound, count)),
        }
    }
    into.buckets.sort_unstable();
}

impl Workload for BatchStream {
    const SAMPLED: bool = false;

    fn setup(ctx: &Ctx, tally: &mut Tally) -> Self {
        let sizes = ctx.pick([64, 256, 1024], [16, 32, 48]);
        let (certifier, scheme) = connected_scheme();
        let (one, two) = (engine(1, false), engine(2, false));
        let two_traced = ctx.trace.then(|| engine(2, true));
        let slices = (0..SEEDS)
            .map(|s| {
                let seeds = seeds(ctx.seed, Set::Timed, s);
                sizes.map(|n| group(n, seeds, n == sizes[1])).to_vec()
            })
            .collect();
        // Warm-up: every engine runs the smaller sizes on warm-up seeds.
        let warm: Vec<Instance> = sizes[..2]
            .iter()
            .flat_map(|&n| group(n, seeds(ctx.seed, Set::Warmup, 0), true))
            .collect();
        for e in [&one, &two].into_iter().chain(two_traced.as_ref()) {
            check(&e.run(warm.iter().map(Instance::job)).batch, tally);
        }
        BatchStream {
            one,
            two,
            two_traced,
            certifier,
            scheme,
            slices,
            sizes,
            passes: 0,
            bits: BTreeMap::new(),
        }
    }

    fn pass(&mut self, traced_pass: bool, tally: &mut Tally) -> Sample {
        let two = match (&self.two_traced, traced_pass) {
            (Some(e), true) => e,
            _ => &self.two,
        };
        let slice = self.passes % self.slices.len();
        self.passes += 1;
        let groups = &self.slices[slice];
        let last = groups.len() - 1;
        let (mut sides, mut obs) = ([Side::default(), Side::default()], Vec::new());
        let mut bits = Vec::new();
        for (w, engine) in [&self.one, two].into_iter().enumerate() {
            for (k, insts) in groups.iter().enumerate() {
                let jobs: Vec<_> = insts.iter().map(Instance::job).collect();
                // One worker runs on one core, two on both: normalize each
                // run by the reference speed of the cores it used.
                let speed = [reference_seconds, reference_seconds_2][w];
                let before = speed();
                let report = engine.run(jobs);
                let scale = REFERENCE_UNIT_S * 2.0 / (before + speed());
                let got = check(&report.batch, tally);
                if w == 0 {
                    bits.push(got);
                } else {
                    tally.check(got == bits[k], || {
                        format!("group {k}: 1- and 2-worker label bits differ")
                    });
                }
                let end = [0, last].iter().position(|&e| e == k);
                sides[w].add(&report, end, scale);
                if let Some(o) = report.batch.obs {
                    obs.push((o, report.throughput));
                }
            }
        }
        self.bits.insert(slice, bits);
        // End-to-end metrics come from the 2-worker runs: both cores are
        // busy there, as in the reference measured around them. The
        // 1-worker runs give the scaling efficiency.
        let [s1, s2] = &sides;
        let mut sample = Sample::from([
            ("prove_vps", s2.vertices as f64 / s2.prove),
            (
                "prove_growth",
                growth(s2.ends[0].1, s2.ends[0].0, s2.ends[1].1, s2.ends[1].0),
            ),
            (
                "verify_vps",
                s2.vertices as f64 / (2.0 * s2.wall - s2.prove),
            ),
            ("pipeline_vps", s2.vertices as f64 / s2.wall),
            ("jobs_per_s", s2.jobs as f64 / s2.wall),
            (
                "engine.scale_eff",
                (s2.vertices as f64 / s2.wall) / (2.0 * s1.vertices as f64 / s1.wall),
            ),
        ]);
        if traced_pass {
            sample.extend(engine_metrics(&obs));
            let ((), trace) = traced(|| {
                for inst in groups.iter().flatten() {
                    layers::prover(inst, &self.scheme, &self.certifier, tally);
                }
            });
            sample.extend(layers::metrics(&trace, self.sizes[0], self.sizes[2]));
        }
        sample
    }

    fn finish(&mut self, tally: &mut Tally) -> Sample {
        // Certify every job of every slice directly: each job the engine
        // ran must report the label size of the labeling a direct
        // certification produces, and the label-size metrics cover the
        // whole corpus whichever slices the passes reached.
        let (mut max_bits, mut total_bits, mut edges) = (0usize, 0usize, 0usize);
        for (slice, groups) in self.slices.iter().enumerate() {
            let mut direct = Vec::new();
            for inst in groups.iter().flatten() {
                let labels = self.certifier.certify_with(&inst.cfg, &inst.hint);
                tally.check(labels.is_ok(), || {
                    format!("{}/n{}: certify failed", inst.family, inst.n)
                });
                let labels = labels.unwrap_or_default();
                max_bits = max_bits.max(labels.max_bits());
                total_bits += labels.total_bits();
                edges += labels.len();
                direct.push(labels.max_bits());
            }
            if let Some(reported) = self.bits.get(&slice) {
                tally.check(direct == reported.concat(), || {
                    format!("slice {slice}: engine and direct label bits differ")
                });
            }
        }
        Sample::from([
            ("max_label_bits", max_bits as f64),
            ("mean_label_bits", total_bits as f64 / edges.max(1) as f64),
        ])
    }
}

/// Engine metrics from the traced 2-worker runs' `ObsReport`s.
fn engine_metrics(runs: &[(ObsReport, Throughput)]) -> Sample {
    let (mut prove_cpu, mut busy_wall, mut steals, mut parks, mut tasks) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let empty = |name: &str| HistogramSummary {
        name: name.into(),
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        buckets: Vec::new(),
    };
    let (mut prove_h, mut verify_h) = (empty("prove_ns"), empty("verify_ns"));
    for (obs, t) in runs {
        prove_cpu += t.prove_seconds;
        busy_wall += t.wall_seconds * t.workers as f64;
        if let Some(p) = &obs.pool {
            steals += p.steals as f64;
            parks += p.parks as f64;
            tasks += p.total_tasks() as f64;
        }
        if let Some(h) = obs.histogram(lanecert_obs::names::PROVE_NS) {
            merge(&mut prove_h, h);
        }
        if let Some(h) = obs.histogram(lanecert_obs::names::VERIFY_NS) {
            merge(&mut verify_h, h);
        }
    }
    Sample::from([
        ("engine.prove_cpu_s", prove_cpu),
        ("engine.busy_frac", prove_cpu / busy_wall),
        ("engine.steals", steals),
        ("engine.parks", parks),
        ("engine.tasks", tasks),
        ("engine.prove_p50_ms", p50_ms(&prove_h)),
        ("engine.verify_p50_ms", p50_ms(&verify_h)),
    ])
}
