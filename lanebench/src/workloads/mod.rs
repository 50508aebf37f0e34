//! The four workloads and what they share: the run context, the
//! workload interface the run loop in `main.rs` drives, and the
//! certify-then-verify-cold pass of `prove-large` and `compiled`.

use lanecert::Certifier;

use crate::harness::{growth, on_fresh_thread, timed, Sample, Tally};
use crate::inputs::Instance;

pub mod batch_stream;
pub mod compiled;
pub mod prove_large;
pub mod reverify;

/// What a run was asked to do.
pub struct Ctx {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// `true` for the self-test: tiny inputs, same code paths.
    pub tiny: bool,
    /// `true` when passes alternate with traced ones.
    pub trace: bool,
}

impl Ctx {
    /// `full` normally, `tiny` in the self-test.
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// A workload: untimed set-up (scheme construction, engine build,
/// inputs, warm-up), then timed passes until the run's time is up.
pub trait Workload: Sized {
    /// `true` when the timed work runs on one thread, so the background
    /// speed sampler can use the other core (see `harness::timed`).
    const SAMPLED: bool = true;

    /// Builds schemes, engines and inputs, and warms up on inputs whose
    /// seeds the timed passes never use.
    fn setup(ctx: &Ctx, tally: &mut Tally) -> Self;

    /// One timed pass. Returns its end-to-end sample; a traced pass
    /// also runs the per-layer probes and adds their metrics.
    fn pass(&mut self, traced: bool, tally: &mut Tally) -> Sample;

    /// End-to-end metrics measured during set-up; a run reports their
    /// medians over its set-ups, as for `setup_s`.
    fn setup_sample(&self) -> Sample {
        Sample::new()
    }

    /// Checks that run once after timing, and the end-to-end metrics
    /// they measure.
    fn finish(&mut self, _tally: &mut Tally) -> Sample {
        Sample::new()
    }
}

/// Certifies each instance with `Certifier::certify_with`, then verifies
/// the labels with `Certifier::verify` on a fresh thread (so the
/// verifier's per-thread memo starts cold). Checks that every honest
/// labeling is accepted and that the report's label size equals the
/// labeling's.
pub fn certify_verify(
    items: &[(&Certifier, &Instance)],
    [lo, hi]: [usize; 2],
    tally: &mut Tally,
) -> Sample {
    let (mut prove_s, mut verify_s) = (0.0, 0.0);
    let (mut lo_s, mut hi_s, mut lo_v, mut hi_v) = (0.0, 0.0, 0usize, 0usize);
    let (mut vertices, mut max_bits, mut total_bits, mut edges) = (0usize, 0usize, 0usize, 0usize);
    for (certifier, inst) in items {
        let n = inst.n;
        let what = || format!("{}/n{}", inst.family, n);
        let (labels, dt) = {
            let _span = lanecert_obs::span!("bench.certify", n = n);
            timed(|| certifier.certify_with(&inst.cfg, &inst.hint))
        };
        prove_s += dt;
        let v = inst.cfg.n();
        if n == lo {
            (lo_s, lo_v) = (lo_s + dt, lo_v + v);
        } else if n == hi {
            (hi_s, hi_v) = (hi_s + dt, hi_v + v);
        }
        let labels = match labels {
            Ok(labels) => labels,
            Err(e) => {
                tally.check(false, || format!("{}: certify failed: {e}", what()));
                continue;
            }
        };
        tally.check(true, String::new);
        let (report, dt) = on_fresh_thread(|| {
            let _span = lanecert_obs::span!("bench.verify", n = n);
            timed(|| certifier.verify(&inst.cfg, &labels))
        });
        verify_s += dt;
        let ok = report.as_ref().is_ok_and(|r| r.accepted());
        tally.check(ok, || format!("{}: honest labeling not accepted", what()));
        if let Ok(r) = &report {
            tally.check(r.max_label_bits == labels.max_bits(), || {
                format!("{}: report and labeling disagree on label bits", what())
            });
        }
        vertices += v;
        max_bits = max_bits.max(labels.max_bits());
        total_bits += labels.total_bits();
        edges += labels.len();
    }
    let jobs = items.len() as f64;
    Sample::from([
        ("prove_vps", vertices as f64 / prove_s),
        ("prove_growth", growth(lo_v as f64, lo_s, hi_v as f64, hi_s)),
        ("verify_vps", vertices as f64 / verify_s),
        ("pipeline_vps", vertices as f64 / (prove_s + verify_s)),
        ("jobs_per_s", jobs / (prove_s + verify_s)),
        ("max_label_bits", max_bits as f64),
        ("mean_label_bits", total_bits as f64 / edges.max(1) as f64),
    ])
}
