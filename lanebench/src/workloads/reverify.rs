//! `reverify`: standing certificates re-verified, as in self-stabilizing
//! use. Labelings are proven during set-up; each pass verifies every one
//! of them again through `Certifier::verify` on this one thread, and a
//! fixed share of the verifications use tampered copies that must
//! reject. The verifier does all the timed work.

use lanecert::theorem1::PathwidthScheme;
use lanecert::{Certifier, EncodedLabeling};
use lanecert_engine::CorpusFamily;

use super::prove_large::connected_scheme;
use super::{Ctx, Workload};
use crate::harness::{
    counter, growth, on_fresh_thread, span_seconds, span_total, timed, traced, Sample, SplitMix,
    Tally,
};
use crate::inputs::{family_instance, random_pw2, seeds, Instance, Set};
use crate::layers;

/// Honest verifications per tampered one in each pass.
const HONEST_PER_TAMPERED: usize = 3;

/// Tampered copies kept per standing labeling; pass `p` uses copy
/// `p mod TAMPERED`.
const TAMPERED: usize = 4;

/// One standing certificate and its tampered copies.
struct Standing {
    inst: Instance,
    labels: EncodedLabeling,
    tampered: Vec<EncodedLabeling>,
}

/// The workload's state after set-up.
pub struct Reverify {
    certifier: Certifier,
    scheme: PathwidthScheme,
    standing: Vec<Standing>,
    sizes: [usize; 2],
    passes: usize,
    /// End-to-end prover metrics, measured while proving in set-up.
    prove: Sample,
}

/// Tampered copies of `labels` that the verifier rejects: label swaps
/// (`EncodedLabeling::set`) and bit flips (`flip_bit`), alternating.
/// Each candidate is checked on a separate thread, so the timed thread's
/// verifier memo never sees it.
fn tamper(
    certifier: &Certifier,
    inst: &Instance,
    labels: &EncodedLabeling,
    rng: &mut SplitMix,
) -> Vec<EncodedLabeling> {
    let m = labels.len();
    let mut out = Vec::new();
    for attempt in 0..16 * TAMPERED {
        if out.len() == TAMPERED || m < 2 {
            break;
        }
        let mut copy = labels.clone();
        let i = rng.below(m);
        if attempt % 2 == 0 {
            let j = (i + 1 + rng.below(m - 1)) % m;
            if labels.get(i) == labels.get(j) {
                continue;
            }
            copy.set(i, &labels.get(j).to_label());
        } else {
            copy.flip_bit(i, rng.below(labels.get(i).bits.max(1)));
        }
        let rejects =
            on_fresh_thread(|| certifier.verify(&inst.cfg, &copy)).is_ok_and(|r| !r.accepted());
        if rejects {
            out.push(copy);
        }
    }
    out
}

impl Workload for Reverify {
    fn setup(ctx: &Ctx, tally: &mut Tally) -> Self {
        let sizes = ctx.pick([512, 2048], [48, 96]);
        let (certifier, scheme) = connected_scheme();
        let families = [CorpusFamily::Path, CorpusFamily::Ladder, random_pw2()];
        // Warm-up: prove and verify inputs the passes never see.
        for (i, family) in families.iter().enumerate() {
            let warm = family_instance(
                family,
                sizes[0],
                seeds(ctx.seed, Set::Warmup, i as u64),
                true,
            );
            let ok = certifier
                .certify_with(&warm.cfg, &warm.hint)
                .and_then(|l| certifier.verify(&warm.cfg, &l))
                .is_ok_and(|r| r.accepted());
            tally.check(ok, || format!("warm-up {}/n{} failed", warm.family, warm.n));
        }
        let mut rng = SplitMix(ctx.seed);
        let mut standing = Vec::new();
        let (mut times, mut vertices) = ([0.0; 2], [0usize; 2]);
        for (k, n) in sizes.into_iter().enumerate() {
            for (i, family) in families.iter().enumerate() {
                let inst = family_instance(family, n, seeds(ctx.seed, Set::Timed, i as u64), true);
                let (labels, dt) = timed(|| certifier.certify_with(&inst.cfg, &inst.hint));
                let Ok(labels) = labels else {
                    tally.check(false, || format!("{}/n{n}: certify failed", inst.family));
                    continue;
                };
                tally.check(true, String::new);
                times[k] += dt;
                vertices[k] += inst.cfg.n();
                let tampered = tamper(&certifier, &inst, &labels, &mut rng);
                tally.check(tampered.len() == TAMPERED, || {
                    format!("{}/n{n}: too few rejecting tampered copies", inst.family)
                });
                standing.push(Standing {
                    inst,
                    labels,
                    tampered,
                });
            }
        }
        let prove = Sample::from([
            (
                "prove_vps",
                (vertices[0] + vertices[1]) as f64 / (times[0] + times[1]),
            ),
            (
                "prove_growth",
                growth(vertices[0] as f64, times[0], vertices[1] as f64, times[1]),
            ),
        ]);
        Reverify {
            certifier,
            scheme,
            standing,
            sizes,
            passes: 0,
            prove,
        }
    }

    fn pass(&mut self, traced_pass: bool, tally: &mut Tally) -> Sample {
        let copy = self.passes % TAMPERED;
        self.passes += 1;
        let body = |tally: &mut Tally| {
            let (mut seconds, mut vertices, mut jobs) = (0.0, 0usize, 0usize);
            let (mut max_bits, mut total_bits, mut edges) = (0usize, 0usize, 0usize);
            for s in &self.standing {
                let (cfg, n) = (&s.inst.cfg, s.inst.n);
                let what = || format!("{}/n{n}", s.inst.family);
                for _ in 0..HONEST_PER_TAMPERED {
                    let (report, dt) = {
                        let _span = lanecert_obs::span!("core.verify_honest", n = n);
                        timed(|| self.certifier.verify(cfg, &s.labels))
                    };
                    seconds += dt;
                    tally.check(report.is_ok_and(|r| r.accepted()), || {
                        format!("{}: standing labeling not accepted", what())
                    });
                }
                if let Some(bad) = s.tampered.get(copy) {
                    let (report, dt) = {
                        let _span = lanecert_obs::span!("core.verify_tampered", n = n);
                        timed(|| self.certifier.verify(cfg, bad))
                    };
                    seconds += dt;
                    let rejecting = report.as_ref().map_or(0, |r| r.reject_count());
                    lanecert_obs::counter_add("core.rejecting_vertices", rejecting as u64);
                    tally.check(rejecting > 0, || {
                        format!("{}: tampered labeling accepted", what())
                    });
                }
                vertices += (HONEST_PER_TAMPERED + 1) * cfg.n();
                jobs += HONEST_PER_TAMPERED + 1;
                max_bits = max_bits.max(s.labels.max_bits());
                total_bits += s.labels.total_bits();
                edges += s.labels.len();
            }
            Sample::from([
                ("verify_vps", vertices as f64 / seconds),
                ("pipeline_vps", vertices as f64 / seconds),
                ("jobs_per_s", jobs as f64 / seconds),
                ("max_label_bits", max_bits as f64),
                ("mean_label_bits", total_bits as f64 / edges.max(1) as f64),
            ])
        };
        if !traced_pass {
            return body(tally);
        }
        let (mut sample, trace) = traced(|| {
            let sample = body(tally);
            for s in &self.standing {
                layers::prover(&s.inst, &self.scheme, &self.certifier, tally);
            }
            sample
        });
        sample.extend(layers::metrics(&trace, self.sizes[0], self.sizes[1]));
        let spans = span_seconds(&trace);
        sample.insert(
            "core.verify_honest_s",
            span_total(&spans, "core.verify_honest"),
        );
        sample.insert(
            "core.verify_tampered_s",
            span_total(&spans, "core.verify_tampered"),
        );
        sample.insert(
            "core.rejecting_vertices",
            counter(&trace, "core.rejecting_vertices"),
        );
        sample
    }

    fn setup_sample(&self) -> Sample {
        self.prove.clone()
    }
}
