//! `prove-large`: hinted path, ladder and random pathwidth-2 instances
//! at two sizes, each certified once and verified once from cold per
//! pass. The quadratic `lanes` stages and the `core` label stage do most
//! of the work; the solver and the engine do nothing.

use lanecert::theorem1::{PathwidthScheme, SchemeOptions};
use lanecert::Certifier;
use lanecert_algebra::props::Connected;
use lanecert_algebra::Algebra;
use lanecert_engine::CorpusFamily;

use super::{certify_verify, Ctx, Workload};
use crate::harness::{traced, Sample, Tally};
use crate::inputs::{family_instance, random_pw2, seeds, Instance, Set};
use crate::layers;

/// Pathwidth the certifier accepts (the families have pathwidth ≤ 2).
const PATHWIDTH: usize = 2;

/// The workload's state after set-up.
pub struct ProveLarge {
    certifier: Certifier,
    scheme: PathwidthScheme,
    insts: Vec<Instance>,
    sizes: [usize; 2],
}

fn families() -> [CorpusFamily; 3] {
    [CorpusFamily::Path, CorpusFamily::Ladder, random_pw2()]
}

/// The Theorem 1 `connected` certifier and its typed scheme, after an
/// explicit (spanned) freeze that the builder then finds in the cache.
pub fn connected_scheme() -> (Certifier, PathwidthScheme) {
    layers::freeze_connected(PATHWIDTH + 1);
    let certifier = Certifier::builder()
        .property(Algebra::shared(Connected))
        .pathwidth(PATHWIDTH)
        .build()
        .expect("theorem1 connected certifier");
    let scheme = PathwidthScheme::new(
        Algebra::shared(Connected),
        SchemeOptions::exact_pathwidth(PATHWIDTH),
    );
    (certifier, scheme)
}

impl Workload for ProveLarge {
    fn setup(ctx: &Ctx, tally: &mut Tally) -> Self {
        let sizes = ctx.pick([512, 2048], [48, 96]);
        let (certifier, scheme) = connected_scheme();
        let mut insts = Vec::new();
        for n in sizes {
            for (i, family) in families().iter().enumerate() {
                insts.push(family_instance(
                    family,
                    n,
                    seeds(ctx.seed, Set::Timed, i as u64),
                    true,
                ));
            }
        }
        let warm: Vec<Instance> = families()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                family_instance(f, sizes[0], seeds(ctx.seed, Set::Warmup, i as u64), true)
            })
            .collect();
        let items: Vec<_> = warm.iter().map(|inst| (&certifier, inst)).collect();
        certify_verify(&items, sizes, tally);
        ProveLarge {
            certifier,
            scheme,
            insts,
            sizes,
        }
    }

    fn pass(&mut self, traced_pass: bool, tally: &mut Tally) -> Sample {
        let items: Vec<_> = self.insts.iter().map(|i| (&self.certifier, i)).collect();
        if !traced_pass {
            return certify_verify(&items, self.sizes, tally);
        }
        let (mut sample, trace) = traced(|| {
            let sample = certify_verify(&items, self.sizes, tally);
            for inst in &self.insts {
                layers::prover(inst, &self.scheme, &self.certifier, tally);
            }
            sample
        });
        sample.extend(layers::metrics(&trace, self.sizes[0], self.sizes[1]));
        sample
    }
}
