//! `compiled`: the catalog formulas `connected` and `independent-set-2`
//! compiled from MSO₂, certified hintless on their witness graphs at two
//! sizes and verified from cold. `mso` and `algebra` dominate: the
//! freeze in set-up, and automaton operations in prove and verify.

use lanecert::compiled::standard_formula;
use lanecert::theorem1::PathwidthScheme;
use lanecert::{Certifier, Configuration, ProverHint};
use lanecert_engine::FormulaCorpus;

use super::{certify_verify, Ctx, Workload};
use crate::harness::{traced, Sample, Tally};
use crate::inputs::{seeds, Instance, Set};
use crate::layers;

/// The catalog formulas this workload certifies.
const FORMULAS: [&str; 2] = ["connected", "independent-set-2"];

/// One compiled formula: its certifier, the typed scheme the probes
/// drive, and its timed instances.
struct Formula {
    certifier: Certifier,
    scheme: PathwidthScheme,
    insts: Vec<Instance>,
}

/// The workload's state after set-up.
pub struct Compiled {
    formulas: Vec<Formula>,
    sizes: [usize; 2],
}

/// A hintless witness instance of the named formula.
fn witness(name: &'static str, n: usize, seed: u64) -> Instance {
    let cfg = Configuration::with_random_ids(FormulaCorpus::witness(name, n), seed);
    cfg.csr();
    Instance {
        family: name,
        n,
        cfg,
        hint: ProverHint::auto(),
    }
}

impl Workload for Compiled {
    fn setup(ctx: &Ctx, tally: &mut Tally) -> Self {
        let sizes = ctx.pick([64, 256], [24, 48]);
        let mut formulas = Vec::new();
        for (i, name) in FORMULAS.into_iter().enumerate() {
            let entry = standard_formula(name).expect("catalog formula");
            layers::freeze_compiled(entry, tally);
            let built = Certifier::builder().compiled(entry.formula()).build();
            let (Ok(certifier), Ok(scheme)) = (built, entry.scheme()) else {
                tally.check(false, || format!("{name}: scheme construction failed"));
                continue;
            };
            let insts = sizes
                .iter()
                .map(|&n| witness(name, n, seeds(ctx.seed, Set::Timed, i as u64).1))
                .collect();
            let warm = witness(name, sizes[0], seeds(ctx.seed, Set::Warmup, i as u64).1);
            certify_verify(&[(&certifier, &warm)], sizes, tally);
            formulas.push(Formula {
                certifier,
                scheme,
                insts,
            });
        }
        Compiled { formulas, sizes }
    }

    fn pass(&mut self, traced_pass: bool, tally: &mut Tally) -> Sample {
        let items: Vec<_> = self
            .formulas
            .iter()
            .flat_map(|f| f.insts.iter().map(move |i| (&f.certifier, i)))
            .collect();
        if !traced_pass {
            return certify_verify(&items, self.sizes, tally);
        }
        let (mut sample, trace) = traced(|| {
            let sample = certify_verify(&items, self.sizes, tally);
            for f in &self.formulas {
                for inst in &f.insts {
                    layers::prover(inst, &f.scheme, &f.certifier, tally);
                }
            }
            sample
        });
        sample.extend(layers::metrics(&trace, self.sizes[0], self.sizes[1]));
        sample
    }
}
