//! Input generation. Every input is a pure function of the workload
//! seed; warm-up inputs come from a disjoint seed range, so no timed
//! input is ever seen before its timed series starts.

use lanecert::{BatchJob, Configuration, ProverHint};
use lanecert_engine::CorpusFamily;

/// Offset separating warm-up seeds from timed seeds.
const WARMUP_SEEDS: u64 = 1 << 40;

/// One certification instance.
#[derive(Clone)]
pub struct Instance {
    /// Family name, for failure notes.
    pub family: &'static str,
    /// Requested size (the family may round it; `cfg.n()` is exact).
    pub n: usize,
    /// The network.
    pub cfg: Configuration,
    /// The prover hint (a known representation, or automatic).
    pub hint: ProverHint,
}

impl Instance {
    /// This instance as an engine job.
    pub fn job(&self) -> BatchJob {
        BatchJob::new(self.cfg.clone())
            .with_hint(self.hint.clone())
            .named(format!("{}/n{}", self.family, self.n))
    }
}

/// The input sets of a run.
#[derive(Clone, Copy)]
pub enum Set {
    /// Inputs the timed passes measure.
    Timed,
    /// Inputs the untimed warm-up runs on (disjoint from the timed ones).
    Warmup,
}

/// `(graph seed, identifier seed)` of the `i`-th input of `set` in the
/// run with seed `run`. The graph seed is fixed per input, so every run
/// measures the same graphs: with per-run random graphs, label sizes and
/// prove times moved by 10–20 % from seed to seed. The identifiers come
/// from the run seed.
pub fn seeds(run: u64, set: Set, i: u64) -> (u64, u64) {
    let base = match set {
        Set::Timed => 0,
        Set::Warmup => WARMUP_SEEDS,
    };
    (base | i, base | run.wrapping_mul(1 << 16).wrapping_add(i))
}

/// A corpus-family instance with the given `(graph, identifier)` seeds;
/// `hinted: false` strips the representation so the prover resolves one
/// itself.
pub fn family_instance(
    family: &CorpusFamily,
    n: usize,
    (graph_seed, id_seed): (u64, u64),
    hinted: bool,
) -> Instance {
    let (graph, rep) = family.instance(n, graph_seed);
    let cfg = Configuration::with_random_ids(graph, id_seed);
    // Build the CSR arena now: it is input preparation, not verify work.
    cfg.csr();
    let hint = match rep {
        Some(rep) if hinted => ProverHint::with_representation(rep),
        _ => ProverHint::auto(),
    };
    Instance {
        family: family.name(),
        n,
        cfg,
        hint,
    }
}

/// The random pathwidth-2 family the workloads share.
pub fn random_pw2() -> CorpusFamily {
    CorpusFamily::RandomPathwidth { k: 2, density: 0.4 }
}
