//! Per-layer probes. Each stage is timed by calling its public entry
//! point on its own, inside a `lanecert_obs` span named after the layer
//! (`lanes.hierarchy`, `core.decode`, …) whose field is the instance
//! size; counts are recorded as obs counters at the same place. The
//! traced passes drain these into the per-layer metrics, so measuring
//! and observing are one mechanism.

use lanecert::compiled::{freeze_options_for, StandardFormula, DEFAULT_MAX_LANES};
use lanecert::theorem1::{EdgeLabel, PathwidthScheme};
use lanecert::{Certifier, EncodedLabeling};
use lanecert_algebra::props::Connected;
use lanecert_algebra::{Algebra, FreezeOptions, FrozenAlgebra};
use lanecert_lanes::{
    build_hierarchy, embedding, partition, Completion, Construction, LaneStrategy, Layout,
};
use lanecert_obs::{counter_add, span, RunTrace};
use lanecert_pathwidth::{bnb, solver, IntervalRep};

use crate::harness::{counter, growth, on_fresh_thread, span_seconds, span_total, Sample, Tally};
use crate::inputs::Instance;

/// Freezes the hand-written `connected` algebra for the Theorem 1
/// scheme at `max_lanes`, as scheme construction does (the process-wide
/// freeze cache then serves the certifier built after it).
pub fn freeze_connected(max_lanes: usize) {
    let frozen = {
        let _span = span!("algebra.freeze");
        FrozenAlgebra::freeze(
            Algebra::shared(Connected),
            &FreezeOptions::for_interface_arity(2 * max_lanes),
        )
    };
    counter_add("algebra.states", frozen.state_count() as u64);
}

/// Compiles a catalog formula and freezes it with the budgets the
/// compiled scheme uses, so the certifier built next hits the cache.
pub fn freeze_compiled(entry: &StandardFormula, tally: &mut Tally) {
    let formula = entry.formula();
    let compiled = {
        let _span = span!("mso.compile");
        lanecert_mso::compile::compile(&formula)
    };
    let Ok(property) = compiled else {
        tally.check(false, || format!("{} does not compile", entry.name));
        return;
    };
    let frozen = {
        let _span = span!("algebra.freeze");
        FrozenAlgebra::freeze(
            Algebra::shared(property),
            &freeze_options_for(&formula, DEFAULT_MAX_LANES),
        )
    };
    counter_add("algebra.states", frozen.state_count() as u64);
}

/// The hint ladder, rung by rung: the exact solver, then the budgeted
/// branch-and-bound solver, as automatic hint resolution runs them.
pub fn resolve(inst: &Instance) -> IntervalRep {
    let (g, n) = (inst.cfg.graph(), inst.cfg.n());
    let _span = span!("pathwidth.resolve", n = inst.n);
    counter_add("pathwidth.resolves", 1);
    let pd = match solver::pathwidth_exact(g) {
        Ok((_, pd)) => {
            counter_add("pathwidth.optimal", 1);
            pd
        }
        Err(_) => {
            let r = bnb::pathwidth_bnb(g, &bnb::BnbOptions::for_auto(n));
            counter_add("pathwidth.bnb_nodes", r.stats.nodes);
            counter_add("pathwidth.bnb_prunes", r.stats.prunes);
            counter_add("pathwidth.memo_hits", r.stats.memo_hits);
            if r.optimal {
                counter_add("pathwidth.optimal", 1);
            }
            r.decomposition
        }
    };
    IntervalRep::from_decomposition(&pd, n)
}

/// Runs every prover and verifier stage of one instance separately:
/// the five `lanes` stages, `Layout::build`, the typed prover, the
/// encoder, label decoding and a cold verification. Hintless instances
/// resolve their representation through [`resolve`] first.
pub fn prover(inst: &Instance, scheme: &PathwidthScheme, certifier: &Certifier, tally: &mut Tally) {
    let rep = match inst.hint.representation() {
        Some(rep) => rep.clone(),
        None => resolve(inst),
    };
    let (cfg, g, n) = (&inst.cfg, inst.cfg.graph(), inst.n);
    let what = || format!("{}/n{}", inst.family, n);
    {
        let part = {
            let _span = span!("lanes.partition", n = n);
            partition::ensure_two_lanes(partition::greedy_partition(&rep))
        };
        let completion = {
            let _span = span!("lanes.completion", n = n);
            Completion::build(g, part)
        };
        let emb = {
            let _span = span!("lanes.embedding", n = n);
            embedding::shortest_path_embedding(g, &completion)
        };
        let built = {
            let _span = span!("lanes.construction", n = n);
            Construction::from_completion(&completion, &rep).build()
        };
        let Ok(built) = built else {
            tally.check(false, || format!("{}: construction failed", what()));
            return;
        };
        let hierarchy = {
            let _span = span!("lanes.hierarchy", n = n);
            build_hierarchy(&built)
        };
        counter_add("lanes.instances", 1);
        counter_add(
            "lanes.virtual_edges",
            completion.virtual_edges().count() as u64,
        );
        counter_add("lanes.hierarchy_nodes", hierarchy.nodes.len() as u64);
        counter_add("lanes.hierarchy_depth", hierarchy.depth() as u64);
        let hops: usize = emb.iter().map(|(_, p)| p.len().saturating_sub(1)).sum();
        counter_add("lanes.embedding_hops", hops as u64);
        counter_add("lanes.congestion", emb.congestion(g) as u64);
    }
    drop({
        let _span = span!("lanes.layout", n = n);
        Layout::build(g, &rep, LaneStrategy::Greedy)
    });
    let labeling = {
        let _span = span!("core.prove", n = n);
        scheme.prove_with_rep(cfg, &rep)
    };
    let Ok(labeling) = labeling else {
        tally.check(false, || format!("{}: typed prover refused", what()));
        return;
    };
    let encoded = {
        let _span = span!("core.encode", n = n);
        EncodedLabeling::encode(labeling.as_slice())
    };
    let transits: usize = labeling.iter().map(|l| l.transits.len()).sum();
    counter_add("core.transits", transits as u64);
    let bytes: usize = encoded.iter().map(|l| l.bytes.len()).sum();
    counter_add("core.label_bytes", bytes as u64);
    drop(labeling);
    let decoded = {
        let _span = span!("core.decode", n = n);
        encoded
            .iter()
            .all(|l| std::hint::black_box(l.decode::<EdgeLabel>()).is_some())
    };
    tally.check(decoded, || format!("{}: a label does not decode", what()));
    let verified = on_fresh_thread(|| {
        let _span = span!("core.verify", n = n);
        certifier.verify(cfg, &encoded)
    });
    tally.check(verified.is_ok_and(|r| r.accepted()), || {
        format!("{}: typed labels rejected", what())
    });
}

/// The five `lanes` stages, as (span, metric at the low size, metric at
/// the high size).
const STAGES: [(&str, &str, &str); 5] = [
    (
        "lanes.partition",
        "lanes.partition_s.lo",
        "lanes.partition_s.hi",
    ),
    (
        "lanes.completion",
        "lanes.completion_s.lo",
        "lanes.completion_s.hi",
    ),
    (
        "lanes.embedding",
        "lanes.embedding_s.lo",
        "lanes.embedding_s.hi",
    ),
    (
        "lanes.construction",
        "lanes.construction_s.lo",
        "lanes.construction_s.hi",
    ),
    (
        "lanes.hierarchy",
        "lanes.hierarchy_s.lo",
        "lanes.hierarchy_s.hi",
    ),
];

/// Per-layer metrics of one traced pass over instances of sizes `lo`
/// and `hi` (spans at other sizes count only in size-free totals).
pub fn metrics(trace: &RunTrace, lo: usize, hi: usize) -> Sample {
    let spans = span_seconds(trace);
    let at = |name: &str, n: usize| {
        spans
            .iter()
            .filter(|((s, k), _)| *s == name && *k == n as u64)
            .map(|(_, v)| *v)
            .sum::<f64>()
    };
    let total = |name: &str| span_total(&spans, name);
    let mut m = Sample::new();
    for (i, n) in [lo, hi].into_iter().enumerate() {
        let mut stage_sum = 0.0;
        for (span, lo_name, hi_name) in STAGES {
            stage_sum += at(span, n);
            m.insert([lo_name, hi_name][i], at(span, n));
        }
        let layout = at("lanes.layout", n);
        m.insert(["lanes.layout_s.lo", "lanes.layout_s.hi"][i], layout);
        m.insert(
            ["lanes.validate_s.lo", "lanes.validate_s.hi"][i],
            layout - stage_sum,
        );
        m.insert(
            ["core.labels_s.lo", "core.labels_s.hi"][i],
            at("core.prove", n) - layout,
        );
    }
    let grow = |lo_t: f64, hi_t: f64| {
        if lo_t > 0.0 && hi_t > 0.0 {
            growth(lo as f64, lo_t, hi as f64, hi_t)
        } else {
            0.0
        }
    };
    m.insert(
        "lanes.hierarchy_growth",
        grow(m["lanes.hierarchy_s.lo"], m["lanes.hierarchy_s.hi"]),
    );
    m.insert(
        "lanes.embedding_growth",
        grow(m["lanes.embedding_s.lo"], m["lanes.embedding_s.hi"]),
    );
    m.insert(
        "core.labels_growth",
        grow(m["core.labels_s.lo"], m["core.labels_s.hi"]),
    );
    m.insert("core.encode_s", total("core.encode"));
    m.insert("core.decode_s", total("core.decode"));
    m.insert("core.check_s", total("core.verify") - total("core.decode"));
    m.insert("pathwidth.resolve_s", total("pathwidth.resolve"));
    let probed = counter(trace, "lanes.instances").max(1.0);
    for name in [
        "lanes.instances",
        "lanes.virtual_edges",
        "lanes.hierarchy_nodes",
        "lanes.embedding_hops",
        "core.transits",
        "core.label_bytes",
        "pathwidth.bnb_nodes",
        "pathwidth.bnb_prunes",
        "pathwidth.memo_hits",
    ] {
        m.insert(name, counter(trace, name));
    }
    m.insert(
        "lanes.hierarchy_depth",
        counter(trace, "lanes.hierarchy_depth") / probed,
    );
    m.insert(
        "lanes.congestion",
        counter(trace, "lanes.congestion") / probed,
    );
    let resolves = counter(trace, "pathwidth.resolves");
    m.insert(
        "pathwidth.optimal_frac",
        if resolves > 0.0 {
            counter(trace, "pathwidth.optimal") / resolves
        } else {
            0.0
        },
    );
    m
}

/// Per-layer metrics of scheme construction (from the setup trace).
pub fn setup_metrics(trace: &RunTrace) -> Sample {
    let spans = span_seconds(trace);
    let total = |name: &str| span_total(&spans, name);
    Sample::from([
        ("mso.compile_s", total("mso.compile")),
        ("algebra.freeze_s", total("algebra.freeze")),
        ("algebra.states", counter(trace, "algebra.states")),
    ])
}
