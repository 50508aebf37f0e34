//! The `compiled` section of `BENCH_results.json`: every standard
//! catalog formula (see `lanecert::compiled::standard_formulas`) lowered
//! by the MSO₂ compiler, frozen into the Theorem 1 scheme, and certified
//! end-to-end through the parallel [`Engine`] on its witness corpus.
//!
//! This series is what CI's engine-smoke job asserts over: each catalog
//! formula must build a compiled certifier (a total frozen table — no
//! sealed fallback), certify its `pathwidth ≤ 1` witness family at every
//! size, and keep labels `O(log n)` bits. The interned state count `|C|`
//! is recorded per formula so state-space growth across PRs is visible
//! in the perf trajectory, not just in the README table, and so is the
//! wall-clock time of its freeze.

use std::fmt::Write as _;

use lanecert::compiled::{freeze_options_for, DEFAULT_MAX_LANES};
use lanecert::{BatchJob, Certifier};
use lanecert_algebra::{Algebra, FrozenAlgebra};
use lanecert_engine::{Engine, FormulaCorpus};
use lanecert_obs::Clock;

use crate::Scale;

/// One catalog formula certified end-to-end through the engine.
#[derive(Clone, Debug)]
pub struct CompiledRun {
    /// Catalog name (`lanecert::compiled::standard_formulas`).
    pub formula: String,
    /// Canonically interned states of the frozen compiled algebra.
    pub states: usize,
    /// Seconds the freeze pass took. The freeze cache is process-wide,
    /// so this is near 0 when an earlier caller in the same process
    /// already froze the formula at the same options.
    pub freeze_s: f64,
    /// Witness jobs streamed through the engine.
    pub jobs: usize,
    /// Whether every witness job accepted.
    pub certified: bool,
    /// Largest label across all witness jobs, in bits.
    pub max_label_bits: usize,
    /// Largest witness instance, in vertices.
    pub largest_n: usize,
    /// `max_label_bits / log2(largest_n)` — the `O(log n)` label claim,
    /// as a measured constant.
    pub bits_per_log2_n: f64,
}

/// The `compiled` series: one run per formula, in catalog order.
#[derive(Clone, Debug)]
pub struct CompiledReport {
    /// Description of the witness corpus.
    pub corpus: String,
    /// Per-formula runs.
    pub runs: Vec<CompiledRun>,
}

const FULL_SIZES: &[usize] = &[64, 256];
const QUICK_SIZES: &[usize] = &[16, 32];
const SEEDS: &[u64] = &[5, 6];

/// Runs the full standard catalog at `scale`, proving on `threads`
/// engine workers.
pub fn series(scale: Scale, threads: usize) -> CompiledReport {
    let names: Vec<&str> = lanecert::compiled::standard_formulas()
        .iter()
        .map(|f| f.name)
        .collect();
    series_for(&names, scale, threads)
}

/// [`series`] restricted to the named catalog formulas — the bench
/// crate's own tests use this with the cheap-to-freeze entries so the
/// dev-profile suite does not pay the heavyweight freezes.
///
/// # Panics
///
/// On a name outside the standard catalog, or a catalog formula whose
/// compiled certifier no longer builds (tuned budgets rotted).
pub fn series_for(names: &[&str], scale: Scale, threads: usize) -> CompiledReport {
    let sizes: &[usize] = scale.pick(FULL_SIZES, QUICK_SIZES);
    let corpus = format!("per-formula witness graphs × sizes {sizes:?} × seeds {SEEDS:?}");
    let mut runs = Vec::with_capacity(names.len());
    let clock = Clock::monotonic();
    for &name in names {
        let entry = lanecert::compiled::standard_formula(name)
            .unwrap_or_else(|| panic!("{name} is not in the standard formula catalog"));
        // Freeze with the options the certifier uses, so its build below
        // finds the table in the freeze cache.
        let formula = entry.formula();
        let property = lanecert_mso::compile::compile(&formula)
            .unwrap_or_else(|e| panic!("catalog formula {name} must compile: {e}"));
        let start = clock.now_ns();
        FrozenAlgebra::freeze(
            Algebra::shared(property),
            &freeze_options_for(&formula, DEFAULT_MAX_LANES),
        );
        let freeze_s = clock.seconds_since(start);
        let certifier = Certifier::builder()
            .compiled(entry.formula())
            .build()
            .unwrap_or_else(|e| panic!("catalog formula {name} must compile and freeze: {e}"));
        let states = certifier
            .scheme()
            .algebra_state_count()
            .expect("compiled schemes freeze totally");
        let single = FormulaCorpus::new().formula(name, entry.formula());
        let mut jobs: Vec<BatchJob> = Vec::new();
        for &n in sizes {
            for &seed in SEEDS {
                jobs.extend(single.witness_jobs(n, seed));
            }
        }
        let instance_sizes: Vec<usize> = jobs.iter().map(|j| j.cfg.n()).collect();
        let engine = Engine::builder()
            .certifier(certifier)
            .workers(threads.max(1))
            .build()
            .expect("certifier supplied");
        let report = engine.run(jobs);
        let certified = report.batch.all_accepted();
        let max_label_bits = report
            .batch
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|r| r.max_label_bits))
            .max()
            .unwrap_or(0);
        let largest_n = instance_sizes.iter().copied().max().unwrap_or(0);
        let log2 = (largest_n.max(2) as f64).log2();
        runs.push(CompiledRun {
            formula: name.to_string(),
            states,
            freeze_s,
            jobs: report.batch.outcomes.len(),
            certified,
            max_label_bits,
            largest_n,
            bits_per_log2_n: max_label_bits as f64 / log2,
        });
    }
    CompiledReport { corpus, runs }
}

impl CompiledReport {
    /// The human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Compiled formulas: {}\nformula              |C|  freeze(s)    jobs  certified  max-bits  largest-n  bits/log2(n)\n",
            self.corpus
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:<18} {:>6}  {:>9.2}  {:>6}  {:>9}  {:>8}  {:>9}  {:>12.1}",
                r.formula,
                r.states,
                r.freeze_s,
                r.jobs,
                if r.certified { "yes" } else { "NO" },
                r.max_label_bits,
                r.largest_n,
                r.bits_per_log2_n,
            );
        }
        out
    }

    /// The `compiled` JSON section (hand-rendered; no serde offline).
    pub fn to_json(&self, escape: impl Fn(&str) -> String) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "    \"corpus\": \"{}\",", escape(&self.corpus));
        json.push_str("    \"formulas\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"formula\": \"{}\", \"states\": {}, \"freeze_s\": {:.4}, \
                 \"jobs\": {}, \"certified\": {}, \"max_label_bits\": {}, \
                 \"largest_n\": {}, \"bits_per_log2_n\": {:.4}}}{}",
                escape(&r.formula),
                r.states,
                r.freeze_s,
                r.jobs,
                r.certified,
                r.max_label_bits,
                r.largest_n,
                r.bits_per_log2_n,
                if i + 1 == self.runs.len() { "" } else { "," },
            );
        }
        json.push_str("    ]\n  }");
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_catalog_entries_run_end_to_end() {
        // The two cheapest freezes only — the full catalog runs in the
        // release-built CI smoke, where the heavyweight freezes are paid
        // once per binary.
        let report = series_for(&["max-degree-1", "vertex-cover-1"], Scale::Quick, 2);
        assert_eq!(report.runs.len(), 2);
        for r in &report.runs {
            assert!(r.certified, "{} witness corpus must certify", r.formula);
            assert!(r.states > 0);
            assert!(r.freeze_s >= 0.0);
            assert!(r.jobs > 0);
            assert!(r.max_label_bits > 0);
            assert!(r.largest_n >= 2);
        }
        // vertex-cover-1's witness is a star at the corpus sizes; the
        // max-degree-1 witness is a single edge at every size.
        let vc = report
            .runs
            .iter()
            .find(|r| r.formula == "vertex-cover-1")
            .unwrap();
        assert_eq!(vc.largest_n, 32);
        let md = report
            .runs
            .iter()
            .find(|r| r.formula == "max-degree-1")
            .unwrap();
        assert_eq!(md.largest_n, 2);
        let json = report.to_json(|s| s.to_string());
        assert!(json.contains("\"formulas\""));
        assert!(json.contains("\"bits_per_log2_n\""));
        assert!(json.contains("\"freeze_s\""));
        assert!(json.contains("\"vertex-cover-1\""));
        let rendered = report.render();
        assert!(rendered.contains("bits/log2(n)"));
        assert!(rendered.contains("freeze(s)"));
    }

    #[test]
    #[should_panic(expected = "not in the standard formula catalog")]
    fn unknown_formula_name_panics() {
        series_for(&["no-such-formula"], Scale::Quick, 1);
    }
}
