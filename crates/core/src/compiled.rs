//! Compiled-formula certifiers: MSO₂ formulas lowered to lane algebras.
//!
//! This is the Courcelle-style front-end of the workspace. Where
//! `lanecert_algebra::props` carries hand-written algebras,
//! [`compile_scheme`] takes *any* [`Formula`], runs the compiler of
//! [`lanecert_mso::compile`] (automaton states are satisfying
//! assignments restricted to the live interface), wraps the result in an
//! [`Algebra`], and freezes it into the Theorem 1 scheme at the
//! interface arity implied by the lane bound. Labels stay `O(log n)`
//! bits: the frozen class table is finite per `(formula, max_lanes)`
//! pair, so a label is a constant number of class ids plus interval
//! endpoints.
//!
//! The freeze budgets act as a backstop, not a soundness valve: a
//! formula whose compiled state space outgrows them fails scheme
//! construction with [`CertError::InvalidSpec`] — it never produces a
//! wrong verdict. [`standard_formulas`] lists the formulas of
//! `lanecert_mso::props` that are known to freeze totally, with
//! measured budgets; anything else (e.g. a user formula parsed by
//! `lanecert_mso::sexpr`) goes through [`compile_scheme`] with budgets
//! of the caller's choosing.

use lanecert_algebra::{Algebra, FreezeOptions};
use lanecert_lanes::LaneStrategy;
use lanecert_mso::Formula;
use lanecert_mso::{compile, props, sexpr};

use crate::theorem1::{PathwidthScheme, SchemeOptions};
use crate::CertError;

/// Default lane bound for compiled schemes: `max_lanes = 2` certifies
/// `pathwidth ≤ 1` (paths, caterpillars, stars) at interface arity 4 —
/// the widest interface every standard formula's state space is known
/// to stay finite under.
pub const DEFAULT_MAX_LANES: usize = 2;

/// Compiles `formula` and freezes it into a Theorem 1 scheme.
///
/// The freeze arity is forced to `2 × opts.max_lanes` (see
/// [`PathwidthScheme::with_freeze_options`]); `freeze` supplies the
/// state/op budgets. Construction demands a *total* freeze — partial
/// (sealed) tables intern their tail in arrival order, which would break
/// the bit-identical parallel proving the engine relies on.
///
/// # Errors
///
/// [`CertError::InvalidSpec`] when the formula does not compile (unbound
/// or sort-mismatched variables) or when its state space exceeds the
/// freeze budgets.
pub fn compile_scheme(
    formula: &Formula,
    opts: SchemeOptions,
    freeze: &FreezeOptions,
) -> Result<PathwidthScheme, CertError> {
    let prop = compile::compile(formula)
        .map_err(|e| CertError::InvalidSpec(format!("formula does not compile: {e}")))?;
    let scheme = PathwidthScheme::with_freeze_options(Algebra::shared(prop), opts, freeze);
    if !scheme.frozen_algebra().is_total() {
        return Err(CertError::InvalidSpec(format!(
            "compiled state space of {} exceeds the freeze budget at {} lanes \
             (≥ {} states); raise the budgets or lower the lane bound",
            sexpr::canonical(formula),
            opts.max_lanes,
            scheme.frozen_algebra().state_count(),
        )));
    }
    Ok(scheme)
}

/// One standard compiled formula: a stable corpus/bench name, the
/// formula constructor, and freeze budgets tuned from measured state
/// counts (the measured sizes are recorded in the README table).
pub struct StandardFormula {
    /// Stable name used by the engine corpus, bench tables and CI.
    pub name: &'static str,
    /// Builds the formula (constructors are cheap and pure).
    pub build: fn() -> Formula,
    /// State budget with headroom over the measured total count.
    pub state_budget: usize,
    /// Operation budget for the freeze closure. The values were set
    /// over the cost of a closure under every operation at every slot;
    /// the generating-set closure applies about a sixth of that (see
    /// [`standard_formulas`]), so they now leave wide headroom.
    pub op_budget: usize,
}

impl StandardFormula {
    /// The formula itself.
    pub fn formula(&self) -> Formula {
        (self.build)()
    }

    /// Freeze budgets for this formula. The arity cap keeps its default:
    /// scheme construction forces it to `2 × max_lanes`
    /// ([`PathwidthScheme::with_freeze_options`]).
    pub fn freeze_options(&self) -> FreezeOptions {
        FreezeOptions {
            state_budget: self.state_budget,
            op_budget: self.op_budget,
            ..FreezeOptions::default()
        }
    }

    /// Builds the scheme at the default lane bound with the greedy lane
    /// strategy.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidSpec`] if the freeze overruns its budget
    /// (only possible if the tuned budgets here rot).
    pub fn scheme(&self) -> Result<PathwidthScheme, CertError> {
        let opts = SchemeOptions {
            strategy: LaneStrategy::Greedy,
            max_lanes: DEFAULT_MAX_LANES,
        };
        compile_scheme(&self.formula(), opts, &self.freeze_options())
    }
}

/// The standard formula catalog: every `lanecert_mso::props` formula
/// whose compiled state space is known to freeze totally at the default
/// lane bound, with budgets set to the measured totals plus headroom
/// (measured state counts at interface arity 4: connected 2 809,
/// bipartite 11 713, 2-colorable 11 713, max-degree-1 141,
/// max-degree-2 812, vertex-cover-1 1 210, independent-set-2 12 520;
/// see the README table).
///
/// Measured closure cost at interface arity 4, in operations the
/// generating-set freeze applies (the closure under every operation at
/// every slot, which the op budgets were first set against, in
/// brackets): connected 21 735 (127 287), bipartite and 2-colorable
/// 85 604 (511 294), max-degree-1 1 150 (5 639), max-degree-2 6 405
/// (34 490), vertex-cover-1 9 978 (57 195), independent-set-2 95 740
/// (570 019).
///
/// Measured freeze time at interface arity 4 (release build, 2-vCPU
/// host, the bench `compiled` series' `freeze_s`): connected 0.5 s,
/// bipartite 2.4 s, 2-colorable 2.7 s, max-degree-1 0.01 s,
/// max-degree-2 1.2 s, vertex-cover-1 0.03 s, independent-set-2 1.2 s.
///
/// Deliberately absent: `acyclic`, `triangle_free`,
/// `dominating_set_at_most`, and `colorable(3)` — their compiled spaces
/// outgrow any practical budget at this arity (dominating-set-1 already
/// exceeds 60 000 states), so they exercise the
/// [`CertError::InvalidSpec`] backstop instead of the happy path.
pub fn standard_formulas() -> &'static [StandardFormula] {
    &[
        StandardFormula {
            name: "connected",
            build: props::connected,
            state_budget: 6_000,
            op_budget: 30_000_000,
        },
        StandardFormula {
            name: "bipartite",
            build: props::bipartite,
            state_budget: 18_000,
            op_budget: 30_000_000,
        },
        StandardFormula {
            name: "2-colorable",
            build: || props::colorable(2),
            state_budget: 18_000,
            op_budget: 30_000_000,
        },
        StandardFormula {
            name: "max-degree-1",
            build: || props::max_degree_at_most(1),
            state_budget: 1_000,
            op_budget: 8_000_000,
        },
        StandardFormula {
            name: "max-degree-2",
            build: || props::max_degree_at_most(2),
            state_budget: 3_000,
            op_budget: 40_000_000,
        },
        StandardFormula {
            name: "vertex-cover-1",
            build: || props::vertex_cover_at_most(1),
            state_budget: 3_000,
            op_budget: 8_000_000,
        },
        StandardFormula {
            name: "independent-set-2",
            build: || props::independent_set_at_least(2),
            state_budget: 19_000,
            op_budget: 30_000_000,
        },
    ]
}

/// Looks up a standard formula by name.
pub fn standard_formula(name: &str) -> Option<&'static StandardFormula> {
    standard_formulas().iter().find(|f| f.name == name)
}

/// Freeze options for `formula` at `max_lanes`: the tuned budgets when
/// it is α-equivalent to a standard formula (keyed by canonical
/// s-expression), the defaults otherwise. The arity cap is
/// `2 × max_lanes`, so the options also serve a direct
/// [`lanecert_algebra::FrozenAlgebra::freeze`] that warms the cache for
/// the scheme built next.
pub fn freeze_options_for(formula: &Formula, max_lanes: usize) -> FreezeOptions {
    let canonical = sexpr::canonical(formula);
    for entry in standard_formulas() {
        if sexpr::canonical(&entry.formula()) == canonical {
            return FreezeOptions {
                max_arity: max_lanes.saturating_mul(2),
                ..entry.freeze_options()
            };
        }
    }
    FreezeOptions::for_interface_arity(max_lanes.saturating_mul(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{ProverHint, Scheme};
    use crate::Configuration;
    use lanecert_graph::generators;

    #[test]
    fn catalog_names_are_unique_and_stable() {
        let names: Vec<&str> = standard_formulas().iter().map(|f| f.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate catalog name");
        assert!(standard_formula("connected").is_some());
        assert!(standard_formula("vertex-cover-1").is_some());
        // The divergent formulas are deliberately not in the catalog.
        assert!(standard_formula("triangle-free").is_none());
    }

    #[test]
    fn ill_sorted_formula_is_invalid_spec() {
        // Variable 0 is never bound: the compiler must refuse, and the
        // refusal must surface as InvalidSpec (not a panic or a wrong
        // verdict).
        let f = Formula::InVSet(0, 1);
        let err = compile_scheme(
            &f,
            SchemeOptions {
                strategy: LaneStrategy::Greedy,
                max_lanes: DEFAULT_MAX_LANES,
            },
            &FreezeOptions::for_interface_arity(4),
        )
        .unwrap_err();
        assert!(matches!(err, CertError::InvalidSpec(_)));
    }

    #[test]
    fn budget_overrun_is_invalid_spec_not_wrong_verdict() {
        // A one-state budget cannot hold any compiled space; the scheme
        // must refuse to build rather than certify with a sealed table.
        let starved = FreezeOptions {
            max_arity: 4,
            state_budget: 1,
            op_budget: 100,
        };
        let err = compile_scheme(
            &lanecert_mso::props::triangle_free(),
            SchemeOptions {
                strategy: LaneStrategy::Greedy,
                max_lanes: DEFAULT_MAX_LANES,
            },
            &starved,
        )
        .unwrap_err();
        assert!(matches!(err, CertError::InvalidSpec(_)));
    }

    #[test]
    fn compiled_max_degree_certifies_a_matching_edge() {
        // The cheapest catalog entry end-to-end (the heavyweight entries
        // are covered by the integration suites, where the freeze is
        // paid once per binary): max-degree ≤ 1 holds exactly on single
        // edges, and P3 violates it at the middle vertex.
        let scheme = standard_formula("max-degree-1").unwrap().scheme().unwrap();
        assert!(scheme.canonical_labels());
        let edge = Configuration::with_sequential_ids(generators::path_graph(2));
        let labels = scheme.prove(&edge, &ProverHint::auto()).unwrap();
        assert!(scheme.run(&edge, &labels).unwrap().accepted());
        let p3 = Configuration::with_sequential_ids(generators::path_graph(3));
        let err = scheme.prove(&p3, &ProverHint::auto()).unwrap_err();
        assert!(matches!(err, CertError::PropertyViolated));
    }

    #[test]
    fn freeze_options_match_standard_entries_up_to_alpha() {
        // A hand-parsed bipartite formula with different variable names
        // must pick up the tuned budgets via the canonical key.
        let entry = standard_formula("bipartite").unwrap();
        let renamed =
            lanecert_mso::sexpr::parse(&lanecert_mso::sexpr::canonical(&entry.formula())).unwrap();
        let opts = freeze_options_for(&renamed, DEFAULT_MAX_LANES);
        assert_eq!(opts.state_budget, entry.state_budget);
        // An unrelated formula falls back to the defaults.
        let other = lanecert_mso::props::hamiltonian_cycle();
        let fallback = freeze_options_for(&other, DEFAULT_MAX_LANES);
        assert_eq!(
            fallback.state_budget,
            lanecert_algebra::DEFAULT_STATE_BUDGET
        );
    }
}
