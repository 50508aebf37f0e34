//! The builder entry point of the certification API.
//!
//! A [`Certifier`] bundles one erased scheme with a default
//! [`ProverHint`]; build it fluently:
//!
//! ```
//! use lanecert::{Certifier, Configuration};
//! use lanecert_algebra::{props::Bipartite, Algebra};
//! use lanecert_graph::generators;
//!
//! let certifier = Certifier::builder()
//!     .property(Algebra::shared(Bipartite))
//!     .pathwidth(2)
//!     .scheme("theorem1")
//!     .build()
//!     .unwrap();
//! let cfg = Configuration::with_random_ids(generators::cycle_graph(12), 42);
//! let report = certifier.run(&cfg).unwrap();
//! assert!(report.accepted());
//! ```

use lanecert_algebra::SharedAlgebra;
use lanecert_lanes::LaneStrategy;
use lanecert_mso::Formula;
use lanecert_pathwidth::IntervalRep;

use crate::baseline::BaselineScheme;
use crate::compiled;
use crate::erased::{BoxedScheme, EncodedLabeling};
use crate::registry::{BIPARTITE_1BIT, COMPILED, FMR_BASELINE, THEOREM1, WHOLE_GRAPH};
use crate::scheme::{ProverHint, RunReport};
use crate::simple::{BipartiteScheme, WholeGraphScheme};
use crate::theorem1::{PathwidthScheme, SchemeOptions};
use crate::{CertError, Configuration};

/// The largest lane bound a builder accepts: what a lane set holds.
const LANE_CAPACITY: usize = lanecert_lanes::LaneSet::CAPACITY;

/// A ready-to-run certification pipeline: one erased scheme plus the
/// default prover hint.
pub struct Certifier {
    scheme: BoxedScheme,
    hint: ProverHint,
}

impl Certifier {
    /// Starts a builder (scheme defaults to [`THEOREM1`]).
    pub fn builder() -> CertifierBuilder {
        CertifierBuilder::default()
    }

    /// Wraps an already-built erased scheme.
    pub fn from_scheme(scheme: BoxedScheme) -> Self {
        Self {
            scheme,
            hint: ProverHint::auto(),
        }
    }

    /// The underlying erased scheme.
    pub fn scheme(&self) -> &dyn crate::erased::DynScheme {
        self.scheme.as_ref()
    }

    /// Display name of the underlying scheme instance.
    pub fn name(&self) -> String {
        self.scheme.name()
    }

    /// The default prover hint (set via
    /// [`CertifierBuilder::representation`]).
    pub fn hint(&self) -> &ProverHint {
        &self.hint
    }

    /// Honest certificate assignment, wire-encoded, using the default
    /// hint.
    ///
    /// # Errors
    ///
    /// Prover refusals and hint failures; see [`CertError`].
    pub fn certify(&self, cfg: &Configuration) -> Result<EncodedLabeling, CertError> {
        self.scheme.prove_encoded(cfg, &self.hint)
    }

    /// Like [`Certifier::certify`] with an explicit per-call hint (e.g. a
    /// known representation for one configuration of a batch).
    ///
    /// # Errors
    ///
    /// Prover refusals and hint failures; see [`CertError`].
    pub fn certify_with(
        &self,
        cfg: &Configuration,
        hint: &ProverHint,
    ) -> Result<EncodedLabeling, CertError> {
        self.scheme.prove_encoded(cfg, hint)
    }

    /// Runs the verifier everywhere against encoded (possibly adversarial)
    /// labels, on the calling thread. `lanecert_engine::Engine::verify`
    /// shards the same pass across a worker pool.
    ///
    /// # Errors
    ///
    /// [`CertError::LabelCountMismatch`] for wrong-length labelings.
    pub fn verify(
        &self,
        cfg: &Configuration,
        labels: &EncodedLabeling,
    ) -> Result<RunReport, CertError> {
        self.scheme.verify_encoded(cfg, labels)
    }

    /// Prove + everywhere-verify with the default hint.
    ///
    /// # Errors
    ///
    /// Propagates prover refusals.
    pub fn run(&self, cfg: &Configuration) -> Result<RunReport, CertError> {
        self.run_with(cfg, &self.hint)
    }

    /// Prove + everywhere-verify with an explicit hint.
    ///
    /// # Errors
    ///
    /// Propagates prover refusals.
    pub fn run_with(&self, cfg: &Configuration, hint: &ProverHint) -> Result<RunReport, CertError> {
        let labels = self.scheme.prove_encoded(cfg, hint)?;
        self.scheme.verify_encoded(cfg, &labels)
    }
}

impl std::fmt::Debug for Certifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Certifier")
            .field("scheme", &self.name())
            .finish()
    }
}

/// Fluent configuration for a [`Certifier`].
#[derive(Default)]
pub struct CertifierBuilder {
    algebra: Option<SharedAlgebra>,
    pathwidth: Option<usize>,
    strategy: Option<LaneStrategy>,
    max_lanes: Option<usize>,
    formula: Option<Formula>,
    scheme: Option<String>,
    rep: Option<IntervalRep>,
}

impl CertifierBuilder {
    /// The property `ϕ` to certify, as a homomorphism algebra. Required by
    /// [`THEOREM1`] and [`WHOLE_GRAPH`]; [`BIPARTITE_1BIT`] accepts only
    /// the bipartiteness algebra, and the other schemes reject it.
    pub fn property(mut self, algebra: SharedAlgebra) -> Self {
        self.algebra = Some(algebra);
        self
    }

    /// Certify `pathwidth ≤ k` alongside the property. [`THEOREM1`] needs
    /// this or [`CertifierBuilder::max_lanes`].
    pub fn pathwidth(mut self, k: usize) -> Self {
        self.pathwidth = Some(k);
        self
    }

    /// Certify an MSO₂ formula via the Courcelle-style compiler
    /// ([`crate::compiled`]). Selects the [`COMPILED`] scheme (a later
    /// [`CertifierBuilder::scheme`] call overrides, and every other
    /// scheme rejects the formula). The lane bound defaults to
    /// [`crate::compiled::DEFAULT_MAX_LANES`] unless `.pathwidth(...)` /
    /// `.max_lanes(...)` is given.
    pub fn compiled(mut self, formula: Formula) -> Self {
        self.formula = Some(formula);
        if self.scheme.is_none() {
            self.scheme = Some(COMPILED.into());
        }
        self
    }

    /// Lane-partition strategy (the T9 ablation knob; default greedy).
    pub fn strategy(mut self, strategy: LaneStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Explicit verifier lane bound, overriding `pathwidth + 1`.
    pub fn max_lanes(mut self, w: usize) -> Self {
        self.max_lanes = Some(w);
        self
    }

    /// Which scheme to build (default [`THEOREM1`]); see
    /// [`crate::registry`] for the names.
    pub fn scheme(mut self, name: impl Into<String>) -> Self {
        self.scheme = Some(name.into());
        self
    }

    /// Default interval representation for every prove call (overridable
    /// per call via [`Certifier::certify_with`]).
    pub fn representation(mut self, rep: IntervalRep) -> Self {
        self.rep = Some(rep);
        self
    }

    /// Builds the certifier.
    ///
    /// # Errors
    ///
    /// [`CertError::UnknownScheme`] for a name outside [`crate::registry`];
    /// [`CertError::InvalidSpec`] when the scheme lacks an input it needs,
    /// was given one it would not enforce, or was given a lane bound above
    /// the 64 lanes a lane set holds.
    pub fn build(self) -> Result<Certifier, CertError> {
        let name = self.scheme.as_deref().unwrap_or(THEOREM1);
        let scheme: BoxedScheme = match name {
            THEOREM1 => {
                self.reject_formula(THEOREM1)?;
                let algebra = self.require_algebra(THEOREM1)?;
                let Some(max_lanes) = self.lane_bound()? else {
                    return Err(CertError::InvalidSpec(
                        "theorem1 needs .pathwidth(k) or .max_lanes(w)".into(),
                    ));
                };
                Box::new(PathwidthScheme::new(algebra, self.options(max_lanes)))
            }
            FMR_BASELINE => {
                // This baseline only certifies decomposition *structure*;
                // a property algebra must fail loudly rather than appear
                // to be certified.
                if let Some(alg) = &self.algebra {
                    return Err(CertError::InvalidSpec(format!(
                        "fmr-baseline is structural and does not certify {:?}; drop .property(...)",
                        alg.name()
                    )));
                }
                self.reject_width_knobs(FMR_BASELINE)?;
                self.reject_formula(FMR_BASELINE)?;
                Box::new(BaselineScheme)
            }
            BIPARTITE_1BIT => {
                // The 1-bit scheme certifies exactly bipartiteness.
                if let Some(alg) = &self.algebra {
                    if alg.name() != "bipartite" {
                        return Err(CertError::InvalidSpec(format!(
                            "bipartite-1bit certifies bipartiteness, not {:?}",
                            alg.name()
                        )));
                    }
                }
                self.reject_width_knobs(BIPARTITE_1BIT)?;
                self.reject_formula(BIPARTITE_1BIT)?;
                Box::new(BipartiteScheme)
            }
            WHOLE_GRAPH => {
                let algebra = self.require_algebra(WHOLE_GRAPH)?;
                self.reject_width_knobs(WHOLE_GRAPH)?;
                self.reject_formula(WHOLE_GRAPH)?;
                Box::new(WholeGraphScheme::for_algebra(algebra))
            }
            COMPILED => {
                let Some(formula) = &self.formula else {
                    return Err(CertError::InvalidSpec(
                        "compiled needs an MSO formula (.compiled(...))".into(),
                    ));
                };
                // A hand-written algebra alongside a formula is
                // ambiguous: the scheme would certify the formula and
                // silently drop the algebra.
                if let Some(alg) = &self.algebra {
                    return Err(CertError::InvalidSpec(format!(
                        "compiled certifies its formula, not the algebra {:?}; drop .property(...)",
                        alg.name()
                    )));
                }
                let max_lanes = self.lane_bound()?.unwrap_or(compiled::DEFAULT_MAX_LANES);
                let freeze = compiled::freeze_options_for(formula, max_lanes);
                Box::new(compiled::compile_scheme(
                    formula,
                    self.options(max_lanes),
                    &freeze,
                )?)
            }
            _ => return Err(CertError::UnknownScheme { name: name.into() }),
        };
        let hint = match self.rep {
            Some(rep) => ProverHint::with_representation(rep),
            None => ProverHint::auto(),
        };
        Ok(Certifier { scheme, hint })
    }

    /// The verifier lane bound: `.max_lanes(w)`, else `pathwidth + 1`;
    /// `None` when neither is set.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidSpec`] for a bound above [`LANE_CAPACITY`],
    /// including a `pathwidth + 1` that overflows.
    fn lane_bound(&self) -> Result<Option<usize>, CertError> {
        let bound = match (self.max_lanes, self.pathwidth) {
            (Some(w), _) => Some(w),
            (None, Some(k)) => k.checked_add(1),
            (None, None) => return Ok(None),
        };
        match bound {
            Some(w) if w <= LANE_CAPACITY => Ok(Some(w)),
            _ => Err(CertError::InvalidSpec(format!(
                "lane bound exceeds the {LANE_CAPACITY} lanes a lane set holds \
                 (pathwidth at most {})",
                LANE_CAPACITY - 1
            ))),
        }
    }

    fn options(&self, max_lanes: usize) -> SchemeOptions {
        SchemeOptions {
            strategy: self.strategy.unwrap_or(LaneStrategy::Greedy),
            max_lanes,
        }
    }

    fn require_algebra(&self, scheme: &str) -> Result<SharedAlgebra, CertError> {
        self.algebra.clone().ok_or_else(|| {
            CertError::InvalidSpec(format!(
                "{scheme} needs a property algebra (.property(...))"
            ))
        })
    }

    /// Rejects width/strategy knobs a scheme does not enforce — a builder
    /// that appears to certify a pathwidth bound must fail loudly rather
    /// than build a certifier that silently ignores it.
    fn reject_width_knobs(&self, scheme: &str) -> Result<(), CertError> {
        if self.pathwidth.is_some() || self.max_lanes.is_some() || self.strategy.is_some() {
            return Err(CertError::InvalidSpec(format!(
                "{scheme} certifies no pathwidth bound and has no lane strategy; \
                 drop .pathwidth(...) / .max_lanes(...) / .strategy(...)"
            )));
        }
        Ok(())
    }

    /// Rejects a formula when the scheme is not the compiled front-end —
    /// a formula the built certifier would not certify must fail loudly.
    fn reject_formula(&self, scheme: &str) -> Result<(), CertError> {
        if let Some(f) = &self.formula {
            return Err(CertError::InvalidSpec(format!(
                "{scheme} does not certify MSO formulas (got {}); use the \
                 {COMPILED:?} scheme or drop .compiled(...)",
                lanecert_mso::sexpr::canonical(f)
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_algebra::{props::Bipartite, props::Connected, Algebra};
    use lanecert_graph::generators;

    /// `connected ∧ pathwidth ≤ 2`: valid for [`THEOREM1`] only.
    fn connected_pw2() -> CertifierBuilder {
        Certifier::builder()
            .property(Algebra::shared(Connected))
            .pathwidth(2)
    }

    fn invalid_spec(builder: CertifierBuilder) -> bool {
        matches!(builder.build(), Err(CertError::InvalidSpec(_)))
    }

    #[test]
    fn builder_defaults_to_theorem1() {
        let c = connected_pw2().build().unwrap();
        assert!(c.name().starts_with("theorem1"));
        let cfg = Configuration::with_random_ids(generators::cycle_graph(8), 1);
        assert!(c.run(&cfg).unwrap().accepted());
    }

    #[test]
    fn all_standard_schemes_build_and_run() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(6));
        let cases = [
            connected_pw2().scheme(THEOREM1),
            Certifier::builder().scheme(FMR_BASELINE),
            Certifier::builder()
                .property(Algebra::shared(Bipartite))
                .scheme(BIPARTITE_1BIT),
            Certifier::builder()
                .property(Algebra::shared(Connected))
                .scheme(WHOLE_GRAPH),
        ];
        for builder in cases {
            let c = builder.build().unwrap();
            let labels = c.certify(&cfg).unwrap();
            let report = c.verify(&cfg, &labels).unwrap();
            assert!(
                report.accepted(),
                "{}: {:?}",
                c.name(),
                report.first_rejection()
            );
        }
        // The compiled scheme defaults to max_lanes = 2 (pathwidth ≤ 1),
        // so it gets a path rather than the cycle above; the formula is
        // one of the catalog's cheapest freezes (the middle vertex of P3
        // is a vertex cover of size 1).
        let c = Certifier::builder()
            .compiled(lanecert_mso::props::vertex_cover_at_most(1))
            .build()
            .unwrap();
        let path = Configuration::with_sequential_ids(generators::path_graph(3));
        let labels = c.certify(&path).unwrap();
        let report = c.verify(&path, &labels).unwrap();
        assert!(
            report.accepted(),
            "compiled: {:?}",
            report.first_rejection()
        );
    }

    #[test]
    fn structural_schemes_reject_unenforced_properties() {
        // fmr-baseline certifies structure only.
        assert!(invalid_spec(connected_pw2().scheme(FMR_BASELINE)));
        // bipartite-1bit certifies bipartiteness, nothing else.
        assert!(invalid_spec(connected_pw2().scheme(BIPARTITE_1BIT)));
        // Width/strategy knobs are equally unenforced by the structural
        // and whole-graph schemes.
        let width_only = || Certifier::builder().pathwidth(2);
        assert!(invalid_spec(width_only().scheme(FMR_BASELINE)));
        assert!(invalid_spec(width_only().scheme(BIPARTITE_1BIT)));
        assert!(invalid_spec(connected_pw2().scheme(WHOLE_GRAPH)));
    }

    #[test]
    fn builder_rejects_property_a_scheme_cannot_certify() {
        // .property(Connected) on the 1-bit bipartiteness scheme must not
        // build a certifier that silently ignores the property.
        assert!(invalid_spec(
            Certifier::builder()
                .property(Algebra::shared(Connected))
                .scheme(BIPARTITE_1BIT)
        ));
    }

    #[test]
    fn formula_and_algebra_do_not_cross_schemes() {
        // A formula on a non-compiled scheme must fail loudly, even when
        // `.scheme(...)` overrides the scheme `.compiled(...)` selected.
        assert!(invalid_spec(
            connected_pw2()
                .compiled(lanecert_mso::props::triangle_free())
                .scheme(THEOREM1)
        ));
        // The compiled scheme without a formula, or with a stray
        // hand-written algebra, is equally invalid.
        assert!(invalid_spec(Certifier::builder().scheme(COMPILED)));
        assert!(invalid_spec(
            Certifier::builder()
                .property(Algebra::shared(Connected))
                .compiled(lanecert_mso::props::max_degree_at_most(2))
        ));
    }

    #[test]
    fn unknown_name_errors() {
        assert_eq!(
            connected_pw2().scheme("treewidth-ckm").build().unwrap_err(),
            CertError::UnknownScheme {
                name: "treewidth-ckm".into()
            }
        );
    }

    #[test]
    fn missing_spec_fields_error() {
        assert!(invalid_spec(Certifier::builder().scheme(THEOREM1)));
        assert!(invalid_spec(
            Certifier::builder()
                .property(Algebra::shared(Connected))
                .scheme(THEOREM1)
        ));
    }

    #[test]
    fn lane_bounds_past_the_lane_set_are_refused() {
        let connected = || Certifier::builder().property(Algebra::shared(Connected));
        // `usize::MAX + 1` must not overflow, and 65 lanes do not fit.
        assert!(invalid_spec(connected().pathwidth(usize::MAX)));
        assert!(invalid_spec(connected().max_lanes(65)));
        assert!(invalid_spec(
            Certifier::builder()
                .compiled(lanecert_mso::props::vertex_cover_at_most(1))
                .pathwidth(usize::MAX)
        ));
        // The full lane set still builds (the T9 ablation uses it).
        assert!(connected().max_lanes(64).build().is_ok());
    }

    #[test]
    fn default_representation_is_used() {
        let g = generators::path_graph(6);
        let rep = lanecert_pathwidth::IntervalRep::new(
            (0..6u32)
                .map(|i| lanecert_pathwidth::Interval::new(i, i + 1))
                .collect(),
        );
        let c = connected_pw2().representation(rep).build().unwrap();
        assert!(c.hint().representation().is_some());
        let cfg = Configuration::with_sequential_ids(g);
        assert!(c.run(&cfg).unwrap().accepted());
    }
}
