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

use crate::erased::{BoxedScheme, EncodedLabeling};
use crate::registry::{SchemeRegistry, SchemeSpec, COMPILED, THEOREM1};
use crate::scheme::{ProverHint, RunReport};
use crate::{CertError, Configuration};

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
    spec: SchemeSpec,
    scheme: Option<String>,
    registry: Option<SchemeRegistry>,
    rep: Option<IntervalRep>,
}

impl CertifierBuilder {
    /// The property `ϕ` to certify, as a homomorphism algebra.
    pub fn property(mut self, algebra: SharedAlgebra) -> Self {
        self.spec.algebra = Some(algebra);
        self
    }

    /// Certify `pathwidth ≤ k` alongside the property.
    pub fn pathwidth(mut self, k: usize) -> Self {
        self.spec.pathwidth = Some(k);
        self
    }

    /// Certify an MSO₂ formula via the Courcelle-style compiler
    /// ([`crate::compiled`]). Selects the [`COMPILED`] scheme (a later
    /// [`CertifierBuilder::scheme`] call overrides). The lane bound
    /// defaults to [`crate::compiled::DEFAULT_MAX_LANES`] unless
    /// `.pathwidth(...)` / `.max_lanes(...)` is given.
    pub fn compiled(mut self, formula: Formula) -> Self {
        self.spec.formula = Some(formula);
        if self.scheme.is_none() {
            self.scheme = Some(COMPILED.into());
        }
        self
    }

    /// Lane-partition strategy (the T9 ablation knob).
    pub fn strategy(mut self, strategy: LaneStrategy) -> Self {
        self.spec.strategy = Some(strategy);
        self
    }

    /// Explicit verifier lane bound, overriding `pathwidth + 1`.
    pub fn max_lanes(mut self, w: usize) -> Self {
        self.spec.max_lanes = Some(w);
        self
    }

    /// Which registered scheme to build (default [`THEOREM1`]); see
    /// [`crate::registry`] for the standard names.
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

    /// Resolve schemes against a custom registry instead of
    /// [`SchemeRegistry::standard`].
    pub fn registry(mut self, registry: SchemeRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds the certifier.
    ///
    /// # Errors
    ///
    /// [`CertError::UnknownScheme`] / [`CertError::InvalidSpec`] from the
    /// registry lookup and factory.
    pub fn build(self) -> Result<Certifier, CertError> {
        let registry = self.registry.unwrap_or_else(SchemeRegistry::standard);
        let name = self.scheme.as_deref().unwrap_or(THEOREM1);
        let scheme = registry.build(name, &self.spec)?;
        let hint = match self.rep {
            Some(rep) => ProverHint::with_representation(rep),
            None => ProverHint::auto(),
        };
        Ok(Certifier { scheme, hint })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use lanecert_algebra::{props::Bipartite, props::Connected, Algebra};
    use lanecert_graph::generators;

    #[test]
    fn builder_defaults_to_theorem1() {
        let c = Certifier::builder()
            .property(Algebra::shared(Connected))
            .pathwidth(2)
            .build()
            .unwrap();
        assert!(c.name().starts_with("theorem1"));
        let cfg = Configuration::with_random_ids(generators::cycle_graph(8), 1);
        assert!(c.run(&cfg).unwrap().accepted());
    }

    #[test]
    fn builder_selects_registry_schemes() {
        let cfg = Configuration::with_random_ids(generators::cycle_graph(8), 2);
        // The structural baseline takes no property; the 1-bit scheme
        // accepts exactly the bipartiteness algebra.
        let baseline = Certifier::builder()
            .scheme(registry::FMR_BASELINE)
            .build()
            .unwrap();
        let one_bit = Certifier::builder()
            .property(Algebra::shared(Bipartite))
            .scheme(registry::BIPARTITE_1BIT)
            .build()
            .unwrap();
        for c in [baseline, one_bit] {
            let name = c.name();
            let labels = c.certify(&cfg).unwrap();
            assert!(c.verify(&cfg, &labels).unwrap().accepted(), "{name}");
        }
    }

    #[test]
    fn builder_rejects_property_a_scheme_cannot_certify() {
        // .property(Connected) on the 1-bit bipartiteness scheme must not
        // build a certifier that silently ignores the property.
        let err = Certifier::builder()
            .property(Algebra::shared(Connected))
            .scheme(registry::BIPARTITE_1BIT)
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, CertError::InvalidSpec(_)));
    }

    #[test]
    fn builder_unknown_scheme_errors() {
        let err = Certifier::builder()
            .scheme("not-a-scheme")
            .build()
            .unwrap_err();
        assert!(matches!(err, CertError::UnknownScheme { .. }));
    }

    #[test]
    fn default_representation_is_used() {
        let g = generators::path_graph(6);
        let rep = lanecert_pathwidth::IntervalRep::new(
            (0..6u32)
                .map(|i| lanecert_pathwidth::Interval::new(i, i + 1))
                .collect(),
        );
        let c = Certifier::builder()
            .property(Algebra::shared(Connected))
            .pathwidth(2)
            .representation(rep)
            .build()
            .unwrap();
        assert!(c.hint().representation().is_some());
        let cfg = Configuration::with_sequential_ids(g);
        assert!(c.run(&cfg).unwrap().accepted());
    }
}
