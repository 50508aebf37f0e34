//! The unified proof-labeling-scheme API: the [`Scheme`] trait plus the
//! shared edge-labeling harness.
//!
//! Labels live on edges (the paper's working model, Section 2.1). A
//! scheme's prover maps a [`Configuration`] (plus an optional
//! [`ProverHint`]) to one label per edge; its verifier runs per vertex over a
//! [`VertexView`] — the vertex's identifier and the **decoded** labels of
//! its incident edges (each label is round-tripped through the bit
//! encoding, so malformed labels surface as decode failures). The harness
//! aggregates verdicts and label-size statistics into a [`RunReport`].
//!
//! Every concrete scheme (Theorem 1, the FMR+24-style baseline, the 1-bit
//! bipartiteness scheme, the whole-graph yardstick) implements [`Scheme`];
//! the erased layer ([`crate::erased`]), builder ([`crate::certifier`])
//! and batch runner ([`crate::batch`]) are built on top of this trait.

use std::borrow::Cow;

use lanecert_pathwidth::{bnb, solver, Interval, IntervalRep};

use crate::bits::{self, Enc};
use crate::{CertError, Configuration, EncodedLabeling};

/// A per-vertex verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The vertex accepts.
    Accept,
    /// The vertex rejects, with a diagnostic reason (not part of the
    /// model's output — used by tests and experiments).
    Reject(String),
}

impl Verdict {
    /// Convenience constructor for rejections.
    pub fn reject(reason: impl Into<String>) -> Self {
        Verdict::Reject(reason.into())
    }

    /// Returns `true` for [`Verdict::Accept`].
    pub fn is_accept(&self) -> bool {
        matches!(self, Verdict::Accept)
    }
}

/// What a vertex sees: its own identifier plus the labels on its incident
/// edges (decoded; `None` marks an undecodable label).
///
/// The view **borrows** the decoded labels: `incident` is a slice of
/// references into a decode arena owned by the harness, which decodes each
/// edge label once and then serves both endpoints from the same allocation.
/// Verifiers therefore never trigger label clones, and the harness reuses
/// one scratch slice across the whole vertex loop (see
/// [`crate::DynScheme::verify_encoded_range`] for the hot-path invariants).
#[derive(Copy, Clone, Debug)]
pub struct VertexView<'a, L> {
    /// This vertex's identifier.
    pub id: u64,
    /// For each incident edge: the decoded label (no neighbour identity is
    /// revealed — only the label contents, per the model). `None` marks an
    /// undecodable label.
    pub incident: &'a [Option<&'a L>],
}

impl<L> VertexView<'_, L> {
    /// The vertex's degree (number of incident edges).
    pub fn degree(&self) -> usize {
        self.incident.len()
    }
}

/// The outcome of running a scheme on a configuration.
///
/// `PartialEq`/`Eq` compare every field, so two reports are equal exactly
/// when they are bit-identical — the invariant the parallel engine's
/// parity suite checks against the sequential path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Per-vertex verdicts (indexed by vertex).
    pub verdicts: Vec<Verdict>,
    /// Maximum encoded label size in bits.
    pub max_label_bits: usize,
    /// Total encoded label bits across all edges.
    pub total_label_bits: usize,
    /// Number of labeled objects in the configuration — edges for edge
    /// schemes, vertices for the Proposition 2.1 vertex transform —
    /// folded into the report so size averages cannot be computed against
    /// the wrong denominator.
    pub edges: usize,
}

impl RunReport {
    /// Returns `true` if every vertex accepted.
    pub fn accepted(&self) -> bool {
        self.verdicts.iter().all(Verdict::is_accept)
    }

    /// Number of rejecting vertices.
    pub fn reject_count(&self) -> usize {
        self.verdicts.iter().filter(|v| !v.is_accept()).count()
    }

    /// First rejection reason, if any (diagnostics).
    pub fn first_rejection(&self) -> Option<&str> {
        self.verdicts.iter().find_map(|v| match v {
            Verdict::Reject(r) => Some(r.as_str()),
            Verdict::Accept => None,
        })
    }

    /// Average label size in bits per labeled object (see
    /// [`RunReport::edges`]).
    pub fn avg_label_bits(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.total_label_bits as f64 / self.edges as f64
        }
    }
}

/// Auxiliary input for the (centralized, computationally unbounded in the
/// model; polynomial here) honest prover.
///
/// The Theorem 1 scheme and the baseline need an interval representation
/// of the network. [`ProverHint::auto`] lets the prover compute one: an
/// optimal one with the exact solver on small graphs, and a
/// branch-and-bound result ([`lanecert_pathwidth::bnb::pathwidth_bnb`],
/// exact when its budget suffices, the heuristic seed otherwise) up to
/// [`AUTO_HEURISTIC_LIMIT`] vertices. [`ProverHint::with_representation`]
/// supplies a known one, e.g. from the generator of a benchmark family,
/// which is how experiments scale past the derivation limits. Schemes that
/// need no decomposition (the 1-bit and whole-graph schemes) ignore the
/// hint.
#[derive(Clone, Debug, Default)]
pub struct ProverHint {
    rep: Option<IntervalRep>,
}

impl ProverHint {
    /// No hint: provers that need a representation compute one.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Supplies a known interval representation.
    pub fn with_representation(rep: IntervalRep) -> Self {
        Self { rep: Some(rep) }
    }

    /// The supplied representation, if any.
    pub fn representation(&self) -> Option<&IntervalRep> {
        self.rep.as_ref()
    }

    /// Resolves an interval representation for `cfg`: the supplied one if
    /// present (validated against the graph, so a stale or wrong-graph
    /// hint is an error rather than a downstream panic — provers may use
    /// the result without re-validating), otherwise a derived one — an
    /// optimal one from the exact pathwidth solver when the graph fits its
    /// limit, then the branch-and-bound solver
    /// ([`lanecert_pathwidth::bnb::pathwidth_bnb`], seeded and budget-capped
    /// by the beam heuristic) up to [`AUTO_HEURISTIC_LIMIT`] vertices. The
    /// derived decomposition is an upper bound when the solver's budget
    /// runs out before proving optimality — the verifier's lane bound may
    /// still refuse it in that case. Borrows the supplied representation
    /// instead of cloning it.
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidSpec`] when the supplied representation does
    /// not fit `cfg`; [`CertError::NeedRepresentation`] when no
    /// representation was supplied and the graph exceeds
    /// [`AUTO_HEURISTIC_LIMIT`].
    pub fn resolve(&self, cfg: &Configuration) -> Result<Cow<'_, IntervalRep>, CertError> {
        if let Some(rep) = &self.rep {
            check_rep_fits(rep, cfg)?;
            return Ok(Cow::Borrowed(rep));
        }
        if cfg.n() <= 1 {
            return Ok(Cow::Owned(IntervalRep::new(vec![
                Interval::new(0, 0);
                cfg.n()
            ])));
        }
        let pd = match solver::pathwidth_exact(cfg.graph()) {
            Ok((_, pd)) => pd,
            Err(_) if cfg.n() <= AUTO_HEURISTIC_LIMIT => {
                bnb::pathwidth_bnb(cfg.graph(), &bnb::BnbOptions::for_auto(cfg.n())).decomposition
            }
            Err(_) => return Err(CertError::NeedRepresentation),
        };
        Ok(Cow::Owned(IntervalRep::from_decomposition(&pd, cfg.n())))
    }
}

/// Ceiling on the vertex count for which [`ProverHint::resolve`]
/// derives a decomposition itself (exact solver below its own limit, the
/// budgeted branch-and-bound solver beyond). The solver's work budget is
/// deterministic and shrinks with instance size
/// ([`lanecert_pathwidth::bnb::BnbOptions::for_auto`]), so a missing hint
/// costs a bounded, size-aware amount of prover time instead of a stall —
/// which is what lets this ceiling sit at tens of thousands of vertices
/// where the pre-B&B cubic heuristic capped it at 256. Larger networks
/// need a supplied representation ([`ProverHint::with_representation`]).
pub const AUTO_HEURISTIC_LIMIT: usize = 32_768;

/// Deterministic (within one build) digest of a scheme name — the
/// default [`Scheme::fingerprint`].
pub(crate) fn stable_name_fingerprint(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    "lanecert-scheme".hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// Validates a caller-supplied interval representation against a
/// configuration, mapping a mismatch to the API's typed error (shared by
/// [`ProverHint::resolve`] and the schemes' typed `prove_with_rep`
/// helpers, so wording and semantics stay in sync).
pub(crate) fn check_rep_fits(rep: &IntervalRep, cfg: &Configuration) -> Result<(), CertError> {
    rep.validate(cfg.graph()).map_err(|e| {
        CertError::InvalidSpec(format!("hint representation does not fit the graph: {e}"))
    })
}

/// A proof labeling scheme: an honest prover and a per-vertex verifier
/// over one typed label format.
///
/// Completeness: `prove` succeeds exactly on yes-instances, and its output
/// passed through [`Scheme::run`] is accepted at every vertex. Soundness:
/// for a no-instance, *no* labeling (however adversarial) is accepted at
/// every vertex. Label sizes are measured in bits of the wire encoding
/// ([`crate::bits`]).
pub trait Scheme {
    /// The per-edge label format. Labels are plain wire data; the
    /// `Send + Sync` bounds let the engine shard verification across
    /// threads ([`DynScheme::verify_encoded_range`](crate::DynScheme)).
    type Label: Enc + Clone + Send + Sync;

    /// Display name of the scheme instance.
    fn name(&self) -> String;

    /// Honest certificate assignment: `labels[e]` belongs to edge `e`.
    ///
    /// # Errors
    ///
    /// Prover refusals and hint failures; see [`CertError`].
    fn prove(&self, cfg: &Configuration, hint: &ProverHint) -> Result<Vec<Self::Label>, CertError>;

    /// Honest certificate assignment, already wire-encoded and stamped
    /// with [`Scheme::fingerprint`]: what the erased layer's
    /// [`DynScheme::prove_encoded`](crate::DynScheme::prove_encoded)
    /// returns. The default encodes [`Scheme::prove`]; a scheme that can
    /// write wire labels directly overrides it, and the bytes must equal
    /// the encoding of its typed labels.
    ///
    /// # Errors
    ///
    /// Prover refusals and hint failures; see [`CertError`]. A label
    /// buffer past the 4 GiB limit of its `u32` offsets is
    /// [`CertError::Internal`].
    fn prove_encoded(
        &self,
        cfg: &Configuration,
        hint: &ProverHint,
    ) -> Result<EncodedLabeling, CertError> {
        let labels = self.prove(cfg, hint)?;
        Ok(EncodedLabeling::try_encode(&labels)?.with_fingerprint(self.fingerprint()))
    }

    /// The local verification algorithm at one vertex. The view borrows
    /// its labels from the harness's decode arena (see [`VertexView`]).
    fn verify_at(&self, view: &VertexView<'_, Self::Label>) -> Verdict;

    /// A digest of everything the meaning of this scheme's wire labels
    /// depends on. Schemes whose labels reference a canonical algebra
    /// table (the Theorem 1 scheme) fold the table's fingerprint in; the
    /// default is a digest of the scheme name. Labelings produced through
    /// the erased layer record this value, and verification rejects a
    /// mismatch with [`CertError::FingerprintMismatch`] — so a label
    /// corpus recorded under another workspace version (or another
    /// property/width) fails loudly instead of misdecoding.
    fn fingerprint(&self) -> u64 {
        stable_name_fingerprint(&self.name())
    }

    /// Number of canonically interned algebra states backing this
    /// scheme's labels, when there is such a table (`None` for schemes
    /// without class-carrying labels). Reported by the bench suite as
    /// the per-scheme `|C|` statistic.
    fn algebra_state_count(&self) -> Option<usize> {
        None
    }

    /// `true` when this scheme's labels are a pure function of
    /// `(graph, hint)` — the default, and what the Theorem 1 scheme
    /// reports whenever its canonical freeze completed
    /// (`FrozenAlgebra::is_total`). A *sealed* algebra (too large to
    /// pre-enumerate) returns `false`: its dynamic-tail ids depend on
    /// prove arrival order, so concurrent proving can perturb label
    /// sizes. The engine consults this to decide whether proving may
    /// default onto the worker pool without giving up bit-parity.
    fn canonical_labels(&self) -> bool {
        true
    }

    /// Runs the verifier at every vertex against the given (possibly
    /// adversarial) labels, through the wire encoding.
    ///
    /// # Errors
    ///
    /// [`CertError::LabelCountMismatch`] when `labels` has the wrong
    /// length for `cfg`.
    fn run(&self, cfg: &Configuration, labels: &[Self::Label]) -> Result<RunReport, CertError> {
        run_edge_scheme(cfg, labels, |view| self.verify_at(view))
    }
}

/// Runs an edge-labeling scheme: encodes each label, decodes it back (the
/// wire trip) **once per edge**, builds each vertex's borrowed view over
/// the decode arena, and applies `verify`.
///
/// `labels[e]` is the label of edge `e`; `verify(view)` is the local
/// verification algorithm. The vertex loop streams the configuration's
/// CSR arena ([`Configuration::csr`]) and reuses one scratch slice for
/// the incident references, so it performs no per-vertex allocation and
/// no label clones.
///
/// # Errors
///
/// [`CertError::LabelCountMismatch`] if `labels` does not have one label
/// per edge — adversarial truncations surface as an error, never a panic.
pub fn run_edge_scheme<L, F>(
    cfg: &Configuration,
    labels: &[L],
    verify: F,
) -> Result<RunReport, CertError>
where
    L: Enc + Clone,
    F: Fn(&VertexView<'_, L>) -> Verdict,
{
    let g = cfg.csr();
    if labels.len() != g.edge_count() {
        return Err(CertError::LabelCountMismatch {
            expected: g.edge_count(),
            got: labels.len(),
        });
    }
    let mut max_bits = 0;
    let mut total_bits = 0;
    let decoded: Vec<Option<L>> = labels
        .iter()
        .map(|l| {
            let (bytes, bits) = bits::encode(l);
            max_bits = max_bits.max(bits);
            total_bits += bits;
            bits::decode::<L>(&bytes)
        })
        .collect();
    let mut scratch: Vec<Option<&L>> = Vec::with_capacity(g.max_degree());
    let verdicts = g
        .vertices()
        .map(|v| {
            scratch.clear();
            scratch.extend(
                g.incident(v)
                    .iter()
                    .map(|h| decoded[h.edge.index()].as_ref()),
            );
            verify(&VertexView {
                id: cfg.id_of(v),
                incident: &scratch,
            })
        })
        .collect();
    Ok(RunReport {
        verdicts,
        max_label_bits: max_bits,
        total_label_bits: total_bits,
        edges: g.edge_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_graph::generators;

    #[test]
    fn harness_reports_sizes_and_verdicts() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(4));
        let labels: Vec<u64> = (0..4).collect();
        let report = run_edge_scheme(&cfg, &labels, |view| {
            if view.degree() == 2 {
                Verdict::Accept
            } else {
                Verdict::reject("bad degree")
            }
        })
        .unwrap();
        assert!(report.accepted());
        assert!(report.max_label_bits >= 5);
        assert_eq!(report.reject_count(), 0);
        assert_eq!(report.edges, 4);
        assert!(report.avg_label_bits() > 0.0);
    }

    #[test]
    fn rejections_are_counted() {
        let cfg = Configuration::with_sequential_ids(generators::path_graph(3));
        let labels = vec![0u64; 2];
        let report = run_edge_scheme(&cfg, &labels, |view| {
            if view.degree() == 2 {
                Verdict::reject("middle vertex complains")
            } else {
                Verdict::Accept
            }
        })
        .unwrap();
        assert!(!report.accepted());
        assert_eq!(report.reject_count(), 1);
        assert_eq!(report.first_rejection(), Some("middle vertex complains"));
    }

    #[test]
    fn wrong_label_count_is_an_error_not_a_panic() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let labels = vec![0u64; 3]; // truncated
        let err = run_edge_scheme(&cfg, &labels, |_| Verdict::Accept).unwrap_err();
        assert_eq!(
            err,
            CertError::LabelCountMismatch {
                expected: 5,
                got: 3
            }
        );
    }

    #[test]
    fn auto_hint_falls_back_to_heuristic_past_exact_limit() {
        // 40 vertices is past the exact solver's limit but within the
        // heuristic fallback, so an auto hint still resolves.
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(40));
        let hint = ProverHint::auto();
        let rep = hint.resolve(&cfg).unwrap();
        rep.validate(cfg.graph()).unwrap();
        // Beyond the fallback limit the caller must supply one.
        let big =
            Configuration::with_sequential_ids(generators::cycle_graph(AUTO_HEURISTIC_LIMIT + 1));
        assert_eq!(
            ProverHint::auto().resolve(&big).unwrap_err(),
            CertError::NeedRepresentation
        );
    }

    #[test]
    fn hint_resolution() {
        let cfg = Configuration::with_sequential_ids(generators::path_graph(5));
        let auto = ProverHint::auto();
        let rep = auto.resolve(&cfg).unwrap();
        rep.validate(cfg.graph()).unwrap();
        let supplied = ProverHint::with_representation(rep.clone().into_owned());
        assert_eq!(supplied.resolve(&cfg).unwrap().intervals(), rep.intervals());
    }
}
