//! The single typed error surface of the certification API.
//!
//! Every scheme in the workspace — the Theorem 1 scheme, the FMR+24-style
//! baseline, and the classic 1-bit schemes — reports prover refusals and
//! harness failures through [`CertError`], never through `Option`s or
//! `assert!`s.

use std::error::Error;
use std::fmt;

/// Why a certification request failed.
///
/// Prover refusals ([`Disconnected`](CertError::Disconnected),
/// [`PropertyViolated`](CertError::PropertyViolated),
/// [`TooManyLanes`](CertError::TooManyLanes),
/// [`NeedRepresentation`](CertError::NeedRepresentation)) are part of the
/// model: the honest prover only labels yes-instances. The remaining
/// variants are harness/configuration errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// The network is disconnected (the model requires connectivity).
    Disconnected,
    /// The configuration does not satisfy the property `ϕ` — per the
    /// completeness contract, the prover only labels yes-instances. The
    /// 1-bit bipartiteness scheme reports non-bipartite inputs here.
    PropertyViolated,
    /// The layout needs more lanes than the verifier's bound (the
    /// pathwidth bound fails, or the recursive partition overshot it).
    TooManyLanes {
        /// Lanes required by the layout.
        needed: usize,
        /// The verifier's bound.
        bound: usize,
    },
    /// No interval representation was supplied (via
    /// [`ProverHint`](crate::ProverHint)) and the graph is too large for
    /// automatic derivation — past both the exact pathwidth solver and
    /// the branch-and-bound fallback
    /// ([`AUTO_HEURISTIC_LIMIT`](crate::scheme::AUTO_HEURISTIC_LIMIT)).
    NeedRepresentation,
    /// A labeling with the wrong number of labels was presented to the
    /// verifier harness (adversarial truncation/extension). Surfaced as an
    /// error instead of a panic so batch runs survive malformed inputs.
    LabelCountMismatch {
        /// Labels the configuration requires (one per edge for edge
        /// schemes; one per vertex for the Proposition 2.1 transform).
        expected: usize,
        /// Labels actually supplied.
        got: usize,
    },
    /// The requested scheme name is none of the names in
    /// [`registry`](crate::registry).
    UnknownScheme {
        /// The name that failed to resolve.
        name: String,
    },
    /// The builder/spec is missing something the scheme factory requires
    /// (e.g. the Theorem 1 scheme without a property algebra).
    InvalidSpec(String),
    /// An [`EncodedLabeling`](crate::EncodedLabeling) was recorded under
    /// a different algebra table than the scheme verifying it (a label
    /// corpus from another workspace version or another property/width).
    /// Canonical class ids only mean anything relative to their frozen
    /// table, so the mismatch fails loudly instead of misdecoding.
    FingerprintMismatch {
        /// The verifying scheme's fingerprint.
        expected: u64,
        /// The fingerprint recorded on the labeling.
        got: u64,
    },
    /// Internal pipeline failure (a bug; surfaced for diagnosis).
    Internal(String),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Disconnected => write!(f, "network must be connected"),
            CertError::PropertyViolated => write!(f, "configuration violates the property"),
            CertError::TooManyLanes { needed, bound } => {
                write!(f, "layout needs {needed} lanes, verifier bound is {bound}")
            }
            CertError::NeedRepresentation => {
                write!(
                    f,
                    "graph too large for automatic decomposition (exact solver \
                     and heuristic fallback); supply a representation"
                )
            }
            CertError::LabelCountMismatch { expected, got } => {
                write!(
                    f,
                    "labeling has {got} labels, configuration needs {expected}"
                )
            }
            CertError::UnknownScheme { name } => {
                write!(f, "no scheme named {name:?} in the registry")
            }
            CertError::InvalidSpec(msg) => write!(f, "invalid scheme spec: {msg}"),
            CertError::FingerprintMismatch { expected, got } => {
                write!(
                    f,
                    "labeling was recorded under algebra fingerprint {got:#018x}, \
                     scheme expects {expected:#018x} (cross-version or cross-scheme corpus)"
                )
            }
            CertError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl Error for CertError {}

impl CertError {
    /// `true` for the model-level prover refusals (the configuration is a
    /// no-instance), as opposed to harness/spec errors.
    pub fn is_refusal(&self) -> bool {
        matches!(
            self,
            CertError::Disconnected | CertError::PropertyViolated | CertError::TooManyLanes { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        for (e, needle) in [
            (CertError::Disconnected, "connected"),
            (CertError::PropertyViolated, "violates"),
            (
                CertError::TooManyLanes {
                    needed: 5,
                    bound: 3,
                },
                "5 lanes",
            ),
            (CertError::NeedRepresentation, "representation"),
            (
                CertError::LabelCountMismatch {
                    expected: 4,
                    got: 2,
                },
                "needs 4",
            ),
            (
                CertError::UnknownScheme {
                    name: "nope".into(),
                },
                "nope",
            ),
            (CertError::InvalidSpec("x".into()), "spec"),
            (
                CertError::FingerprintMismatch {
                    expected: 1,
                    got: 2,
                },
                "fingerprint",
            ),
            (CertError::Internal("y".into()), "internal"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn refusal_classification() {
        assert!(CertError::PropertyViolated.is_refusal());
        assert!(CertError::Disconnected.is_refusal());
        assert!(!CertError::NeedRepresentation.is_refusal());
        assert!(!CertError::LabelCountMismatch {
            expected: 1,
            got: 0
        }
        .is_refusal());
    }
}
