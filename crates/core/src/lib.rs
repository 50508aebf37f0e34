//! Proof labeling schemes for MSO₂ properties on graphs of bounded
//! pathwidth — the main contribution of Baterisna & Chang (PODC 2025),
//! with optimal `O(log n)`-bit labels (Theorem 1).
//!
//! # Model
//!
//! A [`Configuration`] is a connected network: a graph whose vertices carry
//! distinct `O(log n)`-bit identifiers. A *prover* assigns a label to every
//! edge (or vertex); a *verifier* runs at each vertex, seeing only its own
//! state and the labels on its incident edges, and outputs accept/reject.
//! The scheme is correct when honest labelings are accepted everywhere
//! (completeness) and no labeling of a violating configuration is accepted
//! everywhere (soundness). Label sizes are measured in bits of the actual
//! wire encoding ([`bits`]).
//!
//! # The unified API
//!
//! Every scheme implements the [`Scheme`] trait ([`scheme`]); the
//! [`erased`] layer makes them object-safe over encoded byte labels;
//! [`Certifier`] ([`certifier`]) is the fluent entry point, which builds
//! one of the five schemes named in [`registry`]; and [`BatchRunner`]
//! ([`batch`]) certifies many configurations in one call. Failures travel
//! through the single [`CertError`] type ([`error`]). Start here:
//!
//! ```
//! use lanecert::{BatchJob, BatchRunner, Certifier, Configuration};
//! use lanecert_algebra::{props::Connected, Algebra};
//! use lanecert_graph::generators;
//!
//! let certifier = Certifier::builder()
//!     .property(Algebra::shared(Connected))
//!     .pathwidth(2)
//!     .scheme("theorem1") // or "fmr-baseline", "bipartite-1bit", ...
//!     .build()
//!     .unwrap();
//! let report = BatchRunner::new(certifier).run([
//!     BatchJob::new(Configuration::with_random_ids(generators::cycle_graph(8), 1)),
//!     BatchJob::new(Configuration::with_random_ids(generators::ladder(4), 2)),
//! ]);
//! assert!(report.all_accepted());
//! ```
//!
//! # Contents
//!
//! * [`theorem1`] — the paper's scheme: certify `ϕ ∧ (pathwidth ≤ k)` with
//!   `O(log n)`-bit labels, for any property `ϕ` given as a homomorphism
//!   algebra (`lanecert-algebra`).
//! * [`mod@pointer`] — Proposition 2.2 (certify that a vertex with a given
//!   identifier exists), via distance labels.
//! * [`transform`] — Proposition 2.1 (edge labels → vertex labels along a
//!   bounded-outdegree orientation, port-numbering model).
//! * [`simple`] — the 1-bit bipartiteness scheme from the introduction and
//!   the trivial whole-graph scheme.
//! * [`compiled`] — the Courcelle-style front-end: compile any MSO₂
//!   [`Formula`](lanecert_mso::Formula) into a Theorem 1 certifier
//!   (scheme name `"compiled"`).
//! * [`baseline`] — an FMR+24-style `O(log² n)` baseline for label-size
//!   comparison.
//! * [`attacks`] — soundness fuzzing (typed and wire-level) and the classic
//!   `Ω(log n)` cut-and-splice lower-bound demonstration.

pub mod bits;
pub mod config;
pub mod inline;
pub use config::Configuration;

pub mod error;
pub use error::CertError;

pub mod scheme;
pub use scheme::{ProverHint, RunReport, Scheme, Verdict, VertexView, AUTO_HEURISTIC_LIMIT};

pub mod erased;
pub use erased::{BoxedScheme, DynScheme, EncodedLabel, EncodedLabelRef, EncodedLabeling};

pub mod registry;

pub mod certifier;
pub use certifier::{Certifier, CertifierBuilder};

pub mod batch;
pub use batch::{BatchJob, BatchOutcome, BatchReport, BatchRunner};

pub mod pointer;
pub mod simple;
pub mod transform;

pub mod theorem1;
pub use theorem1::{PathwidthScheme, SchemeOptions};

pub mod compiled;
pub use compiled::{compile_scheme, StandardFormula};

pub mod baseline;

pub mod attacks;
