//! Facade crate for the `lanecert` workspace.
//!
//! Re-exports every workspace crate under one roof so that examples and
//! integration tests can depend on a single package:
//!
//! * [`graph`] — graph substrate (structures, traversal, generators).
//! * [`pathwidth`] — path decompositions, interval representations, solvers.
//! * [`lanes`] — Sections 4–5 of the paper: lane partitions, completions,
//!   low-congestion embeddings, lanewidth, hierarchical decompositions.
//! * [`mso`] — MSO₂ logic: AST, parser, naive model checker, formula library.
//! * [`algebra`] — homomorphism-class algebras (Propositions 2.4/6.1),
//!   with the canonical frozen id table that makes proving a pure
//!   function of the job (`algebra::FrozenAlgebra`).
//! * [`pls`] — the proof labeling schemes themselves (Theorem 1 scheme,
//!   baselines, attacks, harness).
//! * [`engine`] — the parallel certification engine: a work-stealing
//!   executor plus a streaming corpus pipeline ([`Engine`],
//!   [`CorpusSpec`]).
//! * [`obs`] — structured tracing, metrics, and the blessed [`obs::Clock`]
//!   timing source; zero-cost unless the `obs` feature enables recording.
//!
//! The unified certification API is additionally re-exported at the crate
//! root, so the common path is one import away:
//!
//! ```
//! use lanecert_suite::{Certifier, Configuration};
//! use lanecert_suite::algebra::{props::Bipartite, Algebra};
//! use lanecert_suite::graph::generators;
//!
//! let certifier = Certifier::builder()
//!     .property(Algebra::shared(Bipartite))
//!     .pathwidth(2)
//!     .build()
//!     .unwrap();
//! let cfg = Configuration::with_random_ids(generators::cycle_graph(12), 7);
//! assert!(certifier.run(&cfg).unwrap().accepted());
//! ```

pub use lanecert as pls;
pub use lanecert_algebra as algebra;
pub use lanecert_engine as engine;
pub use lanecert_graph as graph;
pub use lanecert_lanes as lanes;
pub use lanecert_mso as mso;
pub use lanecert_obs as obs;
pub use lanecert_pathwidth as pathwidth;

pub use lanecert::{
    BatchJob, BatchOutcome, BatchReport, BatchRunner, BoxedScheme, CertError, Certifier,
    CertifierBuilder, Configuration, DynScheme, EncodedLabel, EncodedLabelRef, EncodedLabeling,
    ProverHint, RunReport, Scheme, Verdict, VertexView, AUTO_HEURISTIC_LIMIT,
};

pub use lanecert_engine::{CorpusFamily, CorpusSpec, Engine, EngineBuilder, EngineReport};
