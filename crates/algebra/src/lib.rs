//! Homomorphism-class algebras for MSO₂ properties over terminal graphs —
//! the executable form of Propositions 2.4 and 6.1 of the paper.
//!
//! A [`Property`] summarizes a *terminal graph* (a graph with an ordered
//! list of live terminal slots) into a finite state, under five primitive
//! operations: introduce a vertex, introduce a (marked or unmarked) edge
//! between slots, glue two slots, forget a slot, and disjoint union. The
//! paper's `Bridge-merge`/`Parent-merge` class functions `f_B`/`f_P`
//! (Proposition 6.1) are compositions of these primitives, computed by the
//! certification crate.
//!
//! [`Algebra`] erases the concrete state type behind pure value
//! operations on [`Class`] handles; [`FrozenAlgebra`] assigns each class
//! a **canonical** `O(1)`-bit [`StateId`] — exactly what the certificates
//! store — by enumerating the reachable state space up front in a
//! deterministic, structurally sorted order. Prover and verifier share
//! one frozen table (the finite transition tables are "global
//! knowledge": they depend only on `ϕ` and `k`, never on the network —
//! and, since the freeze, never on prover execution order either).
//!
//! Every implementation is validated two ways:
//! * against a brute-force oracle on randomly generated operation traces
//!   (the [`mirror`] harness replays the trace as a concrete graph);
//! * against the naive MSO₂ model checker of `lanecert-mso` (experiment T7).
//!
//! Semantics note: properties are evaluated on the **marked subgraph**
//! (unmarked edges are completion-only edges and are ignored), with
//! multigraph conventions; the certification pipeline only ever builds
//! simple graphs, and the trace generator mirrors that.

mod algebra;
mod frozen;
mod fx;
mod property;

pub use algebra::{Algebra, Class, SharedAlgebra};
pub use frozen::{
    flush_row_counters, FreezeOptions, FrozenAlgebra, SharedFrozenAlgebra, StateId,
    DEFAULT_OP_BUDGET, DEFAULT_STATE_BUDGET, MAX_FREEZE_ARITY,
};
pub use fx::{FxBuildHasher, FxHasher};
pub use property::{glue_order, Property, Slot};

pub mod mirror;
pub mod props;
