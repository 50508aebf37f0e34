//! Stable scheme names.
//!
//! Each name selects one scheme in
//! [`CertifierBuilder::scheme`](crate::CertifierBuilder::scheme), and the
//! bench tables and CLI flags use the same strings:
//!
//! | name | scheme | labels |
//! |------|--------|--------|
//! | [`THEOREM1`] | the paper's Theorem 1 scheme | `O(log n)` bits |
//! | [`FMR_BASELINE`] | FMR+24-style balanced-recursion baseline | `O(log² n)` bits |
//! | [`BIPARTITE_1BIT`] | the classic 1-bit bipartiteness scheme | 2 bits |
//! | [`WHOLE_GRAPH`] | trivial whole-graph yardstick | `Θ((n+m) log n)` bits |
//! | [`COMPILED`] | Courcelle front-end over an MSO₂ formula | `O(log n)` bits |
//!
//! The set is closed: [`CertifierBuilder::build`](crate::CertifierBuilder::build)
//! matches on these names, so a new backend is one more constant here and
//! one more match arm there.

/// Name of the Theorem 1 scheme.
pub const THEOREM1: &str = "theorem1";
/// Name of the FMR+24-style `O(log² n)` baseline.
pub const FMR_BASELINE: &str = "fmr-baseline";
/// Name of the classic 1-bit bipartiteness scheme.
pub const BIPARTITE_1BIT: &str = "bipartite-1bit";
/// Name of the trivial whole-graph yardstick scheme.
pub const WHOLE_GRAPH: &str = "whole-graph";
/// Name of the compiled-formula (Courcelle front-end) scheme.
pub const COMPILED: &str = "compiled";
