//! The [`Property`] trait: a homomorphism algebra over terminal-graph
//! primitives.

use std::fmt::Debug;
use std::hash::Hash;

/// Index of a live terminal slot (0-based, dense). Forgetting or gluing a
/// slot shifts every higher slot down by one.
pub type Slot = usize;

/// A finite-state summary of terminal graphs under the five primitive
/// operations. Implementations must be *congruences*: states reachable by
/// different histories of the same graph-with-terminals must agree on
/// acceptance after any common continuation — the trace harness
/// ([`crate::mirror`]) tests exactly this against brute force.
pub trait Property: Send + Sync + 'static {
    /// The state type (interned by [`crate::Algebra`]).
    type State: Clone + Eq + Hash + Debug + Send + Sync;

    /// Human-readable property name (diagnostics and experiment tables).
    fn name(&self) -> String;

    /// The state of the empty graph (no vertices, no slots).
    fn empty(&self) -> Self::State;

    /// Introduce a fresh vertex as a new terminal slot (appended at the
    /// end). Vertices carry no input label: the certified graph is the
    /// network itself.
    fn add_vertex(&self, s: &Self::State) -> Self::State;

    /// Introduce an edge between slots `a` and `b`. `marked` edges belong
    /// to the certified subgraph; unmarked edges are structural only and
    /// must not affect the property.
    fn add_edge(&self, s: &Self::State, a: Slot, b: Slot, marked: bool) -> Self::State;

    /// Identify the vertices at slots `a` and `b` (`a != b`). The merged
    /// vertex keeps slot `min(a, b)`; the other slot disappears and higher
    /// slots shift down.
    fn glue(&self, s: &Self::State, a: Slot, b: Slot) -> Self::State;

    /// Retire the vertex at slot `a` (it stays in the graph but can never
    /// gain another edge). Higher slots shift down.
    fn forget(&self, s: &Self::State, a: Slot) -> Self::State;

    /// Disjoint union: the slots of `s2` are appended after those of `s1`.
    fn union(&self, s1: &Self::State, s2: &Self::State) -> Self::State;

    /// Exchanges two slots (a pure renaming; the graph is unchanged).
    /// Used to keep slot order canonical so that prover and verifier derive
    /// identical interned classes from the same interface data.
    fn swap(&self, s: &Self::State, a: Slot, b: Slot) -> Self::State;

    /// Does the summarized graph (terminals included as ordinary vertices)
    /// satisfy the property?
    fn accept(&self, s: &Self::State) -> bool;

    /// Whether the reachable state space is small enough for the freeze
    /// pass ([`crate::FrozenAlgebra::freeze`]) to enumerate at bounded
    /// arity. Defaults to `true`; properties with set-valued states that
    /// explode combinatorially (Hamiltonicity profiles, colouring sets,
    /// weight maps, …) override this to `false` and run sealed — a budget
    /// overrun catches anything that over-promises, so this is a fast
    /// path, not a soundness knob.
    fn enumerable(&self) -> bool {
        true
    }
}

/// Slot arithmetic shared by implementations: given a glue of `a` and `b`,
/// returns `(keep, drop)` with `keep < drop`.
pub fn glue_order(a: Slot, b: Slot) -> (Slot, Slot) {
    assert_ne!(a, b, "cannot glue a slot with itself");
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glue_order_normalizes() {
        assert_eq!(glue_order(3, 1), (1, 3));
        assert_eq!(glue_order(0, 2), (0, 2));
    }

    #[test]
    #[should_panic(expected = "cannot glue")]
    fn glue_order_rejects_equal() {
        let _ = glue_order(1, 1);
    }
}
