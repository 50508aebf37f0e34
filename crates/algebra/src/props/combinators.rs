//! Boolean combinators over properties: [`And`], [`Or`], [`Not`].
//!
//! These realize the closure of certifiable properties under boolean
//! connectives — the homomorphism class of a conjunction is the product of
//! the classes (Proposition 2.4 composes).

use crate::{Property, Slot};

/// Conjunction of two properties (product state).
#[derive(Clone, Debug)]
pub struct And<P, Q>(pub P, pub Q);

/// Disjunction of two properties (product state).
#[derive(Clone, Debug)]
pub struct Or<P, Q>(pub P, pub Q);

/// Negation of a property (same state, flipped acceptance — valid because
/// the state determines acceptance).
#[derive(Clone, Debug)]
pub struct Not<P>(pub P);

macro_rules! product_ops {
    () => {
        fn empty(&self) -> Self::State {
            (self.0.empty(), self.1.empty())
        }
        fn add_vertex(&self, s: &Self::State) -> Self::State {
            (self.0.add_vertex(&s.0), self.1.add_vertex(&s.1))
        }
        fn add_edge(&self, s: &Self::State, a: Slot, b: Slot, marked: bool) -> Self::State {
            (
                self.0.add_edge(&s.0, a, b, marked),
                self.1.add_edge(&s.1, a, b, marked),
            )
        }
        fn glue(&self, s: &Self::State, a: Slot, b: Slot) -> Self::State {
            (self.0.glue(&s.0, a, b), self.1.glue(&s.1, a, b))
        }
        fn forget(&self, s: &Self::State, a: Slot) -> Self::State {
            (self.0.forget(&s.0, a), self.1.forget(&s.1, a))
        }
        fn union(&self, s1: &Self::State, s2: &Self::State) -> Self::State {
            (self.0.union(&s1.0, &s2.0), self.1.union(&s1.1, &s2.1))
        }
        fn swap(&self, s: &Self::State, a: Slot, b: Slot) -> Self::State {
            (self.0.swap(&s.0, a, b), self.1.swap(&s.1, a, b))
        }
    };
}

impl<P: Property, Q: Property> Property for And<P, Q> {
    type State = (P::State, Q::State);

    fn name(&self) -> String {
        format!("({} ∧ {})", self.0.name(), self.1.name())
    }

    product_ops!();

    fn accept(&self, s: &Self::State) -> bool {
        self.0.accept(&s.0) && self.1.accept(&s.1)
    }

    fn enumerable(&self) -> bool {
        self.0.enumerable() && self.1.enumerable()
    }
}

impl<P: Property, Q: Property> Property for Or<P, Q> {
    type State = (P::State, Q::State);

    fn name(&self) -> String {
        format!("({} ∨ {})", self.0.name(), self.1.name())
    }

    product_ops!();

    fn accept(&self, s: &Self::State) -> bool {
        self.0.accept(&s.0) || self.1.accept(&s.1)
    }

    fn enumerable(&self) -> bool {
        self.0.enumerable() && self.1.enumerable()
    }
}

impl<P: Property> Property for Not<P> {
    type State = P::State;

    fn name(&self) -> String {
        format!("¬{}", self.0.name())
    }

    fn empty(&self) -> Self::State {
        self.0.empty()
    }
    fn add_vertex(&self, s: &Self::State) -> Self::State {
        self.0.add_vertex(s)
    }
    fn add_edge(&self, s: &Self::State, a: Slot, b: Slot, marked: bool) -> Self::State {
        self.0.add_edge(s, a, b, marked)
    }
    fn glue(&self, s: &Self::State, a: Slot, b: Slot) -> Self::State {
        self.0.glue(s, a, b)
    }
    fn forget(&self, s: &Self::State, a: Slot) -> Self::State {
        self.0.forget(s, a)
    }
    fn union(&self, s1: &Self::State, s2: &Self::State) -> Self::State {
        self.0.union(s1, s2)
    }
    fn swap(&self, s: &Self::State, a: Slot, b: Slot) -> Self::State {
        self.0.swap(s, a, b)
    }

    fn accept(&self, s: &Self::State) -> bool {
        !self.0.accept(s)
    }

    fn enumerable(&self) -> bool {
        self.0.enumerable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::{check_against_oracle, oracles};
    use crate::props::{Bipartite, Connected, Forest};
    use crate::Algebra;

    #[test]
    fn tree_is_connected_and_forest() {
        let alg = Algebra::new(And(Connected, Forest));
        check_against_oracle(
            &alg,
            &|g| oracles::connected(g) && oracles::forest(g),
            71,
            100,
            8,
        );
    }

    #[test]
    fn or_and_not_match_oracles() {
        let alg = Algebra::new(Or(Bipartite, Connected));
        check_against_oracle(
            &alg,
            &|g| oracles::bipartite(g) || oracles::connected(g),
            72,
            80,
            8,
        );
        let alg = Algebra::new(Not(Forest));
        check_against_oracle(&alg, &|g| !oracles::forest(g), 73, 80, 8);
    }

    #[test]
    fn names_compose() {
        assert_eq!(
            Algebra::new(And(Connected, Not(Forest))).name(),
            "(connected ∧ ¬forest)"
        );
    }
}
