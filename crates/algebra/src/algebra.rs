//! Type-erased, **value-semantics** wrapper around a [`Property`].
//!
//! An [`Algebra`] applies the five primitive operations to erased state
//! values ([`Class`]) — it holds no table, no lock, and no mutable state,
//! so every operation is a pure function and an `Algebra` can be shared
//! freely across threads. Canonical `O(1)`-bit identifiers for classes
//! (what certificates carry on the wire) are the job of
//! [`FrozenAlgebra`](crate::FrozenAlgebra), which is built *once* per
//! `(property, interface width)` and never depends on the order in which
//! a prover happens to visit states.

use std::any::Any;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{FxHasher, Property, Slot};

/// An `Algebra` shared between the prover and all verifier invocations.
pub type SharedAlgebra = Arc<Algebra>;

/// A type-erased homomorphism-class *value*: the property state together
/// with its boundary arity (number of live terminal slots).
///
/// `Class` is a value, not a table index: cloning is an `Arc` bump, and
/// equality is structural (two classes are equal exactly when they came
/// from the same state type and compare equal as states at the same
/// arity). The structural hash is computed once, when an operation builds
/// the class: hashing writes that one word, and equality returns early on
/// a hash mismatch or on a shared state pointer, so a class keys a map in
/// `O(1)`. The wire-level [`StateId`](crate::StateId)s are assigned by
/// [`FrozenAlgebra`](crate::FrozenAlgebra).
#[derive(Clone)]
pub struct Class(Arc<Node<dyn ErasedState>>);

/// What a [`Class`] points to: the state, behind its arity and its
/// cached hash (one pointer per class value, however many copies).
struct Node<S: ?Sized> {
    arity: usize,
    /// [`FxHasher`] digest of `(arity, state)`.
    hash: u64,
    state: S,
}

impl Class {
    /// Number of boundary slots of this class. Verifiers check a
    /// certificate's claimed class against its claimed interface size
    /// before applying slot-indexed operations, so adversarial class ids
    /// can never drive a property implementation out of bounds.
    pub fn arity(&self) -> usize {
        self.0.arity
    }

    /// The canonical structural key used for the freeze pass's sort and
    /// fingerprinting: the arity plus the state's `Debug` rendering.
    /// Derived `Debug` impls are faithful renderings of the state, so the
    /// key orders distinct states deterministically across runs and
    /// builds. The rendering is shrunk to its length: the freeze pass
    /// holds one key per class at once.
    pub(crate) fn structural_key(&self) -> (usize, String) {
        let mut key = format!("{:?}", &self.0.state);
        key.shrink_to_fit();
        (self.0.arity, key)
    }
}

impl PartialEq for Class {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (a.hash == b.hash && a.arity == b.arity && a.state.eq_dyn(&b.state))
    }
}

impl Eq for Class {}

impl Hash for Class {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.0.hash);
    }
}

impl fmt::Debug for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Class")
            .field("arity", &self.0.arity)
            .field("state", &&self.0.state)
            .finish()
    }
}

/// Object-safe view of a property state: `Any` for downcasting plus
/// dynamic equality (states of different property types never compare
/// equal).
trait ErasedState: Any + Send + Sync + fmt::Debug {
    fn eq_dyn(&self, other: &dyn ErasedState) -> bool;
    fn as_any(&self) -> &dyn Any;
}

impl<S: Eq + fmt::Debug + Send + Sync + 'static> ErasedState for S {
    fn eq_dyn(&self, other: &dyn ErasedState) -> bool {
        other.as_any().downcast_ref::<S>() == Some(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

trait ErasedProp: Send + Sync {
    fn name(&self) -> String;
    fn enumerable(&self) -> bool;
    fn empty(&self) -> Class;
    fn add_vertex(&self, s: Class) -> Class;
    fn add_edge(&self, s: Class, a: Slot, b: Slot, marked: bool) -> Class;
    fn glue(&self, s: Class, a: Slot, b: Slot) -> Class;
    fn forget(&self, s: Class, a: Slot) -> Class;
    fn union(&self, s1: Class, s2: Class) -> Class;
    fn swap(&self, s: Class, a: Slot, b: Slot) -> Class;
    fn accept(&self, s: &Class) -> bool;
}

struct TypedProp<P: Property>(P);

impl<P: Property> TypedProp<P> {
    fn state<'a>(&self, c: &'a Class) -> &'a P::State {
        c.0.state
            .as_any()
            .downcast_ref()
            .expect("class value belongs to a different property algebra")
    }

    fn wrap(&self, state: P::State, arity: usize) -> Class {
        let mut h = FxHasher::default();
        arity.hash(&mut h);
        state.hash(&mut h);
        Class(Arc::new(Node {
            arity,
            hash: h.finish(),
            state,
        }))
    }
}

impl<P: Property> ErasedProp for TypedProp<P> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn enumerable(&self) -> bool {
        self.0.enumerable()
    }
    fn empty(&self) -> Class {
        self.wrap(self.0.empty(), 0)
    }
    fn add_vertex(&self, s: Class) -> Class {
        let out = self.0.add_vertex(self.state(&s));
        self.wrap(out, s.arity() + 1)
    }
    fn add_edge(&self, s: Class, a: Slot, b: Slot, marked: bool) -> Class {
        let out = self.0.add_edge(self.state(&s), a, b, marked);
        self.wrap(out, s.arity())
    }
    fn glue(&self, s: Class, a: Slot, b: Slot) -> Class {
        let out = self.0.glue(self.state(&s), a, b);
        self.wrap(out, s.arity().saturating_sub(1))
    }
    fn forget(&self, s: Class, a: Slot) -> Class {
        let out = self.0.forget(self.state(&s), a);
        self.wrap(out, s.arity().saturating_sub(1))
    }
    fn union(&self, s1: Class, s2: Class) -> Class {
        let out = self.0.union(self.state(&s1), self.state(&s2));
        self.wrap(out, s1.arity() + s2.arity())
    }
    fn swap(&self, s: Class, a: Slot, b: Slot) -> Class {
        let out = self.0.swap(self.state(&s), a, b);
        self.wrap(out, s.arity())
    }
    fn accept(&self, s: &Class) -> bool {
        self.0.accept(self.state(s))
    }
}

/// A type-erased homomorphism algebra operating on [`Class`] values.
///
/// All methods are pure: they take state values and return new state
/// values, with no interior mutability anywhere — one `Arc<Algebra>`
/// serves the prover and every simulated verifier concurrently without
/// a single lock.
///
/// # Panics
///
/// Operations panic when handed a [`Class`] produced by a *different*
/// property algebra (a programming error, not an adversarial input —
/// adversarial wire ids are resolved through
/// [`FrozenAlgebra::class_of`](crate::FrozenAlgebra::class_of), which
/// returns `None` for unknown ids).
pub struct Algebra {
    inner: Box<dyn ErasedProp>,
}

impl Algebra {
    /// Wraps a property.
    pub fn new<P: Property>(prop: P) -> Self {
        Self {
            inner: Box::new(TypedProp(prop)),
        }
    }

    /// Wraps a property into a shareable handle.
    pub fn shared<P: Property>(prop: P) -> SharedAlgebra {
        Arc::new(Self::new(prop))
    }

    /// The property's name.
    pub fn name(&self) -> String {
        self.inner.name()
    }

    /// Whether the property declares its reachable state space small
    /// enough for the freeze pass to enumerate (see
    /// [`Property::enumerable`]).
    pub fn enumerable(&self) -> bool {
        self.inner.enumerable()
    }

    /// State of the empty graph.
    pub fn empty(&self) -> Class {
        self.inner.empty()
    }

    /// Introduce a vertex as a new trailing slot.
    pub fn add_vertex(&self, s: Class) -> Class {
        self.inner.add_vertex(s)
    }

    /// Introduce an edge between two slots.
    pub fn add_edge(&self, s: Class, a: Slot, b: Slot, marked: bool) -> Class {
        self.inner.add_edge(s, a, b, marked)
    }

    /// Identify two slots.
    pub fn glue(&self, s: Class, a: Slot, b: Slot) -> Class {
        self.inner.glue(s, a, b)
    }

    /// Retire a slot.
    pub fn forget(&self, s: Class, a: Slot) -> Class {
        self.inner.forget(s, a)
    }

    /// Disjoint union (slots of `s2` appended).
    pub fn union(&self, s1: Class, s2: Class) -> Class {
        self.inner.union(s1, s2)
    }

    /// Exchanges two slots (a pure renaming).
    pub fn swap(&self, s: Class, a: Slot, b: Slot) -> Class {
        self.inner.swap(s, a, b)
    }

    /// Acceptance of the summarized graph.
    pub fn accept(&self, s: &Class) -> bool {
        self.inner.accept(s)
    }
}

impl fmt::Debug for Algebra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Algebra")
            .field("property", &self.inner.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{Bipartite, Connected};

    #[test]
    fn class_values_compare_structurally() {
        let alg = Algebra::new(Connected);
        let a = alg.add_vertex(alg.empty());
        let b = alg.add_vertex(alg.empty());
        assert_eq!(a, b);
        assert_eq!(a.arity(), 1);
        let c = alg.add_vertex(a.clone());
        assert_ne!(a, c);
        use std::collections::HashSet;
        let set: HashSet<Class> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn classes_of_different_properties_never_equal() {
        let conn = Algebra::new(Connected);
        let bip = Algebra::new(Bipartite);
        // Both are "one fresh vertex", but the state types differ.
        let a = conn.add_vertex(conn.empty());
        let b = bip.add_vertex(bip.empty());
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "different property algebra")]
    fn foreign_class_is_a_programming_error() {
        let conn = Algebra::new(Connected);
        let bip = Algebra::new(Bipartite);
        let s = conn.empty();
        let _ = bip.add_vertex(s);
    }

    #[test]
    fn operations_are_pure_and_shareable() {
        let alg = Algebra::shared(Connected);
        let base = alg.add_vertex(alg.empty());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let alg = Arc::clone(&alg);
                let base = base.clone();
                std::thread::spawn(move || {
                    let s = alg.add_vertex(base);
                    let s = alg.add_edge(s, 0, 1, true);
                    alg.accept(&s)
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }
}
