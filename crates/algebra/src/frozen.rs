//! Canonical state interning: the two-phase freeze pass.
//!
//! # The canonical-id invariant
//!
//! A [`StateId`] on the wire must be a function of `(property, interface
//! width)` alone — never of the order in which a prover happened to visit
//! states. This is what makes proving a *pure* function of
//! `(graph, property, hint)`: two provers labelling different graphs on
//! different threads, in any interleaving, assign the same id to the same
//! homomorphism class, so label bytes (and therefore varint label sizes)
//! are reproducible at any worker count.
//!
//! The freeze pass ([`FrozenAlgebra::freeze`]) enumerates the reachable
//! `(arity, state)` space of a property under the primitive operations,
//! bounded by an arity cap and a state/op budget, then sorts the
//! discovered classes by a **structural key** (arity, then the state's
//! `Debug` rendering — insertion order plays no part) and assigns dense
//! ids `0..n` in that order. The resulting table is immutable and shared
//! via `Arc`; lookups are content-addressed and lock-free.
//!
//! # The generating set
//!
//! The operations commute with renaming slots, so the enumeration closes
//! the space under a *generating set* only: `add_vertex`, the other
//! unary operations on the first slots, the adjacent swaps (which reach
//! every permutation), and `union` once per pair of orbit
//! representatives. It finds the classes that applying every operation
//! at every slot finds, with about a sixth of the operations; the
//! private `enumerate` docs give the argument and the failure mode.
//!
//! # Transition rows
//!
//! The closure applies every adjacent swap `swap(i, i + 1)` to every
//! state anyway, so a total table keeps those results: one dense `u32`
//! row per class, `row[id × (max_arity − 1) + i]` holding the canonical
//! id of `swap(class, i, i + 1)` (only the result's index is kept during
//! the closure, never a second copy of the class). [`FrozenAlgebra::swap`]
//! answers a transposition `(a, b)` as a walk of `2|a − b| − 1` such rows,
//! `a`, …, `b − 1`, …, `a` — a palindrome, so the order in which the
//! renamings compose does not matter — instead of rebuilding the state.
//! This is exact: the rows are the algebra's own results, and a
//! transposition is that product of adjacent ones, so every slot renaming
//! the algebra performs lands on the same class. The rows cost
//! `|C| × (max_arity − 1) × 4` bytes: about 34 KB for compiled
//! `connected` at arity 4, 150 KB for compiled `independent-set-2`.
//! Sealed tables keep no rows and run the algebra.
//!
//! # The sealed fallback
//!
//! Some algebras are too large to pre-enumerate (set-valued states such
//! as [`HamiltonianCycle`](crate::props::HamiltonianCycle) explode
//! combinatorially; such properties opt out via
//! [`Property::enumerable`](crate::Property::enumerable), and budget
//! overruns catch the rest). These fall back to a *sealed* table: the
//! canonically sorted prefix of whatever the budgeted enumeration
//! reached, plus a lock-guarded dynamic tail that interns unseen states
//! in arrival order. Sealed tables keep prover/verifier agreement (they
//! share the instance), but tail ids are order-dependent — so label
//! *sizes* under a sealed algebra are only reproducible for sequential
//! proving. [`FrozenAlgebra::is_total`] reports which regime a table is
//! in; everything shipped in the standard registry at the widths the
//! benchmarks use freezes totally.
//!
//! Total freeze results are memoized process-wide per `(property name,
//! options)` — property names must therefore faithfully identify
//! semantics (all built-in names do). Sealed tables are never shared
//! between scheme instances.

// lint: allow(interior-mut) reason="per-thread row-swap counters, flushed to obs; never read by an operation"
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
// lint: allow(interior-mut) reason="imports for the documented sealed tail and the freeze cache; every use site carries its own suppression"
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use lanecert_obs::{counter_add, names};

use crate::{Algebra, Class, FxBuildHasher, SharedAlgebra, Slot};

/// A map keyed by classes, which hash to their cached structural digest.
type ClassMap<V> = HashMap<Class, V, FxBuildHasher>;

/// An interned homomorphism class id — the `O(1)`-bit value certificates
/// carry (the class space `C` of Proposition 2.4 depends only on `ϕ` and
/// `k`). Assigned canonically by [`FrozenAlgebra`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(pub u32);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A [`FrozenAlgebra`] shared between the prover and all verifier
/// invocations.
pub type SharedFrozenAlgebra = Arc<FrozenAlgebra>;

/// Largest arity cap the freeze pass will attempt to enumerate; wider
/// requests seal immediately (the reachable space of a partition-shaped
/// property already has millions of states past eight slots).
pub const MAX_FREEZE_ARITY: usize = 8;

/// Default bound on enumerated states before the freeze pass gives up
/// and seals.
pub const DEFAULT_STATE_BUDGET: usize = 60_000;

/// Default bound on primitive-operation applications before the freeze
/// pass gives up and seals (the abort path for algebras whose state
/// count grows slowly but whose states are expensive). Counts generator
/// applications (see [`FreezeOptions::op_budget`]).
pub const DEFAULT_OP_BUDGET: usize = 4_000_000;

/// Tuning for [`FrozenAlgebra::freeze`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FreezeOptions {
    /// Enumerate states with at most this many boundary slots. Requests
    /// above [`MAX_FREEZE_ARITY`] seal immediately.
    pub max_arity: usize,
    /// Abort enumeration (and seal) past this many distinct states.
    pub state_budget: usize,
    /// Abort enumeration (and seal) past this many operation
    /// applications. Only the generating set of the module docs counts:
    /// per state, `add_vertex`, two `add_edge`s, one `glue`, one
    /// `forget` and `arity − 1` adjacent swaps, plus one `union` per
    /// pair of orbit representatives whose arities fit the cap. Where the
    /// budget is hit decides which prefix a sealed table keeps.
    pub op_budget: usize,
}

impl Default for FreezeOptions {
    fn default() -> Self {
        Self {
            max_arity: MAX_FREEZE_ARITY,
            state_budget: DEFAULT_STATE_BUDGET,
            op_budget: DEFAULT_OP_BUDGET,
        }
    }
}

impl FreezeOptions {
    /// Options for interfaces of at most `arity` slots (the Theorem 1
    /// scheme passes `2 × max_lanes`: an interface has at most one in-
    /// and one out-terminal per lane).
    pub fn for_interface_arity(arity: usize) -> Self {
        Self {
            max_arity: arity,
            ..Self::default()
        }
    }
}

/// A transition-row entry with no class behind it: a slot past the
/// class's arity.
const NO_ROW: u32 = u32::MAX;

thread_local! {
    // lint: allow(interior-mut) reason="per-thread row-swap counters, flushed to obs; never read by an operation"
    static ROW_COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Adds this thread's [`FrozenAlgebra::swap`] counts since the last call
/// to the obs counters: swaps answered from transition rows
/// ([`names::FROZEN_ROW_SWAPS`]) and swaps a total table handed to the
/// algebra ([`names::FROZEN_ROW_FALLBACKS`]).
pub fn flush_row_counters() {
    if !lanecert_obs::COMPILED {
        return;
    }
    let (rows, fallbacks) = ROW_COUNTS.with(|c| c.take());
    if rows + fallbacks > 0 {
        counter_add(names::FROZEN_ROW_SWAPS, rows);
        counter_add(names::FROZEN_ROW_FALLBACKS, fallbacks);
    }
}

/// The dynamic tail of a sealed table.
#[derive(Default)]
struct Tail {
    classes: Vec<Class>,
    index: ClassMap<u32>,
}

/// An immutable, canonically ordered class table over an [`Algebra`] —
/// see the crate docs for the invariant. Dereferences to the
/// underlying [`Algebra`], so the primitive operations are available
/// directly on a `FrozenAlgebra`; [`FrozenAlgebra::swap`] shadows the
/// algebra's to read the table's transition rows.
pub struct FrozenAlgebra {
    algebra: SharedAlgebra,
    /// Canonically sorted classes; `canonical[i]` has id `i`.
    canonical: Vec<Class>,
    index: ClassMap<u32>,
    /// `true` when the enumeration completed: the table is the entire
    /// reachable space under the arity cap and the tail stays empty.
    total: bool,
    fingerprint: u64,
    max_arity: usize,
    /// The transition rows of the module docs, `max_arity − 1` per class
    /// in id order; empty for sealed tables.
    rows: Box<[u32]>,
    // lint: allow(interior-mut) reason="the documented sealed tail: append-only interning of post-freeze classes, canonical ids never change"
    tail: RwLock<Tail>,
}

impl FrozenAlgebra {
    /// Runs the freeze pass: enumerates the reachable state space under
    /// `opts`, canonically sorts it, and returns the immutable table.
    /// Falls back to a *sealed* table — keeping the canonically sorted
    /// prefix the budgeted enumeration reached — when a budget is
    /// exceeded, or with an empty prefix when the property opts out of
    /// enumeration or the arity cap is oversized. Enumeration results
    /// (complete or aborted) are memoized process-wide per
    /// `(property name, options)`, so repeated scheme construction never
    /// re-runs the pass; sealed *tables* are still one per call (their
    /// dynamic tails must never be shared).
    pub fn freeze(algebra: SharedAlgebra, opts: &FreezeOptions) -> SharedFrozenAlgebra {
        if !algebra.enumerable() || opts.max_arity > MAX_FREEZE_ARITY {
            return Self::sealed_with_prefix(algebra, Vec::new(), opts.max_arity);
        }
        let key = (algebra.name(), opts.clone());
        {
            let cache = freeze_cache().lock().expect("freeze cache poisoned");
            match cache.get(&key) {
                Some(CachedFreeze::Total(hit)) => return Arc::clone(hit),
                Some(CachedFreeze::Partial(prefix)) => {
                    return Self::sealed_with_prefix(
                        algebra,
                        prefix.as_ref().clone(),
                        opts.max_arity,
                    )
                }
                None => {}
            }
        }
        let (classes, swaps, complete) = enumerate(&algebra, opts);
        let mut cache = freeze_cache().lock().expect("freeze cache poisoned");
        if complete {
            let frozen = Self::build(algebra, classes, &swaps, true, opts.max_arity);
            cache.insert(key, CachedFreeze::Total(Arc::clone(&frozen)));
            frozen
        } else {
            cache.insert(key, CachedFreeze::Partial(Arc::new(classes.clone())));
            drop(cache);
            Self::sealed_with_prefix(algebra, classes, opts.max_arity)
        }
    }

    fn sealed_with_prefix(
        algebra: SharedAlgebra,
        classes: Vec<Class>,
        max_arity: usize,
    ) -> SharedFrozenAlgebra {
        Self::build(algebra, classes, &[], false, max_arity)
    }

    /// Sorts `classes` (in discovery order) canonically into a table.
    /// `swaps` holds the closure's adjacent-swap results by discovery
    /// index, `max_arity − 1` per class; it becomes the transition rows,
    /// or none when empty.
    fn build(
        algebra: SharedAlgebra,
        classes: Vec<Class>,
        swaps: &[u32],
        total: bool,
        max_arity: usize,
    ) -> SharedFrozenAlgebra {
        // Canonical order: structural sort, never insertion order.
        let mut keyed: Vec<((usize, String), u32, Class)> = classes
            .into_iter()
            .enumerate()
            .map(|(n, c)| (c.structural_key(), n as u32, c))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        algebra.name().hash(&mut hasher);
        max_arity.hash(&mut hasher);
        total.hash(&mut hasher);
        keyed.len().hash(&mut hasher);
        for (key, _, _) in &keyed {
            key.hash(&mut hasher);
        }
        if !total {
            // A sealed table's tail ids are *instance-local* (arrival
            // order), so two sealed instances must never look
            // interchangeable to the fingerprint check — not within this
            // process (counter) and not across processes or persisted
            // corpora (process id + wall-clock entropy): a sealed corpus
            // only ever verifies against the instance that produced it.
            // lint: allow(interior-mut) reason="sealed-instance nonce counter; feeds the fingerprint, never observable as state"
            use std::sync::atomic::{AtomicU64, Ordering};
            // lint: allow(interior-mut) reason="sealed-instance nonce counter; feeds the fingerprint, never observable as state"
            static SEALED_NONCE: AtomicU64 = AtomicU64::new(0);
            SEALED_NONCE
                .fetch_add(1, Ordering::Relaxed)
                .hash(&mut hasher);
            std::process::id().hash(&mut hasher);
            // Wall-clock entropy for the sealed-instance nonce —
            // deliberately unique per instance, hashed into the
            // fingerprint, never ordered or compared. Routed through
            // the workspace's single audited clock site in the obs
            // crate rather than reading `SystemTime` here.
            lanecert_obs::wall_entropy_ns().hash(&mut hasher);
        }
        // `id_of[n]`: the canonical id of the class discovered `n`-th.
        let mut id_of = vec![0u32; keyed.len()];
        let canonical: Vec<Class> = keyed
            .into_iter()
            .enumerate()
            .map(|(id, (_, n, c))| {
                id_of[n as usize] = id as u32;
                c
            })
            .collect();
        let width = max_arity.saturating_sub(1);
        let mut rows = vec![NO_ROW; swaps.len()];
        for (n, row) in swaps.chunks_exact(width.max(1)).enumerate() {
            let id = id_of[n] as usize;
            for (i, &r) in row.iter().enumerate().filter(|&(_, &r)| r != NO_ROW) {
                rows[id * width + i] = id_of[r as usize];
            }
        }
        let index = canonical
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i as u32))
            .collect();
        Arc::new(Self {
            algebra,
            canonical,
            index,
            total,
            fingerprint: hasher.finish(),
            max_arity,
            rows: rows.into_boxed_slice(),
            // lint: allow(interior-mut) reason="constructs the documented sealed tail"
            tail: RwLock::new(Tail::default()),
        })
    }

    /// Exchanges slots `a` and `b` of `s`: the class
    /// [`Algebra::swap`] returns, read from the table's transition rows
    /// (see the module docs) when it can be. That takes a total table, a
    /// class in it and `a ≠ b` within its arity; the walk of
    /// `2|a − b| − 1` rows then returns the table's own copy of the
    /// result. Anything else runs the algebra. Shadows the `Deref`'d
    /// [`Algebra::swap`], so every caller holding a `FrozenAlgebra` gets
    /// the rows.
    pub fn swap(&self, s: Class, a: Slot, b: Slot) -> Class {
        let served = self.swap_by_rows(&s, a, b);
        if lanecert_obs::COMPILED && self.total {
            ROW_COUNTS.with(|c| {
                let (rows, fallbacks) = c.get();
                c.set(match served {
                    Some(_) => (rows + 1, fallbacks),
                    None => (rows, fallbacks + 1),
                });
            });
        }
        served.unwrap_or_else(|| self.algebra.swap(s, a, b))
    }

    /// The row walk of [`FrozenAlgebra::swap`]; `None` where it does not
    /// apply.
    fn swap_by_rows(&self, s: &Class, a: Slot, b: Slot) -> Option<Class> {
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi || hi >= s.arity() {
            return None;
        }
        let width = self.max_arity.saturating_sub(1);
        let mut id = *self.index.get(s)?;
        for i in (lo..hi).chain((lo..hi - 1).rev()) {
            id = *self.rows.get(id as usize * width + i)?;
        }
        // A [`NO_ROW`] entry (never reached within the class's arity)
        // would index past the rows or the table and end in `None`.
        self.canonical.get(id as usize).cloned()
    }

    /// The wrapped algebra (also reachable through `Deref`).
    pub fn algebra(&self) -> &SharedAlgebra {
        &self.algebra
    }

    /// The property's name.
    pub fn name(&self) -> String {
        self.algebra.name()
    }

    /// `true` when the enumeration completed and every reachable class
    /// under the arity cap has a canonical id (the tail is permanently
    /// empty and ids are order-independent).
    pub fn is_total(&self) -> bool {
        self.total
    }

    /// The arity cap the table was frozen at.
    pub fn max_arity(&self) -> usize {
        self.max_arity
    }

    /// Number of canonically enumerated classes (the stable prefix).
    pub fn canonical_state_count(&self) -> usize {
        self.canonical.len()
    }

    /// Total number of known classes: the canonical prefix plus any
    /// sealed-tail entries interned so far.
    pub fn state_count(&self) -> usize {
        self.canonical.len()
            + self
                .tail
                .read()
                .expect("sealed tail poisoned")
                .classes
                .len()
    }

    /// A digest of `(property name, options, canonical table)` — two
    /// tables agree on every canonical id exactly when their
    /// fingerprints match (within one build of the workspace; the digest
    /// is not guaranteed stable across releases, which is precisely what
    /// lets label corpora from other versions fail loudly). Sealed
    /// tables additionally fold in a per-instance nonce: their tail ids
    /// are instance-local, so no two sealed tables ever fingerprint the
    /// same — a sealed corpus only verifies against the instance that
    /// produced it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Returns `true` if `id` names a known class (verifiers reject
    /// certificates naming unknown classes).
    pub fn knows(&self, id: StateId) -> bool {
        self.class_of(id).is_some()
    }

    /// Resolves a wire id to its class value; `None` for ids outside the
    /// table (an adversarial label — callers reject, nothing panics).
    pub fn class_of(&self, id: StateId) -> Option<Class> {
        let i = id.0 as usize;
        if let Some(c) = self.canonical.get(i) {
            return Some(c.clone());
        }
        self.tail
            .read()
            .expect("sealed tail poisoned")
            .classes
            .get(i - self.canonical.len())
            .cloned()
    }

    /// Arity of a known class id; `None` for unknown ids.
    pub fn arity_of(&self, id: StateId) -> Option<usize> {
        self.class_of(id).map(|c| c.arity())
    }

    /// Canonical id of a class value without interning; `None` when the
    /// class is not in the table (total mode: not reachable under the
    /// cap; sealed mode: not yet interned).
    pub fn id_of(&self, class: &Class) -> Option<StateId> {
        if let Some(&i) = self.index.get(class) {
            return Some(StateId(i));
        }
        self.tail
            .read()
            .expect("sealed tail poisoned")
            .index
            .get(class)
            .map(|&i| StateId(self.canonical.len() as u32 + i))
    }

    /// The id a prover writes into a label for `class`.
    ///
    /// Total tables resolve by content alone and return `None` for
    /// classes outside the enumerated space (the prover surfaces this as
    /// an internal error — it cannot happen for interfaces within the
    /// arity cap). Sealed tables intern unseen classes into the dynamic
    /// tail and always return an id.
    pub fn intern(&self, class: &Class) -> Option<StateId> {
        if let Some(&i) = self.index.get(class) {
            return Some(StateId(i));
        }
        if self.total {
            return None;
        }
        let mut tail = self.tail.write().expect("sealed tail poisoned");
        let next = tail.classes.len() as u32;
        let i = *tail.index.entry(class.clone()).or_insert(next);
        if i == next {
            tail.classes.push(class.clone());
        }
        Some(StateId(self.canonical.len() as u32 + i))
    }
}

impl Deref for FrozenAlgebra {
    type Target = Algebra;
    fn deref(&self) -> &Algebra {
        &self.algebra
    }
}

impl fmt::Debug for FrozenAlgebra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenAlgebra")
            .field("property", &self.name())
            .field("total", &self.total)
            .field("canonical_states", &self.canonical.len())
            .field("max_arity", &self.max_arity)
            .finish()
    }
}

/// What the freeze pass memoizes: a finished (shareable) total table,
/// or the canonically unsorted class set of an aborted enumeration — the
/// sealed prefix every later construction reuses without re-enumerating.
enum CachedFreeze {
    Total(SharedFrozenAlgebra),
    Partial(Arc<Vec<Class>>),
}

// lint: allow(interior-mut) reason="process-wide freeze memo: caches the deterministic result of enumeration, not algebra state"
type FreezeCache = Mutex<HashMap<(String, FreezeOptions), CachedFreeze>>;

fn freeze_cache() -> &'static FreezeCache {
    // lint: allow(interior-mut) reason="process-wide freeze memo: caches the deterministic result of enumeration, not algebra state"
    static CACHE: OnceLock<FreezeCache> = OnceLock::new();
    // lint: allow(interior-mut) reason="process-wide freeze memo: caches the deterministic result of enumeration, not algebra state"
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Deterministic closure of the reachable state space under a
/// generating set of the primitive operations, bounded by `opts`.
/// Returns the discovered classes, their adjacent-swap results (the
/// transition rows of the module docs, by discovery index) and whether
/// the closure *completed* (`false` = a budget was hit and the set is a
/// partial prefix). The worklist order is fixed (FIFO over discovery,
/// generators in a fixed order), so the set — all that matters, since ids come from the
/// structural sort — is a pure function of `(property, opts)` either
/// way. Reports the states found, the operations applied and any
/// overrun as [`lanecert_obs::names`] counters, once per enumeration.
///
/// # The generating set
///
/// The primitive operations commute with renaming slots: applying an
/// operation to a permuted state gives a permutation of its result on
/// the original (the Theorem 1 summary's shape-order merges rely on the
/// same fact). So the closure needs only
///
/// * the unary generators `add_vertex`, `add_edge(0, 1, false)`,
///   `add_edge(0, 1, true)`, `glue(0, 1)` and `forget(0)`, applied to
///   every state — any other slot pair or slot is a permutation away;
/// * the adjacent swaps `swap(i, i + 1)`, applied to every state, which
///   close the set under every permutation of its slots;
/// * `union` in one operand order between *orbit representatives*:
///   states first found by an operation other than a swap. Every state
///   is a permutation of a representative, and a union of permuted
///   operands (in either order) is a permutation of the union of their
///   representatives, so one run per unordered pair of representatives
///   (each paired with itself too) whose arities fit the cap suffices.
///
/// Every generator is a primitive operation, and every primitive
/// operation's result is a permutation of a generator's, so the closure
/// finds exactly the classes a closure under all operations on all slots
/// finds, at a fraction of the operations.
///
/// An algebra that broke slot equivariance would get a total table that
/// lacks some class. `intern` then returns `None` for it, so the prover
/// refuses with an internal error and the verifier rejects; neither can
/// accept wrongly.
fn enumerate(alg: &Algebra, opts: &FreezeOptions) -> (Vec<Class>, Vec<u32>, bool) {
    let mut closure = Closure::new(alg, opts);
    let complete = closure.close().is_ok();
    counter_add(names::FREEZE_STATES, closure.order.len() as u64);
    counter_add(names::FREEZE_OPS, closure.ops as u64);
    counter_add(names::FREEZE_OVERRUNS, u64::from(!complete));
    (closure.order, closure.swaps, complete)
}

/// A state or operation budget was exceeded: the closure stops there.
struct Overrun;

/// The freeze pass's worklist: the classes found so far in discovery
/// order, which of them are orbit representatives, their adjacent-swap
/// results, and the number of operations applied.
struct Closure<'a> {
    alg: &'a Algebra,
    opts: &'a FreezeOptions,
    order: Vec<Class>,
    /// `reps[i]`: `order[i]` was first found by an operation other than
    /// a swap.
    reps: Vec<bool>,
    /// The discovery index of every class in `order`.
    seen: ClassMap<u32>,
    /// `swaps[n × (max_arity − 1) + i]`: the discovery index of
    /// `swap(order[n], i, i + 1)`, for each processed state `n`
    /// ([`NO_ROW`] past its arity).
    swaps: Vec<u32>,
    ops: usize,
}

impl<'a> Closure<'a> {
    fn new(alg: &'a Algebra, opts: &'a FreezeOptions) -> Self {
        Self {
            alg,
            opts,
            order: Vec::new(),
            reps: Vec::new(),
            seen: ClassMap::default(),
            swaps: Vec::new(),
            ops: 0,
        }
    }

    /// Records `c` when it is new, and returns its discovery index
    /// (`None` past the arity cap).
    fn found(&mut self, c: Class, rep: bool) -> Result<Option<u32>, Overrun> {
        if c.arity() > self.opts.max_arity {
            return Ok(None);
        }
        let next = self.order.len() as u32;
        let n = *self.seen.entry(c.clone()).or_insert(next);
        if n == next {
            self.order.push(c);
            self.reps.push(rep);
            if self.order.len() > self.opts.state_budget {
                return Err(Overrun);
            }
        }
        Ok(Some(n))
    }

    /// Counts one operation against the budget, then records its result.
    fn apply(&mut self, rep: bool, op: impl FnOnce() -> Class) -> Result<Option<u32>, Overrun> {
        self.ops += 1;
        if self.ops > self.opts.op_budget {
            return Err(Overrun);
        }
        self.found(op(), rep)
    }

    /// Closes the table under the generating set (see [`enumerate`]).
    fn close(&mut self) -> Result<(), Overrun> {
        let (alg, cap) = (self.alg, self.opts.max_arity);
        self.found(alg.empty(), true)?;
        // Processed representatives, indexed by arity, for the unions.
        let mut reps_by_arity: Vec<Vec<usize>> = vec![Vec::new(); cap + 1];
        let mut next = 0usize;
        while next < self.order.len() {
            let s = self.order[next].clone();
            let a = s.arity();
            if a < cap {
                self.apply(true, || alg.add_vertex(s.clone()))?;
            }
            if a >= 2 {
                for marked in [false, true] {
                    self.apply(true, || alg.add_edge(s.clone(), 0, 1, marked))?;
                }
                self.apply(true, || alg.glue(s.clone(), 0, 1))?;
            }
            if a >= 1 {
                self.apply(true, || alg.forget(s.clone(), 0))?;
            }
            let row = self.swaps.len();
            self.swaps.resize(row + cap.saturating_sub(1), NO_ROW);
            for i in 1..a {
                let to = self.apply(false, || alg.swap(s.clone(), i - 1, i))?;
                self.swaps[row + i - 1] = to.unwrap_or(NO_ROW);
            }
            if self.reps[next] {
                reps_by_arity[a].push(next);
                for partners in &reps_by_arity[..=cap - a] {
                    for &t in partners {
                        let t = self.order[t].clone();
                        self.apply(true, || alg.union(s.clone(), t))?;
                    }
                }
            }
            next += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{
        And, Bipartite, Connected, EdgeCountMod, EvenDegrees, Forest, HamiltonianCycle,
        MaxDegreeAtMost, Not, Or, VertexCountMod,
    };
    use std::collections::HashSet;

    /// The oracle: the closure under every primitive operation on every
    /// slot choice, with unions in both operand orders, under the same
    /// budgets. Returns the classes found and whether it completed.
    fn full_closure(alg: &Algebra, opts: &FreezeOptions) -> (Vec<Class>, bool) {
        let mut c = Closure::new(alg, opts);
        let complete = close_under_every_operation(&mut c).is_ok();
        (c.order, complete)
    }

    fn close_under_every_operation(c: &mut Closure<'_>) -> Result<(), Overrun> {
        let (alg, cap) = (c.alg, c.opts.max_arity);
        c.found(alg.empty(), true)?;
        let mut by_arity: Vec<Vec<usize>> = vec![Vec::new(); cap + 1];
        let mut next = 0usize;
        while next < c.order.len() {
            let s = c.order[next].clone();
            let a = s.arity();
            by_arity[a].push(next);
            next += 1;
            if a < cap {
                c.apply(true, || alg.add_vertex(s.clone()))?;
            }
            for x in 0..a {
                for y in (0..a).filter(|&y| y != x) {
                    for marked in [false, true] {
                        c.apply(true, || alg.add_edge(s.clone(), x, y, marked))?;
                    }
                }
            }
            for x in 0..a {
                for y in (x + 1)..a {
                    c.apply(true, || alg.glue(s.clone(), x, y))?;
                    c.apply(true, || alg.swap(s.clone(), x, y))?;
                }
            }
            for x in 0..a {
                c.apply(true, || alg.forget(s.clone(), x))?;
            }
            for partners in &by_arity[..=cap - a] {
                for &t in partners {
                    let t = c.order[t].clone();
                    c.apply(true, || alg.union(s.clone(), t.clone()))?;
                    c.apply(true, || alg.union(t, s.clone()))?;
                }
            }
        }
        Ok(())
    }

    fn class_set(classes: impl IntoIterator<Item = Class>) -> HashSet<Class> {
        classes.into_iter().collect()
    }

    /// Every class of `frozen`'s canonical table.
    fn classes_of(frozen: &FrozenAlgebra) -> impl Iterator<Item = Class> + '_ {
        (0..frozen.canonical_state_count() as u32).filter_map(|i| frozen.class_of(StateId(i)))
    }

    fn canonical_classes(frozen: &FrozenAlgebra) -> HashSet<Class> {
        class_set(classes_of(frozen))
    }

    #[test]
    fn generating_set_finds_exactly_the_full_closure() {
        // Every enumerable hand-written property and the combinators, at
        // each arity where the full closure completes under the default
        // budgets (every product tried overruns at arity 6).
        let all = [2, 4, 6];
        let cases = [
            (Algebra::shared(Forest), &all[..]),
            (Algebra::shared(Connected), &all),
            (Algebra::shared(Bipartite), &all),
            (Algebra::shared(MaxDegreeAtMost::new(1)), &all),
            (Algebra::shared(MaxDegreeAtMost::new(2)), &all),
            (Algebra::shared(EvenDegrees), &all),
            (Algebra::shared(EdgeCountMod::new(3, 1)), &all),
            (Algebra::shared(VertexCountMod::new(2, 0)), &all),
            (Algebra::shared(Not(Connected)), &all),
            (Algebra::shared(Not(Bipartite)), &all),
            (
                Algebra::shared(And(Forest, MaxDegreeAtMost::new(2))),
                &all[..2],
            ),
            (Algebra::shared(And(Connected, EvenDegrees)), &all[..2]),
            (Algebra::shared(Or(Connected, EvenDegrees)), &all[..2]),
        ];
        for (alg, arities) in cases {
            for &arity in arities {
                let opts = FreezeOptions::for_interface_arity(arity);
                let (want, complete) = full_closure(&alg, &opts);
                assert!(complete, "{} at arity {arity}: oracle overran", alg.name());
                let frozen = FrozenAlgebra::freeze(Arc::clone(&alg), &opts);
                assert!(frozen.is_total(), "{} at arity {arity}", alg.name());
                assert_eq!(
                    canonical_classes(&frozen),
                    class_set(want.iter().cloned()),
                    "{} at arity {arity}",
                    alg.name()
                );
                let oracle = FrozenAlgebra::build(Arc::clone(&alg), want, &[], true, arity);
                assert_eq!(frozen.fingerprint(), oracle.fingerprint());
            }
        }
    }

    /// `FrozenAlgebra::swap` against `Algebra::swap` on every class of the
    /// table and every slot pair, and whether the rows answered.
    fn assert_swaps_match_the_algebra(frozen: &FrozenAlgebra) {
        for c in classes_of(frozen) {
            for a in 0..c.arity() {
                for b in 0..c.arity() {
                    assert_eq!(
                        frozen.swap(c.clone(), a, b),
                        frozen.algebra().swap(c.clone(), a, b),
                        "{} at arity {}: swap({a}, {b}) of {c:?}",
                        frozen.name(),
                        frozen.max_arity()
                    );
                    assert_eq!(
                        frozen.swap_by_rows(&c, a, b).is_some(),
                        frozen.is_total() && a != b,
                        "{}: swap({a}, {b}) of {c:?}",
                        frozen.name()
                    );
                }
            }
        }
    }

    #[test]
    fn row_swaps_match_the_algebra() {
        let cases = [
            Algebra::shared(Forest),
            Algebra::shared(Connected),
            Algebra::shared(Bipartite),
            Algebra::shared(MaxDegreeAtMost::new(1)),
            Algebra::shared(MaxDegreeAtMost::new(2)),
            Algebra::shared(EvenDegrees),
            Algebra::shared(EdgeCountMod::new(3, 1)),
            Algebra::shared(VertexCountMod::new(2, 0)),
            Algebra::shared(Not(Connected)),
            Algebra::shared(Not(Bipartite)),
            Algebra::shared(And(Forest, MaxDegreeAtMost::new(2))),
            Algebra::shared(And(Connected, EvenDegrees)),
            Algebra::shared(Or(Connected, EvenDegrees)),
            Algebra::shared(And(Connected, Bipartite)),
        ];
        // `And(Forest, MaxDegreeAtMost(2))` overruns the default budgets
        // at arity 6 and seals; the oracle then checks the fallback.
        let mut total = 0;
        for alg in cases {
            for arity in [2, 4, 6] {
                let opts = FreezeOptions::for_interface_arity(arity);
                let frozen = FrozenAlgebra::freeze(Arc::clone(&alg), &opts);
                assert!(
                    frozen.is_total() || arity == 6,
                    "{} at arity {arity}",
                    alg.name()
                );
                total += usize::from(frozen.is_total());
                assert_swaps_match_the_algebra(&frozen);
            }
        }
        assert_eq!(total, 41);
    }

    #[test]
    fn sealed_tables_swap_through_the_algebra() {
        // A budget-sealed prefix and an opted-out property: no rows, the
        // algebra answers, and the answer is the algebra's.
        let opts = FreezeOptions {
            state_budget: 500,
            ..FreezeOptions::for_interface_arity(6)
        };
        let prefix = FrozenAlgebra::freeze(Algebra::shared(And(Connected, Bipartite)), &opts);
        assert!(!prefix.is_total());
        assert!(prefix.canonical_state_count() > 0);
        assert!(classes_of(&prefix).any(|c| c.arity() >= 2));
        assert_swaps_match_the_algebra(&prefix);

        let ham = FrozenAlgebra::freeze(
            Algebra::shared(HamiltonianCycle),
            &FreezeOptions::for_interface_arity(6),
        );
        assert!(!ham.is_total());
        let mut s = ham.empty();
        for _ in 0..4 {
            s = ham.add_vertex(s);
        }
        s = ham.add_edge(s, 0, 1, true);
        s = ham.add_edge(s, 1, 3, true);
        for a in 0..4 {
            for b in 0..4 {
                assert!(ham.swap_by_rows(&s, a, b).is_none());
                assert_eq!(
                    ham.swap(s.clone(), a, b),
                    ham.algebra().swap(s.clone(), a, b)
                );
            }
        }
    }

    #[test]
    fn classes_outside_a_total_table_swap_through_the_algebra() {
        // Arity 3 is past the cap of a table frozen at arity 2.
        let frozen = freeze_connected(2);
        let mut s = frozen.empty();
        for _ in 0..3 {
            s = frozen.add_vertex(s);
        }
        s = frozen.add_edge(s, 0, 2, true);
        assert_eq!(frozen.id_of(&s), None);
        assert!(frozen.swap_by_rows(&s, 0, 2).is_none());
        assert_eq!(frozen.swap(s.clone(), 0, 2), frozen.algebra().swap(s, 0, 2));
    }

    #[test]
    fn total_tables_keep_one_row_entry_per_adjacent_swap() {
        let frozen = freeze_connected(4);
        assert_eq!(frozen.rows.len(), frozen.canonical_state_count() * 3);
        assert!(FrozenAlgebra::freeze(
            Algebra::shared(HamiltonianCycle),
            &FreezeOptions::for_interface_arity(4)
        )
        .rows
        .is_empty());
    }

    #[test]
    fn connected_and_bipartite_at_arity_six_now_freezes_totally() {
        // Under the default op budget the full closure overran and sealed
        // at 40,175 classes; the generating set completes the same space.
        let alg = Algebra::shared(And(Connected, Bipartite));
        let opts = FreezeOptions::for_interface_arity(6);
        let (prefix, complete) = full_closure(&alg, &opts);
        assert!(!complete);
        assert_eq!(prefix.len(), 40_175);
        let frozen = FrozenAlgebra::freeze(alg, &opts);
        assert!(frozen.is_total());
        assert_eq!(frozen.canonical_state_count(), 40_259);
        assert!(class_set(prefix).is_subset(&canonical_classes(&frozen)));
    }

    fn freeze_connected(arity: usize) -> SharedFrozenAlgebra {
        FrozenAlgebra::freeze(
            Algebra::shared(Connected),
            &FreezeOptions::for_interface_arity(arity),
        )
    }

    #[test]
    fn small_connected_table_is_total_and_pinned() {
        // Arity ≤ 2: partitions of ≤ 2 slots × dead ∈ {0, 1, 2} = 12
        // states, all reachable. The canonical sort puts arity first,
        // then the Debug rendering, so the exact ids below are a
        // regression pin of the canonical assignment.
        let frozen = freeze_connected(2);
        assert!(frozen.is_total());
        assert_eq!(frozen.canonical_state_count(), 12);
        assert_eq!(frozen.state_count(), 12);
        let empty = frozen.empty();
        assert_eq!(frozen.id_of(&empty), Some(StateId(0)));
        let v = frozen.add_vertex(empty.clone());
        assert_eq!(frozen.id_of(&v), Some(StateId(3)));
        let vv = frozen.union(v.clone(), v.clone());
        assert_eq!(frozen.id_of(&vv), Some(StateId(9)));
        let edge = frozen.add_edge(vv, 0, 1, true);
        assert_eq!(frozen.id_of(&edge), Some(StateId(6)));
        // Round trips.
        assert_eq!(frozen.class_of(StateId(6)), Some(edge.clone()));
        assert_eq!(frozen.arity_of(StateId(6)), Some(2));
        assert!(frozen.knows(StateId(11)));
        assert!(!frozen.knows(StateId(12)));
        assert_eq!(frozen.class_of(StateId(u32::MAX)), None);
        // Total tables never intern anything new.
        assert_eq!(frozen.intern(&edge), Some(StateId(6)));
    }

    #[test]
    fn ids_are_independent_of_visit_order() {
        // Two freezes (the second is a cache hit, so also freeze a fresh
        // property instance bypassing nothing — the enumeration itself is
        // deterministic) agree on ids; querying in different orders
        // changes nothing because the table is immutable.
        let f1 = freeze_connected(4);
        let f2 = freeze_connected(4);
        assert!(f1.is_total());
        let a = f1.add_vertex(f1.empty());
        let b = f1.add_vertex(a.clone());
        assert_eq!(f1.id_of(&b), f2.id_of(&b));
        assert_eq!(f1.id_of(&a), f2.id_of(&a));
        assert_eq!(f1.fingerprint(), f2.fingerprint());
    }

    #[test]
    fn fingerprints_separate_properties_and_widths() {
        let conn = freeze_connected(4);
        let bip = FrozenAlgebra::freeze(
            Algebra::shared(Bipartite),
            &FreezeOptions::for_interface_arity(4),
        );
        let narrow = freeze_connected(2);
        assert_ne!(conn.fingerprint(), bip.fingerprint());
        assert_ne!(conn.fingerprint(), narrow.fingerprint());
    }

    #[test]
    fn sealed_fingerprints_are_per_instance() {
        // Tail ids are instance-local, so sealed tables must never look
        // interchangeable: a corpus recorded under one sealed instance
        // has to fail the fingerprint check everywhere else.
        let opts = FreezeOptions::for_interface_arity(6);
        let a = FrozenAlgebra::freeze(Algebra::shared(HamiltonianCycle), &opts);
        let b = FrozenAlgebra::freeze(Algebra::shared(HamiltonianCycle), &opts);
        assert!(!a.is_total() && !b.is_total());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn explosive_algebras_seal() {
        let frozen = FrozenAlgebra::freeze(
            Algebra::shared(HamiltonianCycle),
            &FreezeOptions::for_interface_arity(6),
        );
        assert!(!frozen.is_total());
        assert_eq!(frozen.canonical_state_count(), 0);
        // Sealed tables intern on demand, in arrival order.
        let s = frozen.add_vertex(frozen.empty());
        let id = frozen.intern(&s).unwrap();
        assert_eq!(frozen.intern(&s), Some(id));
        assert_eq!(frozen.class_of(id), Some(s));
        assert_eq!(frozen.state_count(), 1);
    }

    #[test]
    fn budget_overrun_seals_with_the_enumerated_prefix() {
        // A tiny state budget aborts the Connected enumeration mid-way;
        // the sealed table must keep the canonically sorted prefix (not
        // discard it), and two constructions must agree on every prefix
        // id (the enumeration is memoized and deterministic) while
        // fingerprinting per instance.
        let opts = FreezeOptions {
            state_budget: 20,
            ..FreezeOptions::for_interface_arity(6)
        };
        let a = FrozenAlgebra::freeze(Algebra::shared(Connected), &opts);
        let b = FrozenAlgebra::freeze(Algebra::shared(Connected), &opts);
        assert!(!a.is_total());
        assert!(a.canonical_state_count() > 0, "prefix was discarded");
        assert_eq!(a.canonical_state_count(), b.canonical_state_count());
        let v = a.add_vertex(a.empty());
        assert_eq!(a.id_of(&a.empty()), b.id_of(&b.empty()));
        assert_eq!(a.id_of(&v), b.id_of(&v));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn oversized_arity_requests_seal_immediately() {
        let frozen = FrozenAlgebra::freeze(
            Algebra::shared(Connected),
            &FreezeOptions::for_interface_arity(MAX_FREEZE_ARITY + 1),
        );
        assert!(!frozen.is_total());
    }

    #[test]
    fn total_tables_are_closed_under_summary_shaped_ops() {
        // Walk a few op chains that mimic the certification pipeline
        // (sorting swaps, unions, glues, forgets) and check every
        // intermediate within the cap resolves.
        let frozen = freeze_connected(4);
        let mut s = frozen.empty();
        for _ in 0..3 {
            s = frozen.add_vertex(s);
            assert!(frozen.id_of(&s).is_some());
        }
        s = frozen.add_edge(s, 0, 2, true);
        assert!(frozen.id_of(&s).is_some());
        s = frozen.swap(s, 0, 1);
        assert!(frozen.id_of(&s).is_some());
        let t = frozen.add_vertex(frozen.empty());
        let u = frozen.union(s, t);
        assert!(frozen.id_of(&u).is_some());
        let g = frozen.glue(u, 1, 3);
        assert!(frozen.id_of(&g).is_some());
        let f = frozen.forget(g, 0);
        assert!(frozen.id_of(&f).is_some());
    }
}
