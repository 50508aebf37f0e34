//! Courcelle-style compilation of MSO₂ formulas into homomorphism
//! algebras ([`lanecert_algebra::Property`] implementations).
//!
//! [`compile`] lowers a **closed** [`Formula`] to a [`CompiledProperty`]
//! whose automaton states are satisfying-assignment summaries of the
//! formula restricted to the live interface, built by structural
//! recursion on the AST:
//!
//! * atomic predicates become small hand-minimised leaf automata that
//!   track only what future operations can still change (terminal
//!   `True`/`False` collapses keep the reachable space small);
//! * boolean connectives become product automata over their operands;
//! * quantifiers become *run sets* — one run per choice of the bound
//!   variable's decoration, deduplicated and canonically sorted so the
//!   state is a pure value (powerset projection).
//!
//! Each quantifier occurrence gets a dense bit index; an operation's
//! decoration (which runs place an individual variable on the new
//! vertex/edge, which runs put it in a set) travels down the recursion
//! as a `u64` mask, so formulas are limited to [`MAX_QUANTIFIERS`]
//! quantifier occurrences.
//!
//! # Semantics
//!
//! The compiled property evaluates the formula on the **marked
//! subgraph** (the workspace-wide algebra convention: unmarked edges are
//! completion-only structure). Edge quantifiers range over marked edges,
//! and `adj`/`inc` see marked edges only. On the pipeline's op
//! sequences — where every real edge is marked — this coincides with
//! evaluating the formula on the real graph with the naive
//! [`crate::eval::check`] oracle, which is exactly what the differential
//! tests pin.
//!
//! States are congruences: two equal states accept identically under any
//! continuation (validated against the brute-force trace mirror and the
//! naive evaluator in this module's tests and `tests/compile_parity.rs`).
//!
//! # Sharing
//!
//! A state's `Pair` and run-set children are shared nodes: an `Arc` that
//! carries the child's [`FxHasher`] digest, computed once when the node
//! is built. Hashing a state writes the children's digests, not their
//! trees, and equality and ordering return early when both sides are
//! the same node. Otherwise they compare structurally, as the derived
//! impls did, and `Debug` renders the child itself, so a class's
//! rendering, and with it its structural key, id and fingerprint, is the
//! one the unshared states had.
//!
//! Transitions are memoized per thread at every product and quantifier
//! node of the plan. The key is the property's unique id (drawn from a
//! process-wide counter when [`compile`] runs, never a plan address,
//! which a later property may reuse after a drop), the node's dense
//! index in the plan, the input sub-state(s), and the operation with its
//! decoration mask; for a union, both operands and the slot shift. A hit
//! returns the stored node, so a transition computed twice yields one
//! shared result and later comparisons against it are pointer
//! comparisons. The freeze applies each operation to thousands of
//! states whose run sets share most of their runs, so most transitions
//! below the root are repeats. The memo holds at most 2^18 entries,
//! enough for a whole freeze of compiled `independent-set-2`, and is
//! cleared when it reaches that cap: results never depend on what it
//! holds.
//!
//! Runs inside a run set stay in their derived structural order, never
//! in hash or pointer order: the order is part of the state's rendering,
//! which fixes its canonical id.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lanecert_algebra::{glue_order, FxBuildHasher, FxHasher, Property, Slot};

use crate::{Formula, Sort, Var};

/// Maximum number of quantifier *occurrences* a compilable formula may
/// contain (decorations travel as a `u64` bitmask).
pub const MAX_QUANTIFIERS: usize = 64;

/// Why a formula could not be compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A variable is used without an enclosing quantifier binding it.
    UnboundVariable(Var),
    /// A variable is used at a sort other than the one it was bound at.
    SortMismatch {
        /// The offending variable.
        var: Var,
        /// The sort the enclosing quantifier bound it at.
        bound: Sort,
        /// The sort the predicate uses it at.
        used: Sort,
    },
    /// More than [`MAX_QUANTIFIERS`] quantifier occurrences.
    TooManyQuantifiers {
        /// The number of quantifier occurrences found.
        count: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnboundVariable(v) => write!(f, "unbound variable {v} (formula not closed)"),
            Self::SortMismatch { var, bound, used } => {
                write!(f, "variable {var} bound as {bound:?} but used as {used:?}")
            }
            Self::TooManyQuantifiers { count } => {
                write!(
                    f,
                    "{count} quantifier occurrences exceed the limit of {MAX_QUANTIFIERS}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Binary boolean connective of a compiled [`Node::Bin`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum BinOp {
    And,
    Or,
    Implies,
    Iff,
}

/// The compiled plan: the formula with every variable occurrence
/// resolved to the dense bit index of its binding quantifier. Product
/// and quantifier nodes carry a dense index `id` in the plan, which keys
/// their transitions in the memo.
#[derive(Clone, Debug)]
enum Node {
    Const(bool),
    InVSet {
        v: u8,
        set: u8,
    },
    InESet {
        e: u8,
        set: u8,
    },
    Inc {
        e: u8,
        v: u8,
    },
    Adj {
        u: u8,
        v: u8,
    },
    EqV {
        u: u8,
        v: u8,
    },
    EqE {
        a: u8,
        b: u8,
    },
    Not(Box<Node>),
    Bin {
        op: BinOp,
        id: u32,
        a: Box<Node>,
        b: Box<Node>,
    },
    Quant {
        sort: Sort,
        forall: bool,
        bit: u8,
        id: u32,
        body: Box<Node>,
    },
}

/// Where an individual (vertex) variable currently lives.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum Place {
    /// Not placed yet in this run.
    Unplaced,
    /// Placed on the vertex at this live slot.
    At(u8),
    /// Placed on a vertex that has since been forgotten.
    Inside,
}

impl Place {
    /// Slot renumbering after `drop` disappears (glue/forget).
    fn shift_down(self, drop: usize) -> Self {
        match self {
            Self::At(s) if usize::from(s) > drop => Self::At(s - 1),
            other => other,
        }
    }

    fn swap(self, a: usize, b: usize) -> Self {
        match self {
            Self::At(s) if usize::from(s) == a => Self::At(b as u8),
            Self::At(s) if usize::from(s) == b => Self::At(a as u8),
            other => other,
        }
    }

    fn shift_up(self, by: usize) -> Self {
        match self {
            Self::At(s) => Self::At(s + by as u8),
            other => other,
        }
    }
}

/// A set of live slots as a bitmask (slots ≥ 64 are untracked; the
/// freeze arity cap and every pipeline interface stay far below that).
type SlotSet = u64;

fn bit(s: usize) -> SlotSet {
    if s < 64 {
        1u64 << s
    } else {
        0
    }
}

fn has(set: SlotSet, s: usize) -> bool {
    set & bit(s) != 0
}

/// Removes slot `drop` from a slot set and shifts higher slots down.
fn set_shift_down(set: SlotSet, drop: usize) -> SlotSet {
    if drop >= 64 {
        return set;
    }
    let low = set & (bit(drop) - 1);
    let high = (set >> (drop + 1)) << drop;
    low | high
}

fn set_swap(set: SlotSet, a: usize, b: usize) -> SlotSet {
    let (ba, bb) = (has(set, a), has(set, b));
    let mut out = set & !(bit(a) | bit(b));
    if ba {
        out |= bit(b);
    }
    if bb {
        out |= bit(a);
    }
    out
}

/// Three-valued leaf state for predicates whose verdict is fixed the
/// moment their variable is placed (`∈`-membership).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum Tri {
    Undecided,
    Yes,
    No,
}

impl Tri {
    fn of(b: bool) -> Self {
        if b {
            Self::Yes
        } else {
            Self::No
        }
    }

    fn union(self, other: Self) -> Self {
        match (self, other) {
            (Self::Undecided, x) => x,
            (x, _) => x,
        }
    }
}

/// Leaf automaton for `x = y` over vertex variables.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum EqVState {
    True,
    False,
    Pending { u: Place, v: Place },
}

/// Leaf automaton for `a = b` over edge variables (edges are created
/// once and never merge, so five states suffice).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum EqEState {
    Neither,
    AOnly,
    BOnly,
    True,
    False,
}

/// Leaf automaton for `adj(u, v)`: terminal `True` once a marked edge
/// connects the two vertices, otherwise the placements plus the live
/// slots currently adjacent to each (adjacency can still arise by
/// gluing a live slot into a recorded neighbour).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum AdjState {
    True,
    False,
    Pending {
        u: Place,
        v: Place,
        u_adj: SlotSet,
        v_adj: SlotSet,
    },
}

/// Leaf automaton for `inc(e, v)`: the vertex placement plus the edge's
/// still-live endpoint slots (`ends` is `None` while the edge variable
/// is unplaced).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum IncState {
    True,
    False,
    Pending { v: Place, ends: Option<SlotSet> },
}

/// Per-run decoration data of one quantifier run.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum RunData {
    /// Vertex/edge variable: has this run placed it yet?
    Individual { placed: bool },
    /// Vertex-set variable: membership of each live slot's vertex
    /// (needed to reject glue of vertices the run decorated
    /// inconsistently).
    VSet { bits: SlotSet },
    /// Edge-set variable: edges never merge, so no consistency data.
    ESet,
}

/// A shared, immutable sub-state (see the module docs' "Sharing"): an
/// `Arc` with the value's [`FxHasher`] digest. Hashing writes the
/// digest; equality and ordering short-cut on a shared pointer, and
/// equality on differing digests, and otherwise compare the values;
/// `Debug` renders the value.
struct Shared<T> {
    node: Arc<SharedNode<T>>,
}

struct SharedNode<T> {
    hash: u64,
    value: T,
}

impl<T: Hash> Shared<T> {
    fn new(value: T) -> Self {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        Self {
            node: Arc::new(SharedNode {
                hash: h.finish(),
                value,
            }),
        }
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Self {
            node: Arc::clone(&self.node),
        }
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.node.value
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.node, &other.node)
            || (self.node.hash == other.node.hash && self.node.value == other.node.value)
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: Ord> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.node, &other.node) {
            std::cmp::Ordering::Equal
        } else {
            self.node.value.cmp(&other.node.value)
        }
    }
}

impl<T> Hash for Shared<T> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.node.hash);
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.node.value.fmt(f)
    }
}

/// One decoration choice of a quantifier: the choice data plus the body
/// state under that choice.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
struct Run {
    data: RunData,
    body: CState,
}

/// A compiled automaton state: one node per formula node ([`Node::Not`]
/// shares its operand's state).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum CState {
    Tri(Tri),
    EqV(EqVState),
    EqE(EqEState),
    Adj(AdjState),
    Inc(IncState),
    Pair(Shared<(CState, CState)>),
    Runs(Shared<Vec<Run>>),
    /// The node's verdict is fixed under every further operation and
    /// under union with any co-state (see
    /// [`CompiledProperty::normalize`]).
    Done(bool),
}

/// The state type of a [`CompiledProperty`]: the current interface
/// arity, the marked adjacency matrix over live slots (`adj[s]` = slots
/// whose vertex is marked-adjacent to slot `s`'s vertex — graph
/// structure, identical across runs, needed so a glue can hand the
/// merged vertex's full neighbour set to the `adj` leaves), and the
/// recursive per-node automaton state.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CompiledState {
    arity: u8,
    adj: Vec<SlotSet>,
    root: CState,
}

/// A structural operation as seen by the per-node transition functions
/// (`add_edge` is pre-filtered: unmarked edges never reach the
/// recursion).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum Op {
    AddVertex {
        slot: usize,
    },
    AddEdge {
        a: usize,
        b: usize,
    },
    /// `row` is the merged vertex's marked-neighbour set *after* the
    /// merge and slot shift — a variable glued into the pair inherits
    /// it wholesale (its own incremental mask misses the other side's
    /// edges).
    Glue {
        keep: usize,
        drop: usize,
        row: SlotSet,
    },
    Forget {
        slot: usize,
    },
    Swap {
        a: usize,
        b: usize,
    },
}

/// An MSO₂ formula compiled to a homomorphism algebra over terminal
/// graphs. Build with [`compile`]; use via
/// [`lanecert_algebra::Algebra::shared`] like any other property.
pub struct CompiledProperty {
    plan: Node,
    name: String,
    /// Unique per compiled property: keys its transitions in the memo.
    id: u64,
}

/// Source of [`CompiledProperty`] ids. The ids need only be unique, so
/// the counter publishes nothing and `Relaxed` suffices.
static NEXT_PROPERTY: AtomicU64 = AtomicU64::new(0);

/// Compiles a closed, well-sorted formula.
///
/// # Errors
///
/// [`CompileError`] on open formulas, sort mismatches, or more than
/// [`MAX_QUANTIFIERS`] quantifier occurrences.
pub fn compile(formula: &Formula) -> Result<CompiledProperty, CompileError> {
    let plan = Lowering::default().lower(formula)?;
    Ok(CompiledProperty {
        plan,
        name: format!("compiled{}", crate::sexpr::canonical(formula)),
        id: NEXT_PROPERTY.fetch_add(1, Ordering::Relaxed),
    })
}

/// The lowering pass's context: the quantifiers in scope, innermost
/// last, with the bit indexes handed out so far, and the number of
/// product and quantifier nodes built.
#[derive(Default)]
struct Lowering {
    scopes: Vec<(Var, Sort, u8)>,
    next_bit: usize,
    nodes: u32,
}

impl Lowering {
    fn resolve(&self, var: Var, used: Sort) -> Result<u8, CompileError> {
        let (_, bound, idx) = self
            .scopes
            .iter()
            .rev()
            .find(|(v, _, _)| *v == var)
            .ok_or(CompileError::UnboundVariable(var))?;
        if *bound != used {
            return Err(CompileError::SortMismatch {
                var,
                bound: *bound,
                used,
            });
        }
        Ok(*idx)
    }

    /// The next dense plan-node index.
    fn node_id(&mut self) -> u32 {
        self.nodes += 1;
        self.nodes - 1
    }

    fn lower(&mut self, f: &Formula) -> Result<Node, CompileError> {
        use Formula as F;
        Ok(match f {
            F::True => Node::Const(true),
            F::False => Node::Const(false),
            F::InVSet(v, s) => Node::InVSet {
                v: self.resolve(*v, Sort::Vertex)?,
                set: self.resolve(*s, Sort::VertexSet)?,
            },
            F::InESet(e, s) => Node::InESet {
                e: self.resolve(*e, Sort::Edge)?,
                set: self.resolve(*s, Sort::EdgeSet)?,
            },
            F::Inc(e, v) => Node::Inc {
                e: self.resolve(*e, Sort::Edge)?,
                v: self.resolve(*v, Sort::Vertex)?,
            },
            F::Adj(u, v) => Node::Adj {
                u: self.resolve(*u, Sort::Vertex)?,
                v: self.resolve(*v, Sort::Vertex)?,
            },
            F::EqV(u, v) => Node::EqV {
                u: self.resolve(*u, Sort::Vertex)?,
                v: self.resolve(*v, Sort::Vertex)?,
            },
            F::EqE(a, b) => Node::EqE {
                a: self.resolve(*a, Sort::Edge)?,
                b: self.resolve(*b, Sort::Edge)?,
            },
            F::Not(a) => Node::Not(Box::new(self.lower(a)?)),
            F::And(a, b) => self.bin(BinOp::And, a, b)?,
            F::Or(a, b) => self.bin(BinOp::Or, a, b)?,
            F::Implies(a, b) => self.bin(BinOp::Implies, a, b)?,
            F::Iff(a, b) => self.bin(BinOp::Iff, a, b)?,
            F::Exists(sort, var, body) => self.quant(*sort, *var, body, false)?,
            F::Forall(sort, var, body) => self.quant(*sort, *var, body, true)?,
        })
    }

    fn bin(&mut self, op: BinOp, a: &Formula, b: &Formula) -> Result<Node, CompileError> {
        let id = self.node_id();
        let a = self.lower(a)?;
        let b = self.lower(b)?;
        Ok(Node::Bin {
            op,
            id,
            a: Box::new(a),
            b: Box::new(b),
        })
    }

    fn quant(
        &mut self,
        sort: Sort,
        var: Var,
        body: &Formula,
        forall: bool,
    ) -> Result<Node, CompileError> {
        if self.next_bit >= MAX_QUANTIFIERS {
            return Err(CompileError::TooManyQuantifiers {
                count: self.next_bit + 1,
            });
        }
        let bit = self.next_bit as u8;
        self.next_bit += 1;
        let id = self.node_id();
        self.scopes.push((var, sort, bit));
        let body = self.lower(body);
        self.scopes.pop();
        Ok(Node::Quant {
            sort,
            forall,
            bit,
            id,
            body: Box::new(body?),
        })
    }
}

/// What one memoized transition is keyed by (see the module docs'
/// "Sharing").
#[derive(PartialEq, Eq, Hash)]
struct MemoKey {
    /// [`CompiledProperty::id`].
    property: u64,
    /// The plan node's `id`.
    node: u32,
    input: Input,
}

/// The inputs of a memoized transition.
#[derive(PartialEq, Eq, Hash)]
enum Input {
    Step {
        s: CState,
        op: Op,
        deco: u64,
    },
    Union {
        s1: CState,
        s2: CState,
        shift: usize,
    },
}

/// The per-thread transition memo, with its hit and miss counts since
/// the last [`take_memo_counts`].
#[derive(Default)]
struct Memo {
    entries: HashMap<MemoKey, CState, FxBuildHasher>,
    hits: u64,
    misses: u64,
}

/// Entry cap per thread; reaching it clears the memo. Distinct memoized
/// transitions of one catalog freeze at interface arity 4, on a fresh
/// thread: `independent-set-2` 236,709 and `connected` 98,304 fit;
/// `max-degree-2` (303,164), `bipartite` (445,724) and `2-colorable`
/// (800,349) clear it once or more.
const MEMO_CAP: usize = 1 << 18;

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

/// Looks `key` up in the memo and on a miss computes it with `run`.
fn memoized(key: MemoKey, run: impl FnOnce() -> CState) -> CState {
    let hit = MEMO.with(|m| {
        let mut m = m.borrow_mut();
        let out = m.entries.get(&key).cloned();
        match out {
            Some(_) => m.hits += 1,
            None => m.misses += 1,
        }
        out
    });
    if let Some(out) = hit {
        return out;
    }
    let out = run();
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.entries.len() >= MEMO_CAP {
            m.entries.clear();
        }
        m.entries.insert(key, out.clone());
    });
    out
}

/// This thread's memo hits and misses since the last call, as `(hits,
/// misses)`: transitions answered by the memo, and transitions it missed
/// and so ran. The Theorem 1 scheme adds them to its obs counters.
pub fn take_memo_counts() -> (u64, u64) {
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        (std::mem::take(&mut m.hits), std::mem::take(&mut m.misses))
    })
}

fn deco_has(deco: u64, idx: u8) -> bool {
    deco & (1u64 << idx) != 0
}

impl CompiledProperty {
    /// The initial (empty-graph) state of one plan node.
    fn init(node: &Node) -> CState {
        let raw = Self::init_raw(node);
        Self::normalize(node, raw)
    }

    fn init_raw(node: &Node) -> CState {
        match node {
            Node::Const(b) => CState::Done(*b),
            Node::InVSet { .. } | Node::InESet { .. } => CState::Tri(Tri::Undecided),
            Node::EqV { .. } => CState::EqV(EqVState::Pending {
                u: Place::Unplaced,
                v: Place::Unplaced,
            }),
            Node::EqE { .. } => CState::EqE(EqEState::Neither),
            Node::Adj { .. } => CState::Adj(AdjState::Pending {
                u: Place::Unplaced,
                v: Place::Unplaced,
                u_adj: 0,
                v_adj: 0,
            }),
            Node::Inc { .. } => CState::Inc(IncState::Pending {
                v: Place::Unplaced,
                ends: None,
            }),
            Node::Not(a) => Self::init(a),
            Node::Bin { a, b, .. } => CState::Pair(Shared::new((Self::init(a), Self::init(b)))),
            Node::Quant { sort, body, .. } => CState::Runs(Shared::new(vec![Run {
                data: RunData::initial(*sort),
                body: Self::init(body),
            }])),
        }
    }

    /// One structural operation applied to one node's state under the
    /// enclosing decoration mask, through the memo at product and
    /// quantifier nodes. Total and deterministic for every well-formed
    /// `(node, state)` pair.
    fn step(&self, node: &Node, s: &CState, op: Op, deco: u64) -> CState {
        if let CState::Done(b) = s {
            return CState::Done(*b);
        }
        let run = || Self::normalize(node, self.step_raw(node, s, op, deco));
        match node {
            Node::Bin { id, .. } | Node::Quant { id, .. } => memoized(
                MemoKey {
                    property: self.id,
                    node: *id,
                    input: Input::Step {
                        s: s.clone(),
                        op,
                        deco,
                    },
                },
                run,
            ),
            _ => run(),
        }
    }

    fn step_raw(&self, node: &Node, s: &CState, op: Op, deco: u64) -> CState {
        match (node, s) {
            (Node::InVSet { v, set }, CState::Tri(t)) => CState::Tri(match op {
                Op::AddVertex { .. } if *t == Tri::Undecided && deco_has(deco, *v) => {
                    Tri::of(deco_has(deco, *set))
                }
                _ => *t,
            }),
            (Node::InESet { e, set }, CState::Tri(t)) => CState::Tri(match op {
                Op::AddEdge { .. } if *t == Tri::Undecided && deco_has(deco, *e) => {
                    Tri::of(deco_has(deco, *set))
                }
                _ => *t,
            }),
            (Node::EqV { u, v }, CState::EqV(st)) => CState::EqV(step_eqv(*st, op, deco, *u, *v)),
            (Node::EqE { a, b }, CState::EqE(st)) => CState::EqE(step_eqe(*st, op, deco, *a, *b)),
            (Node::Adj { u, v }, CState::Adj(st)) => CState::Adj(step_adj(*st, op, deco, *u, *v)),
            (Node::Inc { e, v }, CState::Inc(st)) => CState::Inc(step_inc(*st, op, deco, *e, *v)),
            (Node::Not(a), _) => self.step(a, s, op, deco),
            (Node::Bin { a, b, .. }, CState::Pair(p)) => {
                let out = (self.step(a, &p.0, op, deco), self.step(b, &p.1, op, deco));
                if out == **p {
                    // Untouched by the operation: keep the shared node.
                    s.clone()
                } else {
                    CState::Pair(Shared::new(out))
                }
            }
            (
                Node::Quant {
                    sort, bit, body, ..
                },
                CState::Runs(runs),
            ) => {
                let out = self.step_runs(runs, *sort, *bit, body, op, deco);
                if out == **runs {
                    s.clone()
                } else {
                    CState::Runs(Shared::new(out))
                }
            }
            _ => panic!("compiled state does not match its plan node"),
        }
    }

    /// Disjoint union of two states of the same node (`shift` = arity of
    /// the left operand; right-operand slots are renumbered up by it),
    /// through the memo at product and quantifier nodes.
    fn union_state(&self, node: &Node, s1: &CState, s2: &CState, shift: usize) -> CState {
        // A decided verdict absorbs (two contradictory decided sides
        // cannot arise: each side's verdict quantifies over all
        // extensions, including their common union).
        if let CState::Done(b) = s1 {
            return CState::Done(*b);
        }
        if let CState::Done(b) = s2 {
            return CState::Done(*b);
        }
        let run = || Self::normalize(node, self.union_raw(node, s1, s2, shift));
        match node {
            Node::Bin { id, .. } | Node::Quant { id, .. } => memoized(
                MemoKey {
                    property: self.id,
                    node: *id,
                    input: Input::Union {
                        s1: s1.clone(),
                        s2: s2.clone(),
                        shift,
                    },
                },
                run,
            ),
            _ => run(),
        }
    }

    fn union_raw(&self, node: &Node, s1: &CState, s2: &CState, shift: usize) -> CState {
        match (node, s1, s2) {
            (Node::InVSet { .. } | Node::InESet { .. }, CState::Tri(a), CState::Tri(b)) => {
                CState::Tri(a.union(*b))
            }
            (Node::EqV { .. }, CState::EqV(a), CState::EqV(b)) => {
                CState::EqV(union_eqv(*a, *b, shift))
            }
            (Node::EqE { .. }, CState::EqE(a), CState::EqE(b)) => CState::EqE(union_eqe(*a, *b)),
            (Node::Adj { .. }, CState::Adj(a), CState::Adj(b)) => {
                CState::Adj(union_adj(*a, *b, shift))
            }
            (Node::Inc { .. }, CState::Inc(a), CState::Inc(b)) => {
                CState::Inc(union_inc(*a, *b, shift))
            }
            (Node::Not(n), _, _) => self.union_state(n, s1, s2, shift),
            (Node::Bin { a, b, .. }, CState::Pair(p1), CState::Pair(p2)) => {
                CState::Pair(Shared::new((
                    self.union_state(a, &p1.0, &p2.0, shift),
                    self.union_state(b, &p1.1, &p2.1, shift),
                )))
            }
            (Node::Quant { body, .. }, CState::Runs(r1), CState::Runs(r2)) => {
                let mut out = Vec::with_capacity(r1.len() * r2.len());
                for a in r1.iter() {
                    for b in r2.iter() {
                        let Some(data) = a.data.union(&b.data, shift) else {
                            continue;
                        };
                        out.push(Run {
                            data,
                            body: self.union_state(body, &a.body, &b.body, shift),
                        });
                    }
                }
                CState::Runs(Shared::new(canonical_runs(out)))
            }
            _ => panic!("compiled state does not match its plan node"),
        }
    }

    /// Acceptance of the summarized (decorated) graph at one node.
    fn accept_state(node: &Node, s: &CState) -> bool {
        match (node, s) {
            (Node::InVSet { .. } | Node::InESet { .. }, CState::Tri(t)) => *t == Tri::Yes,
            (Node::EqV { .. }, CState::EqV(st)) => *st == EqVState::True,
            (Node::EqE { .. }, CState::EqE(st)) => *st == EqEState::True,
            (Node::Adj { .. }, CState::Adj(st)) => *st == AdjState::True,
            (Node::Inc { .. }, CState::Inc(st)) => *st == IncState::True,
            (Node::Not(a), _) => !Self::accept_state(a, s),
            (Node::Bin { op, a, b, .. }, CState::Pair(p)) => {
                let (x, y) = (Self::accept_state(a, &p.0), Self::accept_state(b, &p.1));
                match op {
                    BinOp::And => x && y,
                    BinOp::Or => x || y,
                    BinOp::Implies => !x || y,
                    BinOp::Iff => x == y,
                }
            }
            (
                Node::Quant {
                    sort, forall, body, ..
                },
                CState::Runs(runs),
            ) => {
                // Individual quantifiers range over *placed* runs only
                // (an unplaced run is the no-candidate branch); set
                // quantifiers range over every run.
                let relevant = runs.iter().filter(|r| match (&r.data, sort) {
                    (RunData::Individual { placed }, _) => *placed,
                    _ => true,
                });
                let mut accepts = relevant.map(|r| Self::accept_state(body, &r.body));
                if *forall {
                    accepts.all(|a| a)
                } else {
                    accepts.any(|a| a)
                }
            }
            (_, CState::Done(b)) => *b,
            _ => panic!("compiled state does not match its plan node"),
        }
    }

    /// The node's verdict when it is already fixed (`Not` unwraps to its
    /// child, whose state it shares).
    fn decided(node: &Node, s: &CState) -> Option<bool> {
        match (node, s) {
            (Node::Not(a), _) => Self::decided(a, s).map(|b| !b),
            (_, CState::Done(b)) => Some(*b),
            _ => None,
        }
    }

    /// Collapses a state whose verdict is fixed in *every completion* of
    /// the current partial graph to [`CState::Done`]. `Done` is then
    /// absorbing under all operations — including union, because every
    /// completion of `union(s, t)` is in particular a completion of `s`
    /// (the other side's structure is just part of the extension).
    ///
    /// The collapse is sound by structural induction: a leaf decides only
    /// once its variables are resolved and its verdict witnessed or
    /// foreclosed; products short-circuit; for quantifiers, a *counting*
    /// run (placed individual, or any set run) with a decided body of the
    /// witnessing polarity (`∃`: true, `∀`: false) is a standing
    /// witness/counterexample in every completion and decides the node,
    /// while runs of the neutral polarity can never affect acceptance
    /// again — their forks (future candidate choices) inherit the decided
    /// body — and are dropped; an emptied run set is itself decided. This
    /// collapse is what keeps compiled state spaces small enough for the
    /// freeze pass.
    fn normalize(node: &Node, s: CState) -> CState {
        match (node, &s) {
            // A `Not` node shares its child's (already normalized) state.
            (Node::Not(_), _) => s,
            (_, CState::Tri(Tri::Yes))
            | (_, CState::EqV(EqVState::True))
            | (_, CState::EqE(EqEState::True))
            | (_, CState::Adj(AdjState::True))
            | (_, CState::Inc(IncState::True)) => CState::Done(true),
            (_, CState::Tri(Tri::No))
            | (_, CState::EqV(EqVState::False))
            | (_, CState::EqE(EqEState::False))
            | (_, CState::Adj(AdjState::False))
            | (_, CState::Inc(IncState::False)) => CState::Done(false),
            (Node::Bin { op, a, b, .. }, CState::Pair(p)) => {
                let l = Self::decided(a, &p.0);
                let r = Self::decided(b, &p.1);
                match (op, l, r) {
                    (BinOp::And, Some(a), Some(b)) => CState::Done(a && b),
                    (BinOp::Or, Some(a), Some(b)) => CState::Done(a || b),
                    (BinOp::Implies, Some(a), Some(b)) => CState::Done(!a || b),
                    (BinOp::Iff, Some(a), Some(b)) => CState::Done(a == b),
                    (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => {
                        CState::Done(false)
                    }
                    (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => CState::Done(true),
                    (BinOp::Implies, Some(false), _) | (BinOp::Implies, _, Some(true)) => {
                        CState::Done(true)
                    }
                    _ => s,
                }
            }
            (
                Node::Quant {
                    sort: _,
                    forall,
                    body,
                    ..
                },
                CState::Runs(runs),
            ) => {
                let witness = !*forall;
                let neutral = |r: &Run| Self::decided(body, &r.body) == Some(!witness);
                let mut dropped = 0;
                for r in runs.iter() {
                    let counts = match &r.data {
                        RunData::Individual { placed } => *placed,
                        _ => true,
                    };
                    match Self::decided(body, &r.body) {
                        Some(b) if b == witness && counts => return CState::Done(witness),
                        // Neutral polarity: the run, its forks, and its
                        // union pairings can never affect acceptance.
                        Some(b) if b != witness => dropped += 1,
                        // Undecided, or an unplaced run of witnessing
                        // polarity (future forks place it).
                        _ => {}
                    }
                }
                if dropped == runs.len() {
                    // Every run was neutral: `∃` has no candidate left,
                    // `∀` no counterexample source.
                    CState::Done(*forall)
                } else if dropped == 0 {
                    s
                } else {
                    let kept = runs.iter().filter(|r| !neutral(r)).cloned().collect();
                    CState::Runs(Shared::new(kept))
                }
            }
            _ => s,
        }
    }
}

impl RunData {
    fn initial(sort: Sort) -> Self {
        match sort {
            Sort::Vertex | Sort::Edge => Self::Individual { placed: false },
            Sort::VertexSet => Self::VSet { bits: 0 },
            Sort::EdgeSet => Self::ESet,
        }
    }

    /// Combines the decoration data of two runs being unioned; `None`
    /// when the pair is inconsistent (an individual variable placed on
    /// both sides).
    fn union(&self, other: &Self, shift: usize) -> Option<Self> {
        match (self, other) {
            (Self::Individual { placed: a }, Self::Individual { placed: b }) => {
                if *a && *b {
                    None
                } else {
                    Some(Self::Individual { placed: *a || *b })
                }
            }
            (Self::VSet { bits: a }, Self::VSet { bits: b }) => Some(Self::VSet {
                bits: a | if shift < 64 { b << shift } else { 0 },
            }),
            (Self::ESet, Self::ESet) => Some(Self::ESet),
            _ => panic!("mismatched run data in union"),
        }
    }
}

/// Sorts and deduplicates a run set (the canonical powerset value),
/// dropping the spare capacity forking and deduplication left: frozen
/// tables keep thousands of these sets alive.
fn canonical_runs(mut runs: Vec<Run>) -> Vec<Run> {
    runs.sort_unstable();
    runs.dedup();
    runs.shrink_to_fit();
    runs
}

impl CompiledProperty {
    /// One quantifier node's transition: fork runs on the ops that decorate
    /// this variable's sort, filter runs whose decoration a glue
    /// contradicts, and keep the set canonical.
    fn step_runs(
        &self,
        runs: &[Run],
        sort: Sort,
        qbit: u8,
        body: &Node,
        op: Op,
        deco: u64,
    ) -> Vec<Run> {
        let mut out = Vec::with_capacity(runs.len() * 2);
        let bitmask = 1u64 << qbit;
        for run in runs {
            match (&run.data, op, sort) {
                (RunData::Individual { placed }, Op::AddVertex { .. }, Sort::Vertex)
                | (RunData::Individual { placed }, Op::AddEdge { .. }, Sort::Edge) => {
                    out.push(Run {
                        data: run.data.clone(),
                        body: self.step(body, &run.body, op, deco),
                    });
                    if !placed {
                        out.push(Run {
                            data: RunData::Individual { placed: true },
                            body: self.step(body, &run.body, op, deco | bitmask),
                        });
                    }
                }
                (RunData::VSet { bits }, Op::AddVertex { slot }, Sort::VertexSet) => {
                    out.push(Run {
                        data: RunData::VSet { bits: *bits },
                        body: self.step(body, &run.body, op, deco),
                    });
                    out.push(Run {
                        data: RunData::VSet {
                            bits: bits | bit(slot),
                        },
                        body: self.step(body, &run.body, op, deco | bitmask),
                    });
                }
                (RunData::ESet, Op::AddEdge { .. }, Sort::EdgeSet) => {
                    out.push(Run {
                        data: RunData::ESet,
                        body: self.step(body, &run.body, op, deco),
                    });
                    out.push(Run {
                        data: RunData::ESet,
                        body: self.step(body, &run.body, op, deco | bitmask),
                    });
                }
                (RunData::VSet { bits }, Op::Glue { keep, drop, .. }, _) => {
                    if has(*bits, keep) != has(*bits, drop) {
                        // This run decorated the two vertices inconsistently;
                        // no decoration of the glued graph corresponds to it.
                        continue;
                    }
                    out.push(Run {
                        data: RunData::VSet {
                            bits: set_shift_down(*bits, drop),
                        },
                        body: self.step(body, &run.body, op, deco),
                    });
                }
                (RunData::VSet { bits }, Op::Forget { slot }, _) => {
                    out.push(Run {
                        data: RunData::VSet {
                            bits: set_shift_down(*bits, slot),
                        },
                        body: self.step(body, &run.body, op, deco),
                    });
                }
                (RunData::VSet { bits }, Op::Swap { a, b }, _) => {
                    out.push(Run {
                        data: RunData::VSet {
                            bits: set_swap(*bits, a, b),
                        },
                        body: self.step(body, &run.body, op, deco),
                    });
                }
                _ => {
                    out.push(Run {
                        data: run.data.clone(),
                        body: self.step(body, &run.body, op, deco),
                    });
                }
            }
        }
        canonical_runs(out)
    }
}

fn step_eqv(st: EqVState, op: Op, deco: u64, ub: u8, vb: u8) -> EqVState {
    let EqVState::Pending { u, v } = st else {
        return st;
    };
    match op {
        Op::AddVertex { slot } => {
            let pu = deco_has(deco, ub) && u == Place::Unplaced;
            let pv = deco_has(deco, vb) && v == Place::Unplaced;
            if pu && pv {
                return EqVState::True;
            }
            let u = if pu { Place::At(slot as u8) } else { u };
            let v = if pv { Place::At(slot as u8) } else { v };
            EqVState::Pending { u, v }
        }
        Op::AddEdge { .. } => st,
        Op::Glue { keep, drop, .. } => {
            let at = |p: Place, s: usize| p == Place::At(s as u8);
            if (at(u, keep) && at(v, drop)) || (at(u, drop) && at(v, keep)) {
                return EqVState::True;
            }
            EqVState::Pending {
                u: glue_place(u, keep, drop),
                v: glue_place(v, keep, drop),
            }
        }
        Op::Forget { slot } => {
            if u == Place::At(slot as u8) || v == Place::At(slot as u8) {
                // The forgotten vertex can never be glued with anything,
                // so the two variables can never coincide.
                EqVState::False
            } else {
                EqVState::Pending {
                    u: u.shift_down(slot),
                    v: v.shift_down(slot),
                }
            }
        }
        Op::Swap { a, b } => EqVState::Pending {
            u: u.swap(a, b),
            v: v.swap(a, b),
        },
    }
}

fn glue_place(p: Place, keep: usize, drop: usize) -> Place {
    if p == Place::At(drop as u8) {
        Place::At(keep as u8).shift_down(drop)
    } else {
        p.shift_down(drop)
    }
}

fn union_eqv(a: EqVState, b: EqVState, shift: usize) -> EqVState {
    match (a, b) {
        (EqVState::False, _) | (_, EqVState::False) => EqVState::False,
        (EqVState::True, _) | (_, EqVState::True) => EqVState::True,
        (EqVState::Pending { u: u1, v: v1 }, EqVState::Pending { u: u2, v: v2 }) => {
            EqVState::Pending {
                u: merge_place(u1, u2, shift),
                v: merge_place(v1, v2, shift),
            }
        }
    }
}

/// An individual variable is placed on at most one side of a union
/// (inconsistent pairs are dropped by the quantifier); the combined
/// placement is whichever side has it, right-side slots shifted up.
fn merge_place(left: Place, right: Place, shift: usize) -> Place {
    match (left, right) {
        (Place::Unplaced, r) => r.shift_up(shift),
        (l, _) => l,
    }
}

fn step_eqe(st: EqEState, op: Op, deco: u64, ab: u8, bb: u8) -> EqEState {
    let Op::AddEdge { .. } = op else {
        return st;
    };
    let pa = deco_has(deco, ab);
    let pb = deco_has(deco, bb);
    match st {
        EqEState::Neither => match (pa, pb) {
            (true, true) => EqEState::True,
            (true, false) => EqEState::AOnly,
            (false, true) => EqEState::BOnly,
            (false, false) => EqEState::Neither,
        },
        EqEState::AOnly if pb => EqEState::False,
        EqEState::BOnly if pa => EqEState::False,
        other => other,
    }
}

fn union_eqe(a: EqEState, b: EqEState) -> EqEState {
    use EqEState::*;
    match (a, b) {
        (False, _) | (_, False) => False,
        (True, _) | (_, True) => True,
        (Neither, x) | (x, Neither) => x,
        (AOnly, BOnly) | (BOnly, AOnly) => False,
        (AOnly, AOnly) | (BOnly, BOnly) => a,
    }
}

/// Collapses an `adj` pending state whose verdict can no longer change:
/// a forgotten vertex gets no new edges, so once it is adjacent to no
/// live slot — in particular once both endpoints are internal — no
/// future placement or merge can connect it to the other endpoint.
fn pending_or_false_adj(u: Place, v: Place, u_adj: SlotSet, v_adj: SlotSet) -> AdjState {
    let u_stuck = u == Place::Inside && u_adj == 0;
    let v_stuck = v == Place::Inside && v_adj == 0;
    let both_inside = u == Place::Inside && v == Place::Inside;
    if both_inside || u_stuck || v_stuck {
        return AdjState::False;
    }
    AdjState::Pending { u, v, u_adj, v_adj }
}

fn step_adj(st: AdjState, op: Op, deco: u64, ub: u8, vb: u8) -> AdjState {
    let AdjState::Pending { u, v, u_adj, v_adj } = st else {
        return st;
    };
    let at = |p: Place, s: usize| p == Place::At(s as u8);
    match op {
        Op::AddVertex { slot } => {
            let pu = deco_has(deco, ub) && u == Place::Unplaced;
            let pv = deco_has(deco, vb) && v == Place::Unplaced;
            if pu && pv {
                // Both variables on the same (simple-graph) vertex:
                // adj(x, x) never holds.
                return AdjState::False;
            }
            AdjState::Pending {
                u: if pu { Place::At(slot as u8) } else { u },
                v: if pv { Place::At(slot as u8) } else { v },
                u_adj,
                v_adj,
            }
        }
        Op::AddEdge { a, b } => {
            if (at(u, a) && at(v, b)) || (at(u, b) && at(v, a)) {
                return AdjState::True;
            }
            let mut u_adj = u_adj;
            let mut v_adj = v_adj;
            if at(u, a) {
                u_adj |= bit(b);
            }
            if at(u, b) {
                u_adj |= bit(a);
            }
            if at(v, a) {
                v_adj |= bit(b);
            }
            if at(v, b) {
                v_adj |= bit(a);
            }
            AdjState::Pending { u, v, u_adj, v_adj }
        }
        Op::Glue { keep, drop, row } => {
            let at_merge = |p: Place| at(p, keep) || at(p, drop);
            if at_merge(u) && at_merge(v) {
                // Merged into one vertex: never self-adjacent.
                return AdjState::False;
            }
            let merge = |adj: SlotSet| {
                let mut a = adj;
                if has(a, drop) {
                    a |= bit(keep);
                }
                set_shift_down(a, drop)
            };
            // A variable sitting on the glued pair inherits the merged
            // vertex's full neighbour set; anyone else just remaps.
            let u_adj = if at_merge(u) { row } else { merge(u_adj) };
            let v_adj = if at_merge(v) { row } else { merge(v_adj) };
            let u = glue_place(u, keep, drop);
            let v = glue_place(v, keep, drop);
            if let Place::At(s) = u {
                if has(v_adj, usize::from(s)) {
                    return AdjState::True;
                }
            }
            if let Place::At(t) = v {
                if has(u_adj, usize::from(t)) {
                    return AdjState::True;
                }
            }
            pending_or_false_adj(u, v, u_adj, v_adj)
        }
        Op::Forget { slot } => {
            let u = if at(u, slot) {
                Place::Inside
            } else {
                u.shift_down(slot)
            };
            let v = if at(v, slot) {
                Place::Inside
            } else {
                v.shift_down(slot)
            };
            pending_or_false_adj(
                u,
                v,
                set_shift_down(u_adj, slot),
                set_shift_down(v_adj, slot),
            )
        }
        Op::Swap { a, b } => AdjState::Pending {
            u: u.swap(a, b),
            v: v.swap(a, b),
            u_adj: set_swap(u_adj, a, b),
            v_adj: set_swap(v_adj, a, b),
        },
    }
}

fn union_adj(a: AdjState, b: AdjState, shift: usize) -> AdjState {
    match (a, b) {
        (AdjState::False, _) | (_, AdjState::False) => AdjState::False,
        (AdjState::True, _) | (_, AdjState::True) => AdjState::True,
        (
            AdjState::Pending {
                u: u1,
                v: v1,
                u_adj: ua1,
                v_adj: va1,
            },
            AdjState::Pending {
                u: u2,
                v: v2,
                u_adj: ua2,
                v_adj: va2,
            },
        ) => {
            let up = |s: SlotSet| if shift < 64 { s << shift } else { 0 };
            pending_or_false_adj(
                merge_place(u1, u2, shift),
                merge_place(v1, v2, shift),
                ua1 | up(ua2),
                va1 | up(va2),
            )
        }
    }
}

fn step_inc(st: IncState, op: Op, deco: u64, eb: u8, vb: u8) -> IncState {
    let IncState::Pending { v, ends } = st else {
        return st;
    };
    let at = |p: Place, s: usize| p == Place::At(s as u8);
    match op {
        Op::AddVertex { slot } => {
            if deco_has(deco, vb) && v == Place::Unplaced {
                // A fresh vertex is not an endpoint of an existing edge.
                IncState::Pending {
                    v: Place::At(slot as u8),
                    ends,
                }
            } else {
                IncState::Pending { v, ends }
            }
        }
        Op::AddEdge { a, b } => {
            if deco_has(deco, eb) && ends.is_none() {
                if at(v, a) || at(v, b) {
                    return IncState::True;
                }
                if v == Place::Inside {
                    // The edge's endpoints are live slots; a forgotten
                    // vertex is neither, and never will be.
                    return IncState::False;
                }
                return IncState::Pending {
                    v,
                    ends: Some(bit(a) | bit(b)),
                };
            }
            IncState::Pending { v, ends }
        }
        Op::Glue { keep, drop, .. } => {
            if let Some(e) = ends {
                let hit = (at(v, keep) && has(e, drop)) || (at(v, drop) && has(e, keep));
                if hit {
                    return IncState::True;
                }
                let mut e2 = e;
                if has(e2, drop) {
                    e2 |= bit(keep);
                }
                let e2 = set_shift_down(e2, drop);
                pending_or_false(glue_place(v, keep, drop), Some(e2))
            } else {
                pending_or_false(glue_place(v, keep, drop), None)
            }
        }
        Op::Forget { slot } => {
            let v2 = if at(v, slot) {
                Place::Inside
            } else {
                v.shift_down(slot)
            };
            let ends2 = ends.map(|e| set_shift_down(e, slot));
            pending_or_false(v2, ends2)
        }
        Op::Swap { a, b } => IncState::Pending {
            v: v.swap(a, b),
            ends: ends.map(|e| set_swap(e, a, b)),
        },
    }
}

/// Collapses an `inc` pending state whose verdict can no longer change.
fn pending_or_false(v: Place, ends: Option<SlotSet>) -> IncState {
    match (v, ends) {
        // Vertex fixed internally: live endpoints can only merge with
        // live slots, a future edge placement lands on live slots.
        (Place::Inside, _) => IncState::False,
        // Edge placed but every endpoint retired: the vertex (current or
        // future) can never coincide with one.
        (_, Some(0)) => IncState::False,
        _ => IncState::Pending { v, ends },
    }
}

fn union_inc(a: IncState, b: IncState, shift: usize) -> IncState {
    match (a, b) {
        (IncState::False, _) | (_, IncState::False) => IncState::False,
        (IncState::True, _) | (_, IncState::True) => IncState::True,
        (IncState::Pending { v: v1, ends: e1 }, IncState::Pending { v: v2, ends: e2 }) => {
            let up = |s: SlotSet| if shift < 64 { s << shift } else { 0 };
            let ends = match (e1, e2) {
                (Some(e), _) => Some(e),
                (None, Some(e)) => Some(up(e)),
                (None, None) => None,
            };
            pending_or_false(merge_place(v1, v2, shift), ends)
        }
    }
}

impl Property for CompiledProperty {
    type State = CompiledState;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn empty(&self) -> CompiledState {
        CompiledState {
            arity: 0,
            adj: Vec::new(),
            root: Self::init(&self.plan),
        }
    }

    fn add_vertex(&self, s: &CompiledState) -> CompiledState {
        let op = Op::AddVertex {
            slot: usize::from(s.arity),
        };
        let mut adj = s.adj.clone();
        adj.push(0);
        CompiledState {
            arity: s.arity + 1,
            adj,
            root: self.step(&self.plan, &s.root, op, 0),
        }
    }

    fn add_edge(&self, s: &CompiledState, a: Slot, b: Slot, marked: bool) -> CompiledState {
        if !marked {
            // Completion-only structure: invisible to the property.
            return s.clone();
        }
        let mut adj = s.adj.clone();
        adj[a] |= bit(b);
        adj[b] |= bit(a);
        CompiledState {
            arity: s.arity,
            adj,
            root: self.step(&self.plan, &s.root, Op::AddEdge { a, b }, 0),
        }
    }

    fn glue(&self, s: &CompiledState, a: Slot, b: Slot) -> CompiledState {
        let (keep, drop) = glue_order(a, b);
        let mut adj = s.adj.clone();
        let merged = (adj[keep] | adj[drop]) & !(bit(keep) | bit(drop));
        adj[keep] = merged;
        adj.remove(drop);
        for r in adj.iter_mut() {
            if has(*r, drop) {
                *r |= bit(keep);
            }
            *r = set_shift_down(*r, drop);
        }
        let row = adj[keep];
        CompiledState {
            arity: s.arity.saturating_sub(1),
            adj,
            root: self.step(&self.plan, &s.root, Op::Glue { keep, drop, row }, 0),
        }
    }

    fn forget(&self, s: &CompiledState, a: Slot) -> CompiledState {
        let mut adj = s.adj.clone();
        adj.remove(a);
        for r in adj.iter_mut() {
            *r = set_shift_down(*r, a);
        }
        CompiledState {
            arity: s.arity.saturating_sub(1),
            adj,
            root: self.step(&self.plan, &s.root, Op::Forget { slot: a }, 0),
        }
    }

    fn union(&self, s1: &CompiledState, s2: &CompiledState) -> CompiledState {
        let shift = usize::from(s1.arity);
        let mut adj = s1.adj.clone();
        adj.extend(
            s2.adj
                .iter()
                .map(|r| if shift < 64 { r << shift } else { 0 }),
        );
        CompiledState {
            arity: s1.arity + s2.arity,
            adj,
            root: self.union_state(&self.plan, &s1.root, &s2.root, shift),
        }
    }

    fn swap(&self, s: &CompiledState, a: Slot, b: Slot) -> CompiledState {
        let mut adj = s.adj.clone();
        adj.swap(a, b);
        for r in adj.iter_mut() {
            *r = set_swap(*r, a, b);
        }
        CompiledState {
            arity: s.arity,
            adj,
            root: self.step(&self.plan, &s.root, Op::Swap { a, b }, 0),
        }
    }

    fn accept(&self, s: &CompiledState) -> bool {
        Self::accept_state(&self.plan, &s.root)
    }
}

impl fmt::Debug for CompiledProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProperty")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, props};
    use lanecert_algebra::mirror::{self, Mirror, Program, TraceStep};
    use lanecert_algebra::{Algebra, Class, FreezeOptions, FrozenAlgebra, StateId};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn alg(f: &Formula) -> Algebra {
        Algebra::new(compile(f).expect("formula compiles"))
    }

    /// Trace-size budgets for the generator. `cap` bounds *live* slots
    /// (run sets grow as 2^arity per vertex-set quantifier); `vmax` and
    /// `emax` bound *cumulative* vertices and marked edges (edge-set
    /// quantifier run sets grow with every marked edge until dedup
    /// collapses them, so dev-profile tests need both knobs).
    #[derive(Copy, Clone)]
    struct Budget {
        cap: usize,
        vmax: usize,
        emax: usize,
    }

    /// Random op-trace generator honouring a [`Budget`] (the stock
    /// mirror generator's 12-slot traces are too wide for nested-set
    /// formulas in dev profile).
    fn gen_steps(
        rng: &mut StdRng,
        m: &mut Mirror,
        count: usize,
        cap: usize,
        budget: &mut Budget,
        out: &mut Vec<TraceStep>,
    ) {
        for _ in 0..count {
            let k = m.slot_count();
            let step = match rng.random_range(0..12u32) {
                0..=3 => {
                    if k >= cap || budget.vmax == 0 {
                        continue;
                    }
                    budget.vmax -= 1;
                    TraceStep::Vertex
                }
                4..=8 => {
                    if k < 2 {
                        continue;
                    }
                    let a = rng.random_range(0..k);
                    let b = rng.random_range(0..k);
                    if a == b || m.same_vertex(a, b) {
                        continue;
                    }
                    let marked = rng.random_range(0..6u32) != 0;
                    if marked && (budget.emax == 0 || m.marked_adjacent(a, b)) {
                        continue;
                    }
                    if marked {
                        budget.emax -= 1;
                    }
                    TraceStep::Edge(a, b, marked)
                }
                9..=10 => {
                    if k < 3 {
                        continue;
                    }
                    let a = rng.random_range(0..k);
                    let b = rng.random_range(0..k);
                    if a == b
                        || m.same_vertex(a, b)
                        || m.marked_adjacent(a, b)
                        || m.share_marked_neighbor(a, b)
                    {
                        continue;
                    }
                    TraceStep::Glue(a, b)
                }
                _ => {
                    if k < 2 {
                        continue;
                    }
                    TraceStep::Forget(rng.random_range(0..k))
                }
            };
            m.apply(step);
            out.push(step);
        }
    }

    fn random_capped_program(rng: &mut StdRng, mut budget: Budget, count: usize) -> Program {
        let segs = if rng.random_range(0..3u32) == 0 { 2 } else { 1 };
        let cap = budget.cap;
        let mut prog = Program::default();
        let mut combined = Mirror::default();
        for _ in 0..segs {
            let mut m = Mirror::default();
            let mut steps = Vec::new();
            gen_steps(rng, &mut m, count / segs, cap, &mut budget, &mut steps);
            combined.union(&m);
            prog.segments.push(steps);
        }
        gen_steps(
            rng,
            &mut combined,
            count / 2,
            cap + 1,
            &mut budget,
            &mut prog.tail,
        );
        prog
    }

    /// Differentially checks one compiled formula against the naive
    /// evaluator on random primitive-op traces (glue/forget/union
    /// included), via the trace mirror.
    fn check(f: &Formula, seed: u64, trials: usize, budget: Budget) {
        let a = alg(f);
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..trials {
            let prog = random_capped_program(&mut rng, budget, 32);
            let got = a.accept(&mirror::run_program(&a, &prog));
            let mut m = mirror::mirror_program(&prog);
            let g = m.marked_graph();
            let want = eval::check(&g, f);
            assert_eq!(
                got,
                want,
                "{}: trial {t} disagrees (graph n={} m={}): {prog:?}",
                a.name(),
                g.vertex_count(),
                g.edge_count()
            );
        }
    }

    #[test]
    fn compile_rejects_open_and_ill_sorted_formulas() {
        assert_eq!(
            compile(&Formula::Adj(0, 1)).err(),
            Some(CompileError::UnboundVariable(0))
        );
        // x bound as a vertex but used as an edge.
        let f = Formula::Exists(Sort::Vertex, 0, Box::new(Formula::EqE(0, 0)));
        assert_eq!(
            compile(&f).err(),
            Some(CompileError::SortMismatch {
                var: 0,
                bound: Sort::Vertex,
                used: Sort::Edge
            })
        );
    }

    #[test]
    fn compile_rejects_too_many_quantifiers() {
        let mut f = Formula::True;
        for v in 0..=MAX_QUANTIFIERS as Var {
            f = Formula::Exists(Sort::Vertex, v, Box::new(f));
        }
        assert!(matches!(
            compile(&f),
            Err(CompileError::TooManyQuantifiers { .. })
        ));
    }

    #[test]
    fn adjacent_pair_accepts_exactly_on_an_edge() {
        // ∃u ∃v adj(u, v)
        let f = Formula::Exists(
            Sort::Vertex,
            0,
            Box::new(Formula::Exists(
                Sort::Vertex,
                1,
                Box::new(Formula::Adj(0, 1)),
            )),
        );
        let a = alg(&f);
        let mut s = a.empty();
        assert!(!a.accept(&s));
        s = a.add_vertex(s);
        s = a.add_vertex(s);
        assert!(!a.accept(&s));
        let with_unmarked = a.add_edge(s.clone(), 0, 1, false);
        assert!(!a.accept(&with_unmarked), "unmarked edges are invisible");
        s = a.add_edge(s, 0, 1, true);
        assert!(a.accept(&s));
    }

    #[test]
    fn verdict_survives_forgetting_endpoints() {
        let f = Formula::Exists(
            Sort::Vertex,
            0,
            Box::new(Formula::Exists(
                Sort::Vertex,
                1,
                Box::new(Formula::Adj(0, 1)),
            )),
        );
        let a = alg(&f);
        let prog = Program {
            segments: vec![vec![
                TraceStep::Vertex,
                TraceStep::Vertex,
                TraceStep::Edge(0, 1, true),
                TraceStep::Forget(0),
                TraceStep::Forget(0),
            ]],
            tail: vec![],
        };
        assert!(a.accept(&mirror::run_program(&a, &prog)));
    }

    #[test]
    fn glue_makes_adjacency_across_union() {
        // Two disjoint marked edges; gluing an endpoint of each yields a
        // path of three — still satisfies ∃u∃v adj(u,v), and satisfies
        // connectivity only after the glue.
        let conn = props::connected();
        let a = alg(&conn);
        let seg = vec![
            TraceStep::Vertex,
            TraceStep::Vertex,
            TraceStep::Edge(0, 1, true),
        ];
        let split = Program {
            segments: vec![seg.clone(), seg.clone()],
            tail: vec![],
        };
        assert!(!a.accept(&mirror::run_program(&a, &split)));
        let joined = Program {
            segments: vec![seg.clone(), seg],
            tail: vec![TraceStep::Glue(1, 2)],
        };
        assert!(a.accept(&mirror::run_program(&a, &joined)));
    }

    #[test]
    fn differential_first_order_formulas() {
        let b = Budget {
            cap: 6,
            vmax: 12,
            emax: 20,
        };
        check(&props::triangle_free(), 11, 40, b);
        check(&props::max_degree_at_most(2), 12, 40, b);
        check(&props::dominating_set_at_most(2), 13, 40, b);
        check(&props::vertex_cover_at_most(2), 14, 40, b);
        check(&props::independent_set_at_least(3), 15, 40, b);
    }

    #[test]
    fn differential_set_quantifier_formulas() {
        let b = Budget {
            cap: 4,
            vmax: 8,
            emax: 9,
        };
        check(&props::bipartite(), 21, 16, b);
        check(&props::connected(), 22, 16, b);
        check(&props::acyclic(), 23, 12, b);
        check(
            &props::colorable(2),
            24,
            8,
            Budget {
                cap: 3,
                vmax: 6,
                emax: 7,
            },
        );
    }

    #[test]
    fn differential_matching_and_hamiltonicity() {
        let b = Budget {
            cap: 4,
            vmax: 6,
            emax: 8,
        };
        check(&props::perfect_matching(), 31, 8, b);
        check(&props::hamiltonian_cycle(), 32, 6, b);
    }

    #[test]
    fn compiled_name_is_alpha_invariant() {
        let f1 = props::bipartite();
        // Same formula with shifted variable numbers.
        let g = Formula::Exists(
            Sort::VertexSet,
            40,
            Box::new(Formula::Forall(
                Sort::Vertex,
                41,
                Box::new(Formula::Forall(
                    Sort::Vertex,
                    42,
                    Box::new(
                        Formula::Adj(41, 42)
                            .implies(Formula::InVSet(41, 40).iff(Formula::InVSet(42, 40)).not()),
                    ),
                )),
            )),
        );
        assert_eq!(compile(&f1).unwrap().name(), compile(&g).unwrap().name());
    }

    /// Oracle for the freeze pass's generating set: the closure under
    /// every primitive operation on every slot choice, with unions in
    /// both operand orders, up to `cap` slots.
    fn full_closure(alg: &Algebra, cap: usize) -> HashSet<Class> {
        let mut order = vec![alg.empty()];
        let mut seen: HashSet<Class> = order.iter().cloned().collect();
        let mut next = 0;
        while next < order.len() {
            let s = order[next].clone();
            let a = s.arity();
            let mut out = Vec::new();
            if a < cap {
                out.push(alg.add_vertex(s.clone()));
            }
            for x in 0..a {
                for y in (0..a).filter(|&y| y != x) {
                    out.push(alg.add_edge(s.clone(), x, y, false));
                    out.push(alg.add_edge(s.clone(), x, y, true));
                }
                for y in (x + 1)..a {
                    out.push(alg.glue(s.clone(), x, y));
                    out.push(alg.swap(s.clone(), x, y));
                }
                out.push(alg.forget(s.clone(), x));
            }
            for t in order[..=next].iter().filter(|t| a + t.arity() <= cap) {
                out.push(alg.union(s.clone(), t.clone()));
                out.push(alg.union(t.clone(), s.clone()));
            }
            order.extend(out.into_iter().filter(|c| seen.insert(c.clone())));
            next += 1;
        }
        seen
    }

    /// `FrozenAlgebra::swap`, answered from transition rows, against
    /// `Algebra::swap` on every class of `f`'s total table at arity 4 and
    /// every transposition (both slot orders; the algebra runs once per
    /// pair).
    fn assert_row_swaps_match_the_algebra(f: &Formula) {
        let frozen =
            FrozenAlgebra::freeze(Arc::new(alg(f)), &FreezeOptions::for_interface_arity(4));
        assert!(frozen.is_total());
        for c in
            (0..frozen.canonical_state_count() as u32).filter_map(|i| frozen.class_of(StateId(i)))
        {
            for b in 0..c.arity() {
                for a in 0..b {
                    let want = frozen.algebra().swap(c.clone(), a, b);
                    assert_eq!(
                        frozen.swap(c.clone(), a, b),
                        want,
                        "swap({a}, {b}) of {c:?}"
                    );
                    assert_eq!(
                        frozen.swap(c.clone(), b, a),
                        want,
                        "swap({b}, {a}) of {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_swaps_match_the_algebra_on_compiled_formulas() {
        for f in [props::max_degree_at_most(1), props::vertex_cover_at_most(1)] {
            assert_row_swaps_match_the_algebra(&f);
        }
    }

    /// The same oracle on the formulas lanebench's `compiled` workload
    /// certifies: 2,809 and 12,520 classes, too slow for a debug build.
    /// Run with `cargo test --release -p lanecert_mso --lib -- --ignored`.
    #[test]
    #[ignore = "release only: freezes compiled connected and independent-set-2"]
    fn row_swaps_match_the_algebra_on_the_benchmark_formulas() {
        for f in [props::connected(), props::independent_set_at_least(2)] {
            assert_row_swaps_match_the_algebra(&f);
        }
    }

    /// FNV-1a over a class table's `Debug` renderings, in id order.
    fn table_digest(frozen: &FrozenAlgebra) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut h = OFFSET;
        for i in 0..frozen.canonical_state_count() as u32 {
            let class = frozen.class_of(StateId(i)).expect("canonical id");
            for &b in format!("{class:?}").as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }

    /// The standard catalog (`lanecert::compiled::standard_formulas`) at
    /// interface arity 4, with its freeze budgets: `(name, formula,
    /// state budget, op budget, |C|, table digest)`. A class's rendering
    /// fixes its structural key, so equal digests mean equal ids and
    /// fingerprints.
    fn catalog_pins() -> Vec<(&'static str, Formula, usize, usize, usize, u64)> {
        vec![
            (
                "connected",
                props::connected(),
                6_000,
                30_000_000,
                2_809,
                0x250a_8bab_407d_d2fa,
            ),
            (
                "bipartite",
                props::bipartite(),
                18_000,
                30_000_000,
                11_713,
                0xeb58_3325_dc21_f841,
            ),
            (
                "2-colorable",
                props::colorable(2),
                18_000,
                30_000_000,
                11_713,
                0xcc10_6cb3_2c89_7ca3,
            ),
            (
                "max-degree-1",
                props::max_degree_at_most(1),
                1_000,
                8_000_000,
                141,
                0xda03_c0b6_b411_f75a,
            ),
            (
                "max-degree-2",
                props::max_degree_at_most(2),
                3_000,
                40_000_000,
                812,
                0x06e2_31c4_bc88_8ae9,
            ),
            (
                "vertex-cover-1",
                props::vertex_cover_at_most(1),
                3_000,
                8_000_000,
                1_210,
                0xb2d1_ee34_34a5_ced3,
            ),
            (
                "independent-set-2",
                props::independent_set_at_least(2),
                19_000,
                30_000_000,
                12_520,
                0xc28d_6da8_8ee8_82ec,
            ),
        ]
    }

    /// Pins every catalog table: its size and the digest of its classes
    /// in id order. Run with
    /// `cargo test --release -p lanecert_mso --lib -- --ignored`.
    #[test]
    #[ignore = "release only: freezes all seven catalog formulas"]
    fn catalog_tables_are_pinned() {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (name, f, state_budget, op_budget, states, digest) in catalog_pins() {
            let opts = FreezeOptions {
                max_arity: 4,
                state_budget,
                op_budget,
            };
            let frozen = FrozenAlgebra::freeze(Arc::new(alg(&f)), &opts);
            assert!(frozen.is_total(), "{name} seals");
            let count = frozen.canonical_state_count();
            got.push(format!("{name}: {count} {:#018x}", table_digest(&frozen)));
            want.push(format!("{name}: {states} {digest:#018x}"));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn freeze_finds_exactly_the_full_closure_of_compiled_formulas() {
        // Equal class sets of two total tables mean equal ids and
        // fingerprints: both are functions of the sorted set.
        for f in [props::max_degree_at_most(1), props::vertex_cover_at_most(1)] {
            let alg = Arc::new(alg(&f));
            let frozen =
                FrozenAlgebra::freeze(Arc::clone(&alg), &FreezeOptions::for_interface_arity(4));
            assert!(frozen.is_total());
            let classes: HashSet<Class> = (0..frozen.canonical_state_count() as u32)
                .filter_map(|i| frozen.class_of(StateId(i)))
                .collect();
            assert_eq!(classes, full_closure(&alg, 4));
        }
    }

    /// Runs `f` on a new thread, whose memo starts empty.
    fn fresh<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("worker thread"))
    }

    fn clear_memo() {
        MEMO.with(|m| m.borrow_mut().entries.clear());
    }

    fn memo_len() -> usize {
        MEMO.with(|m| m.borrow().entries.len())
    }

    /// The rendering of every class `prog` passes through, each followed
    /// by the swap of its first and last slots (the mirror traces swap
    /// nothing). Clears the memo before step `clear_at`.
    fn renderings(a: &Algebra, prog: &Program, clear_at: Option<usize>) -> Vec<String> {
        let mut out = Vec::new();
        let mut steps = 0;
        let mut run = |mut s: Class, seg: &[TraceStep], out: &mut Vec<String>| {
            for &step in seg {
                if clear_at == Some(steps) {
                    assert!(memo_len() > 0, "nothing to clear at step {steps}");
                    clear_memo();
                }
                steps += 1;
                s = match step {
                    TraceStep::Vertex => a.add_vertex(s),
                    TraceStep::Edge(x, y, marked) => a.add_edge(s, x, y, marked),
                    TraceStep::Glue(x, y) => a.glue(s, x, y),
                    TraceStep::Forget(x) => a.forget(s, x),
                };
                out.push(format!("{s:?}"));
                if s.arity() >= 2 {
                    out.push(format!("{:?}", a.swap(s.clone(), 0, s.arity() - 1)));
                }
            }
            s
        };
        let mut acc = a.empty();
        for seg in &prog.segments {
            let s = run(a.empty(), seg, &mut out);
            acc = a.union(acc, s);
            out.push(format!("{acc:?}"));
        }
        run(acc, &prog.tail, &mut out);
        out
    }

    /// `f` with its outermost quantifier's polarity flipped: the same
    /// plan shape and state shapes, different transitions wherever a
    /// run decides.
    fn polarity_twin(f: Formula) -> Formula {
        match f {
            Formula::Forall(sort, v, body) => Formula::Exists(sort, v, body),
            Formula::Exists(sort, v, body) => Formula::Forall(sort, v, body),
            other => other,
        }
    }

    /// Formulas for the memo tests, with polarity twins side by side
    /// (only the property id in a memo key tells a twin's transitions
    /// apart), and random traces for each: `(formula index, program)`,
    /// the formulas taking turns.
    fn memo_workload() -> (Vec<Algebra>, Vec<(usize, Program)>) {
        let formulas = [
            props::connected(),
            polarity_twin(props::connected()),
            props::independent_set_at_least(2),
            polarity_twin(props::independent_set_at_least(2)),
            props::bipartite(),
            props::max_degree_at_most(1),
        ];
        let budget = Budget {
            cap: 4,
            vmax: 7,
            emax: 8,
        };
        let mut rng = StdRng::seed_from_u64(41);
        let mut progs = Vec::new();
        for _ in 0..4 {
            for i in 0..formulas.len() {
                progs.push((i, random_capped_program(&mut rng, budget, 24)));
            }
        }
        (formulas.iter().map(alg).collect(), progs)
    }

    #[test]
    fn memoized_transitions_match_a_cold_memo() {
        let (algs, progs) = memo_workload();
        // Each trace alone on a fresh thread, against all traces on one
        // thread: the formulas alternate, and each trace starts on a
        // memo the earlier ones warmed.
        let cold: Vec<_> = progs
            .iter()
            .map(|(i, p)| fresh(|| renderings(&algs[*i], p, None)))
            .collect();
        let warm: Vec<_> = fresh(|| {
            progs
                .iter()
                .map(|(i, p)| renderings(&algs[*i], p, None))
                .collect()
        });
        for (n, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert_eq!(c, w, "trace {n} of formula {}", progs[n].0);
        }
    }

    #[test]
    fn clearing_the_memo_mid_trace_changes_nothing() {
        let (algs, progs) = memo_workload();
        fresh(|| {
            for (n, (i, p)) in progs.iter().enumerate() {
                let want = renderings(&algs[*i], p, None);
                // The memo now holds this trace's transitions; clear it
                // part-way through a rerun.
                let got = renderings(&algs[*i], p, Some(n % 5 + 1));
                assert_eq!(got, want, "trace {n} of formula {i}");
            }
        });
    }

    #[test]
    fn a_property_compiled_after_another_is_dropped_keeps_its_own_transitions() {
        let (_, progs) = memo_workload();
        let f = props::independent_set_at_least(2);
        let twin = polarity_twin(f.clone());
        let twin_alg = alg(&twin);
        let want: Vec<_> = progs
            .iter()
            .map(|(_, p)| fresh(|| renderings(&twin_alg, p, None)))
            .collect();
        drop(twin_alg);
        let got: Vec<_> = fresh(|| {
            let first = alg(&f);
            for (_, p) in &progs {
                renderings(&first, p, None);
            }
            drop(first);
            let second = alg(&twin);
            progs
                .iter()
                .map(|(_, p)| renderings(&second, p, None))
                .collect()
        });
        assert_eq!(got, want);
    }

    #[test]
    fn repeated_transitions_return_the_shared_result() {
        let p = compile(&props::connected()).expect("formula compiles");
        let s = p.add_vertex(&p.add_vertex(&p.empty()));
        let (x, y) = (p.add_edge(&s, 0, 1, true), p.add_edge(&s, 0, 1, true));
        assert_eq!(x, y);
        let (CState::Runs(rx), CState::Runs(ry)) = (&x.root, &y.root) else {
            panic!("connected's root is a run set")
        };
        assert!(Arc::ptr_eq(&rx.node, &ry.node));
    }
}
