//! Interface summaries and the class computer — the executable `f_B`/`f_P`
//! of Proposition 6.1.
//!
//! A [`Summary`] pairs a homomorphism class with the k-lane interface of
//! Definition 5.3 it summarizes. The interface is the wire type
//! [`IfaceLbl`] itself: the recipes below build and read it directly, the
//! prover copies it into a label unchanged, and the verifier compares a
//! recomputed summary with a claim by `==`. Lookups by lane are `Option`s,
//! so an interface missing a lane is an `Err`, never a panic. Slot order
//! inside a class is **canonical**: the live slots are the interface's
//! distinct terminal identifiers in ascending order, so prover and
//! verifier — who run the same deterministic recipes below — always agree
//! on interned class ids.
//!
//! # The memo
//!
//! Each recipe checks and builds the interface on every call, and records
//! the algebra work as a *program*: slot-level operations applied to the
//! disjoint union of its input classes (the empty class for base nodes).
//! A program depends only on the interfaces' shape — lane masks, each
//! terminal's rank among the distinct ids involved, bridge lanes and
//! marks — never on the ids themselves. The class space is finite for
//! each `(ϕ, k)` (Proposition 2.4), so a certification runs the same few
//! `(inputs, program)` pairs over and over.
//!
//! One per-thread memo, shared by the prover and the verifier, runs each
//! of them once per thread. Every entry has one shape: the frozen table's
//! fingerprint, up to two classes by value, a string of words, and the
//! result class. The words are either
//!
//! - a recipe's program, one word per operation, with the recipe's input
//!   classes; or
//! - a verifier *claim*, a member fold or a bridge (see the `verifier`
//!   module docs): its kind and lane bound, its wire class ids, and the
//!   shapes of its interfaces (`KeyScratch::shapes`), with a fold's own
//!   class.
//!
//! The fingerprint keeps two algebras apart, so the memo never needs
//! clearing on a switch. Each entry is looked up by a digest of its key and
//! compared in full, so a digest collision only costs a recomputation. The
//! memo stores only finished results: every interface check runs on every
//! call, and a verdict never depends on what the memo holds.
//!
//! # Shape order
//!
//! A memo key still depends on the ids' relative order: a class keeps its
//! slots in ascending id order, so one interface shape gives a different
//! input class and program for each ordering of its ids, and how many
//! distinct keys a certification meets would depend on its random ids. A
//! merge (`f_B`, `f_P`) that misses therefore runs in *shape order* — each
//! interface's distinct ids lane by lane, in-terminal before out-terminal,
//! as `shape_order` lists them. It permutes each input class into shape
//! order, runs the merge there, and permutes the result back into id
//! order. In shape order the inputs, the program and the result depend on
//! the shape alone, so the expensive part of a merge — the union's
//! product of states and the glues and forgets after it — runs once per
//! thread and shape whatever the ids are; only the permutations, a few
//! swaps each, are paid per ordering. The permutations are not memoized:
//! on a total table each swap is a row walk, since
//! [`FrozenAlgebra::swap`] reads it from the transition rows the freeze
//! recorded, so a permutation costs a few table reads and never rebuilds a
//! state (a sealed table has no rows and swaps through the algebra). The
//! algebra operations commute with renaming slots, so the result is the
//! class the id-order program gives.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use lanecert_algebra::{Class, FrozenAlgebra, FxBuildHasher, FxHasher};
use lanecert_lanes::{Lane, LaneSet};
use lanecert_obs::{counter_add, names};

use super::labels::{IfaceLbl, SlotIds, Terminals};
use crate::inline::InlineVec;

/// A homomorphism class together with the interface it summarizes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Summary {
    /// The class value (slot order = `iface.slot_ids()`). A value, not a
    /// table index: the canonical [`FrozenAlgebra`] table maps it to a
    /// wire id only when a label is written or read, so a sealed table
    /// still interns classes in the order the prover writes them.
    pub class: Class,
    /// The interface, in the form the labels carry it.
    pub iface: IfaceLbl,
}

/// The slot-level algebra operations of a recipe, by code. A [`Program`]
/// holds each operation as one key word ([`op`]).
const VERTEX: u64 = 0;
const EDGE: u64 = 1;
const MARKED_EDGE: u64 = 2;
const GLUE: u64 = 3;
const FORGET: u64 = 4;
const SWAP: u64 = 5;

/// The key word of operation `code` on the slots `a` and `b`: the code in
/// the low byte, then the operands. Op words stay below 2^24, so none
/// equals a claim's first word.
fn op(code: u64, a: u8, b: u8) -> u64 {
    code | u64::from(a) << 8 | u64::from(b) << 16
}

/// The key word of an edge between the slots `a` and `b`.
fn edge(a: u8, b: u8, marked: bool) -> u64 {
    op(if marked { MARKED_EDGE } else { EDGE }, a, b)
}

/// A slot index as an [`op`] operand. Indexes stay below 256: an
/// interface has at most 128 distinct ids (64 lanes, two terminals each)
/// and a recipe unites at most two interfaces.
fn slot(x: usize) -> Result<u8, String> {
    u8::try_from(x).map_err(|_| "summary recipe past 256 slots".to_string())
}

/// The input classes of a program: none (base nodes, which start from the
/// empty class), one (a slot permutation), or two (a merge, which starts
/// from their disjoint union).
type Inputs<'a> = [Option<&'a Class>; 2];

/// The algebra operations of one recipe, in order, as their key words,
/// applied to its [`Inputs`]. A memo lookup reads the words as they are.
#[derive(Default)]
struct Program(InlineVec<u64, 24>);

impl Program {
    fn run(&self, alg: &FrozenAlgebra, inputs: Inputs<'_>) -> Class {
        let mut s = match inputs {
            [Some(a), Some(b)] => alg.union(a.clone(), b.clone()),
            [Some(a), None] => a.clone(),
            _ => alg.empty(),
        };
        for &w in self.0.iter() {
            let (a, b) = (usize::from((w >> 8) as u8), usize::from((w >> 16) as u8));
            s = match w & 0xff {
                VERTEX => alg.add_vertex(s),
                GLUE => alg.glue(s, a, b),
                FORGET => alg.forget(s, a),
                SWAP => alg.swap(s, a, b),
                code => alg.add_edge(s, a, b, code == MARKED_EDGE),
            };
        }
        s
    }
}

/// A memo key (see the module docs). The words are stored at their exact
/// length, since thousands of entries per thread are common.
struct Key {
    fingerprint: u64,
    classes: [Option<Class>; 2],
    words: Box<[u64]>,
}

/// A key that missed the memo, with the digest it is stored under, for
/// [`store`].
pub(super) struct Miss {
    digest: u64,
    key: Key,
}

/// The per-thread memo (see the module docs): each key with its result,
/// a reused buffer for claim keys, and the hits and misses since the last
/// [`flush_memo_counters`], by [`Count`], misses first.
#[derive(Default)]
struct Memo {
    entries: HashMap<u64, (Key, Class), FxBuildHasher>,
    scratch: KeyScratch,
    counts: [[u64; 2]; 3],
}

/// Entry cap per thread; reaching it clears the memo (a perf event only —
/// results never depend on the memo's contents).
const MEMO_CAP: usize = 1 << 15;

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

/// Which memo counters a lookup feeds.
#[derive(Copy, Clone)]
enum Count {
    /// A recipe call.
    Recipe,
    /// A shape-order merge: only its misses, the merges run, are reported.
    Merge,
    /// A verifier claim.
    Claim,
}

/// Looks `(fingerprint, classes, words)` up, comparing the key in full,
/// so a digest collision only costs a recomputation.
fn lookup(
    fingerprint: u64,
    classes: Inputs<'_>,
    words: &[u64],
    count: Count,
) -> Result<Class, Miss> {
    let mut h = FxHasher::default();
    (fingerprint, classes, words).hash(&mut h);
    let digest = h.finish();
    let hit = MEMO.with(|m| {
        let mut m = m.try_borrow_mut().ok()?;
        let out = (m.entries.get(&digest))
            .filter(|(k, _)| {
                k.fingerprint == fingerprint
                    && *k.words == *words
                    && k.classes[0].as_ref() == classes[0]
                    && k.classes[1].as_ref() == classes[1]
            })
            .map(|(_, out)| out.clone());
        m.counts[count as usize][usize::from(out.is_some())] += 1;
        out
    });
    hit.ok_or_else(|| Miss {
        digest,
        key: Key {
            fingerprint,
            classes: classes.map(|c| c.cloned()),
            words: words.into(),
        },
    })
}

/// Stores the finished result of a key that missed.
pub(super) fn store(miss: Miss, out: &Class) {
    MEMO.with(|m| {
        if let Ok(mut m) = m.try_borrow_mut() {
            if m.entries.len() >= MEMO_CAP {
                m.entries.clear();
            }
            m.entries.insert(miss.digest, (miss.key, out.clone()));
        }
    });
}

/// Runs `program` on `inputs` through the memo, with `run` on a miss. The
/// result is the canonical table's copy of the class when it has one, so
/// later comparisons against it are pointer comparisons.
fn memoized(
    alg: &FrozenAlgebra,
    inputs: Inputs<'_>,
    program: &Program,
    count: Count,
    run: impl FnOnce() -> Class,
) -> Class {
    let miss = match lookup(alg.fingerprint(), inputs, &program.0, count) {
        Ok(out) => return out,
        Err(miss) => miss,
    };
    let out = run();
    let out = alg
        .id_of(&out)
        .and_then(|id| alg.class_of(id))
        .unwrap_or(out);
    store(miss, &out);
    out
}

/// Runs `program` on `inputs` through the memo.
fn apply(alg: &FrozenAlgebra, inputs: Inputs<'_>, program: &Program, count: Count) -> Class {
    memoized(alg, inputs, program, count, || program.run(alg, inputs))
}

/// Reused buffers for building a claim's key: its words, and each
/// terminal's id packed with the index of the word that takes its rank.
#[derive(Default)]
pub(super) struct KeyScratch {
    pub(super) words: Vec<u64>,
    at: Vec<u128>,
}

impl KeyScratch {
    /// Appends the shapes of `ifaces`: per interface its lane mask and
    /// side lengths, then per terminal (in-terminals, then out-terminals)
    /// its lane and the rank of its id among the distinct ids of all of
    /// `ifaces`.
    pub(super) fn shapes<'a>(&mut self, ifaces: impl Iterator<Item = &'a IfaceLbl>) {
        self.at.clear();
        for iface in ifaces {
            self.words.push(iface.lanes.0);
            self.words
                .push((iface.tin.len() as u64) << 32 | iface.tout.len() as u64);
            for &(lane, id) in iface.tin.iter().chain(iface.tout.iter()) {
                // Sorting these sorts the terminals by id.
                self.at
                    .push(u128::from(id) << 32 | self.words.len() as u128);
                self.words.push(u64::from(lane) << 32);
            }
        }
        self.at.sort_unstable();
        let (mut rank, mut prev) = (0, None);
        for &x in &self.at {
            let id = x >> 32;
            if prev.is_some_and(|p| p != id) {
                rank += 1;
            }
            prev = Some(id);
            if let Some(w) = self.words.get_mut(x as u32 as usize) {
                *w |= rank;
            }
        }
    }
}

/// Looks up a verifier claim: `own`, a fold's own class (`None` for a
/// bridge), and the words `build` writes after the claim's kind and lane
/// bound.
pub(super) fn claim(
    alg: &FrozenAlgebra,
    max_lanes: usize,
    own: Option<&Class>,
    build: impl FnOnce(&mut KeyScratch),
) -> Result<Class, Miss> {
    let take = |m: &RefCell<Memo>| {
        m.try_borrow_mut()
            .map(|mut m| std::mem::take(&mut m.scratch))
    };
    let mut k = MEMO.with(take).unwrap_or_default();
    k.words.clear();
    // The top bit keeps a claim apart from every program.
    k.words
        .push(1 << 63 | u64::from(own.is_some()) << 62 | max_lanes as u64);
    build(&mut k);
    let out = lookup(alg.fingerprint(), [own, None], &k.words, Count::Claim);
    MEMO.with(|m| {
        if let Ok(mut m) = m.try_borrow_mut() {
            m.scratch = k;
        }
    });
    out
}

/// Adds this thread's memo hits, misses and shape-order merges since the
/// last call to the obs counters ([`names::TRANSITION_MEMO_HITS`],
/// [`names::TRANSITION_MEMO_MISSES`], [`names::TRANSITION_MEMO_MERGES`]
/// for recipes, [`names::VERIFIER_MEMO_HITS`] and
/// [`names::VERIFIER_MEMO_MISSES`] for claims), together with the frozen
/// table's row swaps ([`lanecert_algebra::flush_row_counters`]) and the
/// compiled automaton's memo hits and misses
/// ([`names::COMPILED_MEMO_HITS`], [`names::COMPILED_MEMO_MISSES`]).
/// Called once at the end of each prove and each verify call.
pub(crate) fn flush_memo_counters() {
    if !lanecert_obs::COMPILED {
        return;
    }
    lanecert_algebra::flush_row_counters();
    let (hits, misses) = lanecert_mso::compile::take_memo_counts();
    if hits + misses > 0 {
        counter_add(names::COMPILED_MEMO_HITS, hits);
        counter_add(names::COMPILED_MEMO_MISSES, misses);
    }
    let counts = MEMO.with(|m| {
        m.try_borrow_mut()
            .map(|mut m| std::mem::take(&mut m.counts))
    });
    let [[misses, hits], [merges, _], [claim_misses, claim_hits]] = counts.unwrap_or_default();
    if claim_hits + claim_misses > 0 {
        counter_add(names::VERIFIER_MEMO_HITS, claim_hits);
        counter_add(names::VERIFIER_MEMO_MISSES, claim_misses);
    }
    if hits + misses > 0 {
        counter_add(names::TRANSITION_MEMO_HITS, hits);
        counter_add(names::TRANSITION_MEMO_MISSES, misses);
        counter_add(names::TRANSITION_MEMO_MERGES, merges);
    }
}

/// The one-lane interface of a `V`- or `E`-node.
fn one_lane(lane: Lane, tin: u64, tout: u64) -> IfaceLbl {
    IfaceLbl {
        lanes: LaneSet::singleton(lane),
        tin: [(lane as u8, tin)].into(),
        tout: [(lane as u8, tout)].into(),
    }
}

/// One interface side of two lane-disjoint ones, each ascending by lane,
/// merged ascending by lane.
fn merged(a: &Terminals, b: &Terminals) -> Terminals {
    let mut out = Terminals::new();
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.0 < x.0 => b.next(),
            (Some(_), _) => a.next(),
            _ => b.next(),
        };
        let Some(&t) = next else {
            return out;
        };
        out.push(t);
    }
}

/// `f_B`'s output interface: both sides' lanes and terminals, merged by
/// lane.
pub(super) fn bridge_iface(left: &IfaceLbl, right: &IfaceLbl) -> IfaceLbl {
    IfaceLbl {
        lanes: left.lanes.union(right.lanes),
        tin: merged(&left.tin, &right.tin),
        tout: merged(&left.tout, &right.tout),
    }
}

/// `f_P`'s output interface, built in place on the parent's: the child's
/// out-terminals replace the parent's on the child's lanes.
pub(super) fn attach_outs(iface: &mut IfaceLbl, child: &IfaceLbl) -> Result<(), String> {
    for (lane, id) in iface.tout.iter_mut() {
        if child.lanes.contains(*lane as Lane) {
            *id = child
                .tout_at(*lane as Lane)
                .ok_or("Parent-merge: child out-terminal missing")?;
        }
    }
    Ok(())
}

/// The interface's distinct terminal ids in shape order: lane by lane,
/// in-terminal before out-terminal, each id where it first occurs. The
/// same ids as [`IfaceLbl::slot_ids`]; which position an id takes depends
/// only on which terminals coincide, never on the id values.
fn shape_order(iface: &IfaceLbl) -> SlotIds {
    let mut terminals: InlineVec<(u8, bool, u64), 8> = iface
        .tin
        .iter()
        .map(|&(lane, id)| (lane, false, id))
        .chain(iface.tout.iter().map(|&(lane, id)| (lane, true, id)))
        .collect();
    terminals.sort_unstable_by_key(|&(lane, out, _)| (lane, out));
    let mut order = SlotIds::new();
    for &(_, _, id) in terminals.iter() {
        if !order.contains(&id) {
            order.push(id);
        }
    }
    order
}

/// Position of `id` in the slot order `order` (past the end if absent).
fn rank(order: &[u64], id: u64) -> u64 {
    order.iter().position(|&x| x == id).unwrap_or(order.len()) as u64
}

/// Records the `swap`s that rearrange slots (currently ordered as `slots`)
/// into ascending `key` order (selection sort).
fn sort_slots(
    program: &mut Program,
    slots: &mut [u64],
    key: impl Fn(u64) -> u64,
) -> Result<(), String> {
    for i in 0..slots.len() {
        let mut min = i;
        for j in (i + 1)..slots.len() {
            if key(slots[j]) < key(slots[min]) {
                min = j;
            }
        }
        if min != i {
            slots.swap(i, min);
            program.0.push(op(SWAP, slot(i)?, slot(min)?));
        }
    }
    Ok(())
}

/// `class`, whose slots hold the ids `from` in that order, with its slots
/// rearranged into the order `to` (the same ids). Not memoized: each swap
/// reads the frozen table's transition rows (see the module docs).
fn permute(alg: &FrozenAlgebra, class: &Class, from: &[u64], to: &[u64]) -> Result<Class, String> {
    let mut program = Program::default();
    sort_slots(&mut program, &mut SlotIds::from(from), |id| rank(to, id))?;
    Ok(program.run(alg, [Some(class), None]))
}

/// Runs a base recipe through the memo. `program` builds the node with
/// its slots holding the ids `shape` in that order; the swaps that sort
/// the slots by id complete the recipe in id order, one memo entry.
fn base(alg: &FrozenAlgebra, mut program: Program, shape: &[u64]) -> Result<Class, String> {
    sort_slots(&mut program, &mut SlotIds::from(shape), |id| id)?;
    Ok(apply(alg, [None, None], &program, Count::Recipe))
}

/// Runs a merge recipe on the classes of `a` and `b` through the memo.
/// `program` is the recipe for slots in id order, the memo key of the
/// call; `shaped(a_order, b_order, out_order)` builds the same recipe for
/// slots in the given orders. On a miss the merge runs in shape order
/// (see the module docs), or — should a shape-order program fail to
/// build — as `program` itself.
fn merge(
    alg: &FrozenAlgebra,
    a: &Summary,
    b: &Summary,
    out: &IfaceLbl,
    program: &Program,
    shaped: impl FnOnce(&[u64], &[u64], &[u64]) -> Result<Program, String>,
) -> Class {
    let inputs = [Some(&a.class), Some(&b.class)];
    memoized(alg, inputs, program, Count::Recipe, || {
        let in_shape_order = || -> Result<Class, String> {
            let (ao, bo, oo) = (
                shape_order(&a.iface),
                shape_order(&b.iface),
                shape_order(out),
            );
            let core = shaped(&ao, &bo, &oo)?;
            let sa = permute(alg, &a.class, &a.iface.slot_ids(), &ao)?;
            let sb = permute(alg, &b.class, &b.iface.slot_ids(), &bo)?;
            let merged = apply(alg, [Some(&sa), Some(&sb)], &core, Count::Merge);
            permute(alg, &merged, &oo, &out.slot_ids())
        };
        in_shape_order().unwrap_or_else(|_| program.run(alg, inputs))
    })
}

/// Builds the summary of a `V`-node: one vertex, one lane (`lane < 64`).
pub fn base_v(alg: &FrozenAlgebra, lane: Lane, id: u64) -> Summary {
    Summary {
        class: apply(
            alg,
            [None, None],
            &Program([op(VERTEX, 0, 0)].into()),
            Count::Recipe,
        ),
        iface: one_lane(lane, id, id),
    }
}

/// Builds the summary of an `E`-node: one edge, one lane.
pub fn base_e(
    alg: &FrozenAlgebra,
    lane: Lane,
    tin: u64,
    tout: u64,
    marked: bool,
) -> Result<Summary, String> {
    if tin == tout {
        return Err("E-node terminals must differ".into());
    }
    if lane >= 64 {
        return Err("E-node lane out of range".into());
    }
    let core = Program([op(VERTEX, 0, 0), op(VERTEX, 0, 0), edge(0, 1, marked)].into());
    Ok(Summary {
        class: base(alg, core, &[tin, tout])?,
        iface: one_lane(lane, tin, tout),
    })
}

/// Builds the summary of the `P`-node: a path over all lanes, with per-edge
/// marks.
pub fn base_p(alg: &FrozenAlgebra, ids: &[u64], marks: &[bool]) -> Result<Summary, String> {
    if ids.is_empty() || marks.len() + 1 != ids.len() {
        return Err("malformed P-node".into());
    }
    if ids.len() > 64 {
        return Err("P-node wider than 64 lanes".into());
    }
    {
        let mut sorted: SlotIds = ids.into();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err("P-node ids not distinct".into());
        }
    }
    let mut core = Program::default();
    for _ in ids {
        core.0.push(op(VERTEX, 0, 0));
    }
    for (pos, &m) in marks.iter().enumerate() {
        core.0.push(edge(slot(pos)?, slot(pos + 1)?, m));
    }
    let class = base(alg, core, ids)?;
    let path: Terminals = ids
        .iter()
        .enumerate()
        .map(|(lane, &id)| (lane as u8, id))
        .collect();
    Ok(Summary {
        class,
        iface: IfaceLbl {
            lanes: LaneSet::full(ids.len()),
            tin: path.clone(),
            tout: path,
        },
    })
}

/// `f_B`: Bridge-merge of two summaries (Proposition 6.1).
pub fn bridge(
    alg: &FrozenAlgebra,
    left: &Summary,
    right: &Summary,
    i: Lane,
    j: Lane,
    marked: bool,
) -> Result<Summary, String> {
    if !left.iface.lanes.is_disjoint(right.iface.lanes) {
        return Err("Bridge-merge: lanes not disjoint".into());
    }
    let (Some(u), Some(v)) = (left.iface.tout_at(i), right.iface.tout_at(j)) else {
        return Err("Bridge-merge: bridge lane missing".into());
    };
    let ls = left.iface.slot_ids();
    let rs = right.iface.slot_ids();
    // Vertex-disjointness of the sides.
    if ls.iter().any(|x| rs.binary_search(x).is_ok()) {
        return Err("Bridge-merge: sides share a vertex".into());
    }
    let iface = bridge_iface(&left.iface, &right.iface);
    let program = bridge_program(&ls, &rs, (u, v), marked, &iface.slot_ids())?;
    let class = merge(alg, left, right, &iface, &program, |lo, ro, oo| {
        bridge_program(lo, ro, (u, v), marked, oo)
    });
    Ok(Summary { class, iface })
}

/// `f_B`'s program: the left slots hold the ids `ls` in that order, the
/// right slots `rs`; add the bridge edge `(u, v)`, then order the slots as
/// `out`.
fn bridge_program(
    ls: &[u64],
    rs: &[u64],
    (u, v): (u64, u64),
    marked: bool,
    out: &[u64],
) -> Result<Program, String> {
    let mut slots: SlotIds = ls.iter().chain(rs.iter()).copied().collect();
    let pa = slots
        .iter()
        .position(|&x| x == u)
        .ok_or("Bridge-merge: left bridge slot missing")?;
    let pb = slots
        .iter()
        .position(|&x| x == v)
        .ok_or("Bridge-merge: right bridge slot missing")?;
    let mut program = Program([edge(slot(pa)?, slot(pb)?, marked)].into());
    sort_slots(&mut program, &mut slots, |id| rank(out, id))?;
    Ok(program)
}

/// `f_P`: Parent-merge of a child summary onto a parent summary
/// (Proposition 6.1): glue `τin_ℓ(child)` onto `τout_ℓ(parent)` for every
/// child lane, then retire vertices that are no longer terminals.
pub fn parent(alg: &FrozenAlgebra, child: &Summary, par: &Summary) -> Result<Summary, String> {
    if !child.iface.lanes.is_subset_of(par.iface.lanes) {
        return Err("Parent-merge: child lanes not a subset".into());
    }
    for lane in child.iface.lanes.iter() {
        let (Some(x), Some(y)) = (child.iface.tin_at(lane), par.iface.tout_at(lane)) else {
            return Err(format!("Parent-merge: no junction terminal on lane {lane}"));
        };
        if x != y {
            return Err(format!("Parent-merge: junction mismatch on lane {lane}"));
        }
    }
    let mut iface = par.iface.clone();
    attach_outs(&mut iface, &child.iface)?;
    let program = parent_program(
        &child.iface.slot_ids(),
        &par.iface.slot_ids(),
        &child.iface,
        &iface.slot_ids(),
    )?;
    let class = merge(alg, child, par, &iface, &program, |co, po, oo| {
        parent_program(co, po, &child.iface, oo)
    });
    Ok(Summary { class, iface })
}

/// `f_P`'s program: the child's slots hold the ids `cs` in that order, the
/// parent's `ps`; glue each of `child`'s in-terminals onto the parent's
/// slot of the same id, forget the slots whose id is not in `out`, then
/// order the rest as `out`.
fn parent_program(
    cs: &[u64],
    ps: &[u64],
    child: &IfaceLbl,
    out: &[u64],
) -> Result<Program, String> {
    let mut program = Program::default();
    // (id, from_child) slot list.
    let mut slots: InlineVec<(u64, bool), 8> = cs
        .iter()
        .map(|&x| (x, true))
        .chain(ps.iter().map(|&x| (x, false)))
        .collect();
    for lane in child.lanes.iter() {
        let x = child
            .tin_at(lane)
            .ok_or("Parent-merge: child junction slot missing")?;
        let pa = slots
            .iter()
            .position(|&(id, c)| id == x && c)
            .ok_or("Parent-merge: child junction slot missing")?;
        let pb = slots
            .iter()
            .position(|&(id, c)| id == x && !c)
            .ok_or("Parent-merge: parent junction slot missing")?;
        let (keep, drop) = if pa < pb { (pa, pb) } else { (pb, pa) };
        program.0.push(op(GLUE, slot(keep)?, slot(drop)?));
        slots.remove(drop);
    }
    // Retire slots that are no longer terminals (descending index).
    for idx in (0..slots.len()).rev() {
        if !out.contains(&slots[idx].0) {
            program.0.push(op(FORGET, slot(idx)?, 0));
            slots.remove(idx);
        }
    }
    // Duplicate ids should all be resolved by now.
    let mut plain: SlotIds = slots.iter().map(|&(id, _)| id).collect();
    {
        let mut sorted = plain.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err("Parent-merge: unresolved duplicate slots".into());
        }
    }
    sort_slots(&mut program, &mut plain, |id| rank(out, id))?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_algebra::props::{Bipartite, Connected, Forest, HamiltonianCycle};
    use lanecert_algebra::{Algebra, FreezeOptions, Property, SharedFrozenAlgebra};

    fn frozen<P: Property>(prop: P) -> SharedFrozenAlgebra {
        FrozenAlgebra::freeze(
            Algebra::shared(prop),
            &FreezeOptions::for_interface_arity(4),
        )
    }

    #[test]
    fn base_and_bridge_compose() {
        let alg = frozen(Connected);
        // Two E-nodes on lanes 0 and 1, bridged: a path of 4 vertices.
        let l = base_e(&alg, 0, 10, 11, true).unwrap();
        let r = base_e(&alg, 1, 20, 21, true).unwrap();
        let b = bridge(&alg, &l, &r, 0, 1, true).unwrap();
        assert!(alg.accept(&b.class));
        assert_eq!(b.iface.slot_ids().as_slice(), &[10, 11, 20, 21]);
        // Unmarked bridge leaves the marked subgraph disconnected.
        let b2 = bridge(&alg, &l, &r, 0, 1, false).unwrap();
        assert!(!alg.accept(&b2.class));
    }

    #[test]
    fn parent_merge_glues_and_retires() {
        let alg = frozen(Forest);
        // Parent: P-node path 1-2 (lanes 0,1); child: E-node on lane 0 with
        // tin 2 (the parent's tout in lane 0 is 1... use tin 1).
        let p = base_p(&alg, &[1, 2], &[true]).unwrap();
        let c = base_e(&alg, 0, 1, 30, true).unwrap();
        let m = parent(&alg, &c, &p).unwrap();
        assert!(alg.accept(&m.class)); // a path is a forest
        assert_eq!(m.iface.tout_at(0), Some(30));
        assert_eq!(m.iface.tout_at(1), Some(2));
        assert_eq!(m.iface.tin_at(0), Some(1));
        // Gluing a cycle: child E-node from 1 to 2 on lane 0 plus an edge...
        // simpler: bridge the two ends then parent-merge to close a cycle is
        // covered by pipeline tests.
    }

    #[test]
    fn lanes_past_the_lane_set_are_errors() {
        // Reachable from the wire when a scheme's lane bound exceeds 64.
        let alg = frozen(Connected);
        assert!(base_e(&alg, 64, 1, 2, true).is_err());
        let ids: Vec<u64> = (0..65).collect();
        assert!(base_p(&alg, &ids, &[true; 64]).is_err());
    }

    #[test]
    fn summaries_are_deterministic() {
        let alg = frozen(Connected);
        let s1 = base_p(&alg, &[5, 9, 7], &[true, true]).unwrap();
        let s2 = base_p(&alg, &[5, 9, 7], &[true, true]).unwrap();
        assert_eq!(s1.class, s2.class);
        assert_eq!(s1, s2);
    }

    fn clear_memo() {
        MEMO.with(|m| *m.borrow_mut() = Memo::default());
    }

    fn merges_run() -> u64 {
        MEMO.with(|m| m.borrow().counts[Count::Merge as usize][0])
    }

    /// The id-order program of `f_B`/`f_P`, run directly: what a merge
    /// gives without the memo.
    fn direct_bridge(alg: &FrozenAlgebra, l: &Summary, r: &Summary, out: &Summary) -> Class {
        let (u, v) = (l.iface.tout[0].1, r.iface.tout[0].1);
        let program = bridge_program(
            &l.iface.slot_ids(),
            &r.iface.slot_ids(),
            (u, v),
            true,
            &out.iface.slot_ids(),
        )
        .unwrap();
        program.run(alg, [Some(&l.class), Some(&r.class)])
    }

    fn direct_parent(alg: &FrozenAlgebra, child: &Summary, par: &Summary, out: &Summary) -> Class {
        let program = parent_program(
            &child.iface.slot_ids(),
            &par.iface.slot_ids(),
            &child.iface,
            &out.iface.slot_ids(),
        )
        .unwrap();
        program.run(alg, [Some(&child.class), Some(&par.class)])
    }

    /// A three-lane certificate fragment on the ids `[a, b, c, d, e, f,
    /// g]`: a P-node, a bridged pair of E-nodes merged onto it, then two
    /// more E-node children (the first retires `d`). Returns every merge's
    /// summary with the class its id-order program gives when run directly.
    fn fragment(alg: &FrozenAlgebra, [a, b, c, d, e, f, g]: [u64; 7]) -> Vec<(Summary, Class)> {
        let par = base_p(alg, &[a, b, c], &[true, false]).unwrap();
        let l = base_e(alg, 0, a, d, true).unwrap();
        let r = base_e(alg, 2, c, e, false).unwrap();
        let br = bridge(alg, &l, &r, 0, 2, true).unwrap();
        let m1 = parent(alg, &br, &par).unwrap();
        let k1 = base_e(alg, 0, d, f, true).unwrap();
        let m2 = parent(alg, &k1, &m1).unwrap();
        let k2 = base_e(alg, 1, b, g, true).unwrap();
        let m3 = parent(alg, &k2, &m2).unwrap();
        vec![
            (br.clone(), direct_bridge(alg, &l, &r, &br)),
            (m1.clone(), direct_parent(alg, &br, &par, &m1)),
            (m2.clone(), direct_parent(alg, &k1, &m1, &m2)),
            (m3.clone(), direct_parent(alg, &k2, &m2, &m3)),
        ]
    }

    /// The ids `10..17` in `n` pseudo-random orders (the first ascending).
    fn id_orders(n: usize) -> Vec<[u64; 7]> {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        (0..n)
            .map(|k| {
                let mut ids = [10, 11, 12, 13, 14, 15, 16];
                if k > 0 {
                    for i in (1..ids.len()).rev() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ids.swap(i, (x % (i as u64 + 1)) as usize);
                    }
                }
                ids
            })
            .collect()
    }

    #[test]
    fn shape_order_ignores_id_values() {
        let alg = frozen(Connected);
        let s1 = parent(
            &alg,
            &base_e(&alg, 1, 5, 9, true).unwrap(),
            &base_p(&alg, &[7, 5], &[true]).unwrap(),
        )
        .unwrap();
        let s2 = parent(
            &alg,
            &base_e(&alg, 1, 50, 1, true).unwrap(),
            &base_p(&alg, &[3, 50], &[true]).unwrap(),
        )
        .unwrap();
        assert_eq!(shape_order(&s1.iface).as_slice(), &[7, 5, 9]);
        assert_eq!(shape_order(&s2.iface).as_slice(), &[3, 50, 1]);
        let mut sorted = shape_order(&s1.iface);
        sorted.sort_unstable();
        assert_eq!(sorted, s1.iface.slot_ids());
    }

    #[test]
    fn shape_order_merges_equal_direct_runs() {
        let compiled = crate::compiled::standard_formula("max-degree-1")
            .unwrap()
            .scheme()
            .unwrap();
        let algs = [
            frozen(Connected),
            frozen(Forest),
            frozen(Bipartite),
            frozen(HamiltonianCycle),
            compiled.frozen_algebra().clone(),
        ];
        for alg in &algs {
            for ids in id_orders(24) {
                // Cold, so every merge takes the shape-order path.
                clear_memo();
                for (s, direct) in fragment(alg, ids) {
                    assert_eq!(s.class, direct, "{ids:?}");
                }
                // Warm: exact hits give the same classes.
                for (s, direct) in fragment(alg, ids) {
                    assert_eq!(s.class, direct, "{ids:?}");
                }
            }
        }
    }

    #[test]
    fn merges_run_once_per_shape_whatever_the_ids() {
        let alg = frozen(Connected);
        let orders = id_orders(16);
        clear_memo();
        fragment(&alg, orders[0]);
        let first = merges_run();
        assert!(first > 0);
        for ids in &orders[1..] {
            fragment(&alg, *ids);
        }
        assert_eq!(
            merges_run(),
            first,
            "a reordering of the ids ran a merge again"
        );
    }

    #[test]
    fn the_memo_stores_recipes_and_merges_but_no_permutations() {
        let alg = frozen(Connected);
        for ids in id_orders(8) {
            clear_memo();
            fragment(&alg, ids);
            MEMO.with(|m| {
                let m = m.borrow();
                let [[misses, _], [merges, _], _] = m.counts;
                assert!(merges > 0, "{ids:?}");
                assert_eq!(m.entries.len() as u64, misses + merges, "{ids:?}");
                // A permutation would be an entry with one input class.
                assert!(m
                    .entries
                    .values()
                    .all(|(key, _)| key.classes[0].is_some() == key.classes[1].is_some()));
            });
        }
    }
}
