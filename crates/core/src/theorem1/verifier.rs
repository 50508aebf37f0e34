//! The local verification algorithm of Theorem 1 (Section 6.2).
//!
//! Each vertex sees the labels of its incident edges, reconstructs its
//! incident virtual edges from the transit records, and then checks the
//! frame stacks: grouped by hierarchy node, every basic-information claim
//! is recomputed from the level below via `f_B`/`f_P`, terminal identifiers
//! are matched against actual endpoint identifiers, junctions between
//! members are cross-checked on both sides, and decreasing-distance
//! pointers anchor every `T`-node to a unique root vertex (which forces
//! each claimed node to be one connected subgraph). The vertices of the
//! outermost root member finally check that the root homomorphism class is
//! accepting.
//!
//! # Memo
//!
//! The vertices of one hierarchy member all recompute the same member
//! fold (`f_P` over its children) and, for a `B`-node, the same bridge
//! (`f_B`). Each is a *claim* in [`summary`]'s per-thread memo, keyed by
//! classes and interface shape, never by ids ([`fold_words`],
//! [`bridge_words`]). Ranks of ids suffice: a class keeps its slots in
//! ascending id order, and every algebra operation commutes with renaming
//! slots, so an order-preserving renaming of the ids leaves every class
//! and so the result unchanged. Every check of [`fold_children`] and
//! [`bridge_summary`] likewise reads only lanes, classes and which ids are
//! equal, so a hit skips those checks and rebuilds the output interface
//! from the claims. Only successful computations are stored, and the
//! checks that read ids themselves — node ids, pointers, endpoints,
//! junctions present at this vertex — run on every call in `check_tnode`
//! and `check_bnode`.

use lanecert_algebra::{FrozenAlgebra, StateId};

use super::labels::*;
use super::summary::{self, KeyScratch, Summary};
use crate::inline::{InlineVec, ScratchBuf};
use crate::pointer;
use crate::scheme::{Verdict, VertexView};

/// Verification context.
pub(super) struct Ctx<'a> {
    pub alg: &'a FrozenAlgebra,
    pub max_lanes: usize,
    pub my_id: u64,
}

type VResult<T> = Result<T, String>;

/// Scratch list of borrowed certificates. Verification builds several of
/// these per vertex (incident edges, per-member groups, B-node sides);
/// eight inline slots cover realistic degrees without heap traffic, which
/// keeps the verify path near the decode-side allocation floor.
type CertList<'a> = ScratchBuf<&'a EdgeCertLbl, 8>;

/// Writes a member fold's claim words: its children's wire class ids,
/// then the shapes of its own and its children's interfaces.
fn fold_words(k: &mut KeyScratch, own: &IfaceLbl, children: &[BasicInfoLbl]) {
    k.words.push(children.len() as u64);
    k.words.extend(children.iter().map(|c| u64::from(c.class)));
    k.shapes(std::iter::once(own).chain(children.iter().map(|c| &c.iface)));
}

/// Writes a B-node bridge's claim words: the bridge lanes, V-flags and
/// mark, both sides' wire class ids, then both sides' shapes.
fn bridge_words(k: &mut KeyScratch, f: &BFrameLbl) {
    k.words.push(
        u64::from(f.i)
            | u64::from(f.j) << 8
            | u64::from(f.left_is_v) << 16
            | u64::from(f.right_is_v) << 17
            | u64::from(f.bridge_marked) << 18,
    );
    k.words.push(u64::from(f.left.class));
    k.words.push(u64::from(f.right.class));
    k.shapes([&f.left.iface, &f.right.iface].into_iter());
}

/// Entry point: full per-vertex verification.
pub(super) fn verify(ctx: &Ctx<'_>, view: &VertexView<EdgeLabel>) -> Verdict {
    match verify_inner(ctx, view) {
        Ok(()) => Verdict::Accept,
        Err(reason) => Verdict::Reject(reason),
    }
}

fn verify_inner(ctx: &Ctx<'_>, view: &VertexView<EdgeLabel>) -> VResult<()> {
    if view.incident.is_empty() {
        // A connected network with an isolated vertex is K1: evaluate the
        // property on the single-vertex graph directly.
        let s = ctx.alg.add_vertex(ctx.alg.empty());
        return if ctx.alg.accept(&s) {
            Ok(())
        } else {
            Err("single-vertex graph violates the property".into())
        };
    }
    let mut certs: CertList<'_> = CertList::new();
    // Transit records and their endpoint-pair keys, side by side.
    let mut keys: InlineVec<(u64, u64), 8> = InlineVec::new();
    let mut transits: ScratchBuf<&TransitLbl, 8> = ScratchBuf::new();
    for label in view.incident {
        let Some(label) = label else {
            return Err("undecodable label".into());
        };
        let own = &label.own;
        if !own.marked {
            return Err("real edge claims to be unmarked".into());
        }
        check_cert_shape(ctx, own)?;
        certs.push(own);
        for t in &label.transits {
            keys.push((t.cert.a, t.cert.b));
            transits.push(t);
        }
    }
    // Reconstruct incident virtual edges (Section 6.2, embedding checks),
    // one group per distinct endpoint pair in first-appearance order.
    let (order, groups) = group_by_key(&keys);
    for &(start, end) in groups.iter() {
        let mut entries: ScratchBuf<&TransitLbl, 4> = ScratchBuf::new();
        for &x in order.get(start as usize..end as usize).unwrap_or_default() {
            let record = transits
                .get(x as usize)
                .ok_or("transit record out of range")?;
            entries.push(*record);
        }
        let first = *entries.first().ok_or("transit record out of range")?;
        let (a, b) = (first.cert.a, first.cert.b);
        let cert = &first.cert;
        if cert.marked {
            return Err("virtual edge claims to be marked".into());
        }
        check_cert_shape_basics(cert)?;
        let total = first.rank_fwd + first.rank_bwd;
        for e in entries.iter() {
            if e.cert != *cert {
                return Err("inconsistent transit certificates".into());
            }
            if e.rank_fwd + e.rank_bwd != total {
                return Err("inconsistent path length".into());
            }
        }
        if ctx.my_id == a || ctx.my_id == b {
            if entries.len() != 1 {
                return Err("virtual endpoint sees multiple path edges".into());
            }
            let ok =
                (first.rank_fwd == 1 && ctx.my_id == a) || (first.rank_bwd == 1 && ctx.my_id == b);
            if !ok {
                return Err("virtual endpoint not at a path end".into());
            }
            check_cert_shape(ctx, cert)?;
            certs.push(cert);
        } else {
            if entries.len() != 2 {
                return Err("path transit without two consecutive edges".into());
            }
            let second = entries
                .get(1)
                .ok_or("path transit without two consecutive edges")?;
            if first.rank_fwd.abs_diff(second.rank_fwd) != 1 {
                return Err("non-consecutive path ranks".into());
            }
        }
    }
    check_tnode(ctx, &certs, 0, None, true)
}

/// Groups equal keys in O(t log t): returns the indexes of `keys` sorted
/// by `(key, index)`, and the `start..end` runs of that order that hold
/// one key each, in order of each key's first appearance in `keys`. A
/// run lists its key's indexes in ascending order, so groups and their
/// entries come out as a left-to-right scan of `keys` finds them, and
/// which malformation is reported first does not change.
fn group_by_key<K: Copy + Default + Ord>(
    keys: &[K],
) -> (InlineVec<u32, 8>, InlineVec<(u32, u32), 8>) {
    let mut sorted: InlineVec<(K, u32), 8> =
        (keys.iter().copied()).zip(0..keys.len() as u32).collect();
    sorted.sort_unstable();
    let order: InlineVec<u32, 8> = sorted.iter().map(|&(_, x)| x).collect();
    let mut groups: InlineVec<(u32, u32), 8> = InlineVec::new();
    let mut start = 0;
    for end in 1..=sorted.len() {
        let key_at = |y: usize| sorted.get(y).map(|&(key, _)| key);
        if end == sorted.len() || key_at(end) != key_at(start) {
            groups.push((start as u32, end as u32));
            start = end;
        }
    }
    // A run's first index is its key's first appearance.
    groups.sort_unstable_by_key(|&(start, _)| order.get(start as usize).copied());
    (order, groups)
}

fn check_cert_shape_basics(cert: &EdgeCertLbl) -> VResult<()> {
    if cert.a >= cert.b {
        return Err("certificate endpoints not ordered".into());
    }
    if cert.frames.is_empty() || cert.frames.len() > 160 {
        return Err("bad frame stack length".into());
    }
    Ok(())
}

fn check_cert_shape(ctx: &Ctx<'_>, cert: &EdgeCertLbl) -> VResult<()> {
    check_cert_shape_basics(cert)?;
    if ctx.my_id != cert.a && ctx.my_id != cert.b {
        return Err("incident certificate does not mention me".into());
    }
    Ok(())
}

/// Parses a basic-information label into a [`Summary`] with validation.
///
/// Wire ids resolve through the canonical frozen table; ids outside it
/// (adversarial labels, or corpora from another table version that
/// slipped past the fingerprint check) are a rejection, never a panic —
/// [`FrozenAlgebra::class_of`] is total.
fn parse_info(ctx: &Ctx<'_>, info: &BasicInfoLbl) -> VResult<Summary> {
    info.iface.validate(ctx.max_lanes)?;
    let Some(class) = ctx.alg.class_of(StateId(info.class)) else {
        return Err("unknown homomorphism class".into());
    };
    // The class must summarize exactly the interface's boundary: without
    // this check an adversarial class id of the wrong arity could drive
    // slot-indexed algebra operations out of bounds (a panic, not a
    // rejection).
    if class.arity() != info.iface.slot_ids().len() {
        return Err("class arity does not match the claimed interface".into());
    }
    Ok(Summary {
        class,
        iface: info.iface.clone(),
    })
}

/// Compares a recomputed summary against a wire claim without building a
/// [`Summary`] from the claim: the interfaces are the same type, and the
/// class id resolves through the canonical table.
fn summary_matches_lbl(ctx: &Ctx<'_>, s: &Summary, claim: &BasicInfoLbl) -> bool {
    s.iface == claim.iface && ctx.alg.class_of(StateId(claim.class)).as_ref() == Some(&s.class)
}

/// Parses a member's children claims, checks their mutual lane
/// disjointness and their junctions against the member's own summary, and
/// recomputes the subtree fold `f_P` over them in lane-mask order.
///
/// Every check here and the fold's class read only what the claim of
/// [`fold_words`] holds, so the class is memoized per thread on that
/// claim (see the module docs); a hit rebuilds the output interface from
/// the claims. Only successful folds are stored, so malformed children
/// reject identically whether or not the memo is warm.
fn fold_children(ctx: &Ctx<'_>, own: &Summary, frame: &TFrameLbl) -> VResult<Summary> {
    let miss = match summary::claim(ctx.alg, ctx.max_lanes, Some(&own.class), |k| {
        fold_words(k, &own.iface, &frame.children)
    }) {
        Ok(class) => {
            let mut iface = own.iface.clone();
            for kid in &frame.children {
                summary::attach_outs(&mut iface, &kid.iface)?;
            }
            return Ok(Summary { class, iface });
        }
        Err(miss) => miss,
    };
    let mut kids: ScratchBuf<Summary, 8> = ScratchBuf::new();
    for entry in &frame.children {
        kids.push(parse_info(ctx, entry)?);
    }
    for (x, kx) in kids.iter().enumerate() {
        for ky in kids.iter().skip(x + 1) {
            if !kx.iface.lanes.is_disjoint(ky.iface.lanes) {
                return Err("children lanes overlap".into());
            }
        }
    }
    // Children attach to the member's own out-terminals.
    for kid in kids.iter() {
        if !kid.iface.lanes.is_subset_of(own.iface.lanes) {
            return Err("child lanes exceed member lanes".into());
        }
        for lane in kid.iface.lanes.iter() {
            match (kid.iface.tin_at(lane), own.iface.tout_at(lane)) {
                (Some(x), Some(y)) if x == y => {}
                _ => return Err("child junction id mismatch".into()),
            }
        }
    }
    let mut acc = own.clone();
    let mut order: InlineVec<u32, 8> = (0..kids.len() as u32).collect();
    order
        .as_mut_slice()
        .sort_by_key(|&x| kids.get(x as usize).map(|k| k.iface.lanes.0).unwrap_or(0));
    // The f_P fold itself: pure algebra work over already-parsed
    // summaries, no per-child heap traffic.
    // lint: zero-alloc {
    for &x in order.iter() {
        let kid = kids.get(x as usize).ok_or("child index out of range")?;
        acc = summary::parent(ctx.alg, kid, &acc)?;
    }
    // lint: }
    summary::store(miss, &acc.class);
    Ok(acc)
}

/// The pure half of a B-node check: parses both side claims, validates the
/// bridge lanes and V-node sides, and recomputes `f_B`. Returns the merged
/// summary plus the two bridge endpoint ids. Memoized per thread on the
/// claim of [`bridge_words`], in the same regime as
/// [`fold_children`]; a hit merges both sides' interfaces by lane and
/// reads the endpoints from the claims.
fn bridge_summary(ctx: &Ctx<'_>, f0: &BFrameLbl) -> VResult<(Summary, u64, u64)> {
    let (i, j) = (f0.i as usize, f0.j as usize);
    let miss = match summary::claim(ctx.alg, ctx.max_lanes, None, |k| bridge_words(k, f0)) {
        Ok(class) => {
            let (left, right) = (&f0.left.iface, &f0.right.iface);
            let (Some(u), Some(w)) = (left.tout_at(i), right.tout_at(j)) else {
                return Err("bridge lane without an out-terminal".into());
            };
            let iface = summary::bridge_iface(left, right);
            return Ok((Summary { class, iface }, u, w));
        }
        Err(miss) => miss,
    };
    let left = parse_info(ctx, &f0.left)?;
    let right = parse_info(ctx, &f0.right)?;
    if !left.iface.lanes.contains(i) || !right.iface.lanes.contains(j) {
        return Err("bridge lane not in the respective side".into());
    }
    if !left.iface.lanes.is_disjoint(right.iface.lanes) {
        return Err("B sides share lanes".into());
    }
    for (is_v, info, lane) in [(f0.left_is_v, &left, i), (f0.right_is_v, &right, j)] {
        if is_v {
            if info.iface.lanes.len() != 1 || info.iface.tin != info.iface.tout {
                return Err("V-node side with a non-V interface".into());
            }
            let id = info
                .iface
                .tin_at(lane)
                .ok_or("V-node side without a terminal")?;
            let recomputed = summary::base_v(ctx.alg, lane, id);
            if recomputed.class != info.class {
                return Err("V-node class mismatch".into());
            }
        }
    }
    let (Some(u), Some(w)) = (left.iface.tout_at(i), right.iface.tout_at(j)) else {
        return Err("bridge lane without an out-terminal".into());
    };
    let s = summary::bridge(ctx.alg, &left, &right, i, j, f0.bridge_marked)?;
    summary::store(miss, &s.class);
    Ok((s, u, w))
}

/// Per-member bookkeeping inside one T-node group.
struct MemberCheck<'a> {
    frame: &'a TFrameLbl,
    own: Summary,
}

/// Verifies a group of certificates that all lie inside one `T`-node at
/// stack depth `depth`. `expect` is the interface claimed for this `T`-node
/// by the enclosing `B`-frame (nested case); `outermost` marks the root.
fn check_tnode(
    ctx: &Ctx<'_>,
    certs: &CertList<'_>,
    depth: usize,
    expect: Option<&BasicInfoLbl>,
    outermost: bool,
) -> VResult<()> {
    fn tf_at(c: &EdgeCertLbl, depth: usize) -> VResult<&TFrameLbl> {
        match c.frames.get(depth) {
            Some(FrameLbl::T(t)) => Ok(t),
            _ => Err("expected a T frame".into()),
        }
    }
    let first = tf_at(certs.first().ok_or("empty T-node group")?, depth)?;
    let (t_node, root_vertex) = (first.t_node, first.root_vertex);
    // Proposition 2.2 within this T-node, rooted at `root_vertex`.
    let distances = certs.iter().map(|&c| -> VResult<(u32, u32)> {
        let t = tf_at(c, depth)?;
        if t.t_node != t_node || t.root_vertex != root_vertex {
            return Err("inconsistent T-node context".into());
        }
        Ok(if ctx.my_id == c.a {
            (t.d_a, t.d_b)
        } else {
            (t.d_b, t.d_a)
        })
    });
    pointer::check_distances(distances, ctx.my_id == root_vertex)?;

    // The certificates of each member, members in first-appearance order.
    let mut keys: InlineVec<u32, 8> = InlineVec::new();
    for &c in certs.iter() {
        keys.push(tf_at(c, depth)?.member);
    }
    let (order, groups) = group_by_key(&keys);
    let mut checked: ScratchBuf<(u32, MemberCheck<'_>), 8> = ScratchBuf::new();
    for &(start, end) in groups.iter() {
        let mut group: CertList<'_> = CertList::new();
        for &x in order.get(start as usize..end as usize).unwrap_or_default() {
            group.push(*certs.get(x as usize).ok_or("certificate out of range")?);
        }
        let frame = tf_at(group.first().ok_or("empty member group")?, depth)?;
        let member = frame.member;
        for &c in group.iter().skip(1) {
            let t = tf_at(c, depth)?;
            if t.subtree != frame.subtree
                || t.children != frame.children
                || t.is_root_member != frame.is_root_member
            {
                return Err("inconsistent member frames".into());
            }
        }
        if frame.subtree.node != member {
            return Err("subtree info names the wrong node".into());
        }
        // Member's own summary from the deeper frame.
        let own = check_member_own(ctx, &group, depth + 1, member)?;
        // Children claims: parsing, mutual lane disjointness, junction
        // ids against the member's own out-terminals, and the subtree
        // fold (f_P in lane-mask order) — one pure, memoized block.
        let acc = fold_children(ctx, &own, frame)?;
        // The recomputed subtree summary must equal the claimed one,
        // compared directly against the wire bytes (the prover emits the
        // canonical ascending lane order, so no claim needs re-parsing).
        if !summary_matches_lbl(ctx, &acc, &frame.subtree) {
            return Err("subtree class/interface recomputation mismatch".into());
        }
        if frame.is_root_member {
            if let Some(exp) = expect {
                // Compare class and interface only — the node-id hint
                // legitimately differs between the two claims.
                if exp.class != frame.subtree.class || exp.iface != frame.subtree.iface {
                    return Err("nested T-node interface mismatch".into());
                }
            }
            if outermost && !ctx.alg.accept(&acc.class) {
                return Err("root homomorphism class rejects the property".into());
            }
        }
        checked.push((member, MemberCheck { frame, own }));
    }

    // Junction / attachment rules.
    let mut roots = 0;
    for (_, mc) in checked.iter() {
        if mc.frame.is_root_member {
            roots += 1;
        }
    }
    if roots > 1 {
        return Err("two root members at one vertex".into());
    }
    if ctx.my_id == root_vertex && roots == 0 {
        return Err("pointer root vertex is not in the root member".into());
    }
    // R1 and R2 look members and listed children up by node id: each
    // entry holds a node id and its place in `checked` (and, for a child,
    // in its parent's list).
    let mut members: InlineVec<(u32, u32), 8> = InlineVec::new();
    let mut listed: InlineVec<(u32, u32, u32), 8> = InlineVec::new();
    for (x, (member, mc)) in checked.iter().enumerate() {
        members.push((*member, x as u32));
        for (y, e) in mc.frame.children.iter().enumerate() {
            listed.push((e.node, x as u32, y as u32));
        }
    }
    members.sort_unstable();
    listed.sort_unstable();
    let child = |x: u32, y: u32| {
        let (_, parent) = checked.get(x as usize)?;
        parent.frame.children.get(y as usize)
    };
    for &(member, ref mc) in checked.iter() {
        // R2: if I am a glue point (an in-terminal) of a non-root member,
        // my parent member must be present and list this member.
        let is_tin = mc.own.iface.tin.iter().any(|&(_, x)| x == ctx.my_id);
        if is_tin && !mc.frame.is_root_member {
            let from = listed.partition_point(|&(node, ..)| node < member);
            let mut same = (listed.get(from..).unwrap_or_default().iter())
                .take_while(|&&(node, ..)| node == member);
            if !same.any(|&(_, x, y)| child(x, y) == Some(&mc.frame.subtree)) {
                return Err("dangling member: no parent lists it here".into());
            }
        }
        // R1: every child hanging at one of my out-terminals must be
        // physically present here.
        for entry in &mc.frame.children {
            let attaches_here = entry
                .iface
                .lanes
                .iter()
                .any(|l| mc.own.iface.tout_at(l) == Some(ctx.my_id));
            if attaches_here {
                let present = (members.binary_search_by_key(&entry.node, |&(m, _)| m).ok())
                    .and_then(|i| members.get(i))
                    .and_then(|&(_, x)| checked.get(x as usize))
                    .is_some_and(|(_, c)| c.frame.subtree == *entry);
                if !present {
                    return Err("listed child member is absent at its junction".into());
                }
            }
        }
    }
    Ok(())
}

/// Computes the member's own summary from its owning frame at `depth`
/// (an `E`, `P`, or `B` frame whose node id must equal `member`).
fn check_member_own(
    ctx: &Ctx<'_>,
    group: &CertList<'_>,
    depth: usize,
    member: u32,
) -> VResult<Summary> {
    let kind_of = |c: &EdgeCertLbl| -> VResult<u8> {
        match c.frames.get(depth) {
            Some(FrameLbl::E(_)) => Ok(0),
            Some(FrameLbl::P(_)) => Ok(1),
            Some(FrameLbl::B(_)) => Ok(2),
            _ => Err("member frame missing or of wrong kind".into()),
        }
    };
    let first = *group.first().ok_or("empty member group")?;
    let kind = kind_of(first)?;
    for &c in group.iter().skip(1) {
        if kind_of(c)? != kind {
            return Err("mixed member frame kinds".into());
        }
    }
    match kind {
        0 => {
            if group.len() != 1 {
                return Err("an E-node owns exactly one edge".into());
            }
            let c = first;
            let Some(FrameLbl::E(f)) = c.frames.get(depth) else {
                return Err("expected an E frame".into());
            };
            if f.node != member {
                return Err("E frame names the wrong node".into());
            }
            if c.frames.len() != depth + 1 {
                return Err("frames continue past an E-node".into());
            }
            let (lo, hi) = if f.tin < f.tout {
                (f.tin, f.tout)
            } else {
                (f.tout, f.tin)
            };
            if (lo, hi) != (c.a, c.b) {
                return Err("E-node terminals do not match the physical edge".into());
            }
            if f.lane as usize >= ctx.max_lanes {
                return Err("E-node lane exceeds the lane bound".into());
            }
            summary::base_e(ctx.alg, f.lane as usize, f.tin, f.tout, c.marked)
        }
        1 => {
            let Some(FrameLbl::P(f0)) = first.frames.get(depth) else {
                return Err("expected a P frame".into());
            };
            if f0.node != member {
                return Err("P frame names the wrong node".into());
            }
            if f0.ids.len() > ctx.max_lanes {
                return Err("P-node wider than the lane bound".into());
            }
            let t = f0
                .ids
                .iter()
                .position(|&x| x == ctx.my_id)
                .ok_or("I am not on the claimed P-node path")?;
            // A path-interior vertex must see exactly the edges at
            // positions t-1 and t; an endpoint sees just its one edge.
            // The two expected positions are distinct, so multiset
            // equality reduces to marking each expected slot at most once.
            let expected: [Option<u16>; 2] = [
                if t > 0 { Some((t - 1) as u16) } else { None },
                if t + 1 < f0.ids.len() {
                    Some(t as u16)
                } else {
                    None
                },
            ];
            let mut found = [false; 2];
            for &c in group.iter() {
                let Some(FrameLbl::P(f)) = c.frames.get(depth) else {
                    return Err("expected a P frame".into());
                };
                if f.ids != f0.ids || f.marks != f0.marks {
                    return Err("inconsistent P-node frames".into());
                }
                if c.frames.len() != depth + 1 {
                    return Err("frames continue past the P-node".into());
                }
                let pos = f.pos as usize;
                if pos + 1 >= f.ids.len() {
                    return Err("P edge position out of range".into());
                }
                let (u, v) = (f.ids[pos], f.ids[pos + 1]);
                let (lo, hi) = if u < v { (u, v) } else { (v, u) };
                if (lo, hi) != (c.a, c.b) || c.marked != f.marks[pos] {
                    return Err("P edge does not match its position".into());
                }
                let mut matched = false;
                for s in 0..2 {
                    if !found[s] && expected[s] == Some(f.pos) {
                        found[s] = true;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    return Err("incident P edges do not match my path position".into());
                }
            }
            for s in 0..2 {
                if expected[s].is_some() && !found[s] {
                    return Err("incident P edges do not match my path position".into());
                }
            }
            summary::base_p(ctx.alg, &f0.ids, &f0.marks)
        }
        _ => check_bnode(ctx, group, depth, member),
    }
}

/// Verifies a `B`-node group and returns its recomputed summary (`f_B`).
fn check_bnode(ctx: &Ctx<'_>, group: &CertList<'_>, depth: usize, member: u32) -> VResult<Summary> {
    fn bf_at(c: &EdgeCertLbl, depth: usize) -> VResult<&BFrameLbl> {
        match c.frames.get(depth) {
            Some(FrameLbl::B(b)) => Ok(b),
            _ => Err("expected a B frame".into()),
        }
    }
    let f0 = bf_at(group.first().ok_or("empty member group")?, depth)?;
    if f0.node != member {
        return Err("B frame names the wrong node".into());
    }
    for &c in group.iter().skip(1) {
        let f = bf_at(c, depth)?;
        if (f.node, f.i, f.j, f.left_is_v, f.right_is_v, f.bridge_marked)
            != (
                f0.node,
                f0.i,
                f0.j,
                f0.left_is_v,
                f0.right_is_v,
                f0.bridge_marked,
            )
            || f.left != f0.left
            || f.right != f0.right
        {
            return Err("inconsistent B frames".into());
        }
    }
    // The pure half — side parsing, lane/V-node validation, `f_B` — is
    // memoized on the frame's classes and shape.
    let (merged, u, w) = bridge_summary(ctx, f0)?;
    // Partition into sides.
    let mut sides: [CertList<'_>; 3] = [CertList::new(), CertList::new(), CertList::new()];
    for &c in group.iter() {
        let f = bf_at(c, depth)?;
        if f.side > 2 {
            return Err("invalid B side".into());
        }
        sides[f.side as usize].push(c);
    }
    // The bridge edge.
    if ctx.my_id == u || ctx.my_id == w {
        if sides[0].len() != 1 {
            return Err("bridge endpoint must see exactly one bridge edge".into());
        }
        let c = *sides[0]
            .first()
            .ok_or("bridge endpoint must see exactly one bridge edge")?;
        let (lo, hi) = if u < w { (u, w) } else { (w, u) };
        if (lo, hi) != (c.a, c.b) || c.marked != f0.bridge_marked {
            return Err("bridge edge endpoints or mark mismatch".into());
        }
        if c.frames.len() != depth + 1 {
            return Err("frames continue past the bridge edge".into());
        }
    } else if !sides[0].is_empty() {
        return Err("bridge edge at a non-endpoint vertex".into());
    }
    // The two sides.
    for (side_no, is_v, info, endpoint) in [
        (1usize, f0.left_is_v, &f0.left, u),
        (2, f0.right_is_v, &f0.right, w),
    ] {
        let side = &sides[side_no];
        if is_v {
            if !side.is_empty() {
                return Err("edges claimed inside a V-node".into());
            }
            continue;
        }
        if ctx.my_id == endpoint && side.is_empty() {
            return Err("T-node side missing at its bridge endpoint".into());
        }
        if !side.is_empty() {
            check_tnode(ctx, side, depth + 1, Some(info), false)?;
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The grouping `verify_inner` used before [`group_by_key`]: for each
    /// record, a rescan for its key's earlier appearance and another for
    /// the key's records (quadratic in the records).
    fn rescan_groups(keys: &[(u64, u64)]) -> Vec<Vec<u32>> {
        let mut groups = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            if keys[..i].contains(k) {
                continue;
            }
            groups.push(
                (0..keys.len() as u32)
                    .filter(|&x| keys[x as usize] == *k)
                    .collect(),
            );
        }
        groups
    }

    #[test]
    fn grouping_by_sort_matches_the_rescan() {
        let mut rng = StdRng::seed_from_u64(24);
        for round in 0..2_000 {
            let len = rng.random_range(0..40usize);
            // Few distinct endpoints, so keys repeat often.
            let span = 1 + round as u64 % 6;
            let keys: Vec<(u64, u64)> = (0..len)
                .map(|_| (rng.random_range(0..span), rng.random_range(0..span)))
                .collect();
            let (order, groups) = group_by_key(&keys);
            let sorted: Vec<Vec<u32>> = groups
                .iter()
                .map(|&(start, end)| order[start as usize..end as usize].to_vec())
                .collect();
            assert_eq!(sorted, rescan_groups(&keys), "{keys:?}");
        }
    }
}
