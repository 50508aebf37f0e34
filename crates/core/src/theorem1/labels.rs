//! Certificate wire formats for the Theorem 1 scheme.
//!
//! Every edge of the network carries an [`EdgeLabel`]: its own certificate
//! as an edge of the completion `G'`, plus one transit record per virtual
//! completion edge whose embedding path crosses it (Section 6.2,
//! "certifying the embedding"). A certificate is a stack of frames — one
//! per hierarchy node containing the edge, at most `2k` by
//! Observation 5.5 — each carrying the *basic information* `B(·)`
//! (Definition 6.3): lanes, homomorphism class, and terminal identifiers.
//!
//! The [`Enc`] impls below define the wire layout (format 2, see
//! `WIRE_FORMAT` in the parent module). The prover does not build these
//! types: it encodes each frame once per hierarchy slot ([`FrameLbl`] up
//! to a `T` frame's `d_a`/`d_b`), writes every certificate once from
//! those templates, and copies certificate bits into each [`TransitLbl`]
//! position. The types are what the verifier and the typed prover decode
//! those bytes into.
//!
//! # Layout
//!
//! Numbers are nibble-varints, flags one bit, frame tags two bits, and
//! lists length-prefixed. A certificate writes its endpoints `a < b`, its
//! mark and its frame count, then its frames root first. Identifiers are
//! most of a certificate, and its frames repeat the same few: the
//! terminals of a member recur in its parent's child claim, in the frame
//! below, and as the pointer root. Three rules write them once:
//!
//! - **Implied lanes.** An interface side writes only its terminal ids, in
//!   lane order, one per lane of the mask. [`IfaceLbl::validate`] accepts
//!   no other side, so the lanes and the side's length follow from the
//!   mask.
//! - **Back-references.** Each certificate keeps a *seen list*: the ids
//!   its frames have written, in order of first appearance. An id already
//!   on it is written as a `1` flag and its index, in the fewest bits
//!   that can name every index so far; a new id as a `0` flag and the id,
//!   which then joins the list. The first id has no flag, and a decoder
//!   refuses a literal id that is already on the list, so every
//!   certificate has one encoding.
//! - **`E` orientation.** An `E` frame's terminals are the certificate's
//!   endpoints (the verifier requires it), so one bit says whether the
//!   in-terminal is `b`. A `T` frame's subtree claim names the member (the
//!   verifier requires that too), so its node id is not written.
//!
//! The seen list leaves out `a` and `b`. Every certificate below one
//! hierarchy slot shares that slot's frame but not its endpoints, so
//! with the endpoints on the list a slot's bits would differ from edge to
//! edge. Without them, a frame's bits depend only on the frames above
//! it: the prover still encodes each slot's template once, below its
//! ancestors' templates, and copies it into every certificate.

use lanecert_lanes::{Lane, LaneSet};

use crate::bits::{BitReader, BitWriter, Enc};
use crate::inline::InlineVec;

/// Slot-id scratch: interfaces expose at most `2 · max_lanes` distinct
/// terminals, so eight inline slots cover every configuration the test
/// and benchmark corpora use without touching the heap.
pub type SlotIds = InlineVec<u64, 8>;

/// One side of an interface: `(lane, id)` pairs, strictly ascending by
/// lane. Four inline pairs keep the common ≤ 4-lane interface — built,
/// cloned, compared and hashed on every frame of every certificate —
/// allocation-free.
pub type Terminals = InlineVec<(u8, u64), 4>;

/// A k-lane interface (Definition 5.3): a lane set plus an in-terminal
/// and an out-terminal identifier per lane. The one interface type — the
/// summaries of [`super::summary`] carry it, and it is what the labels
/// encode.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IfaceLbl {
    /// The lane set (a bitmask on the wire).
    pub lanes: LaneSet,
    /// In-terminals, strictly ascending by lane.
    pub tin: Terminals,
    /// Out-terminals, strictly ascending by lane.
    pub tout: Terminals,
}

impl IfaceLbl {
    /// The in-terminal id of `lane`, if the interface has one.
    pub fn tin_at(&self, lane: Lane) -> Option<u64> {
        terminal_at(&self.tin, lane)
    }

    /// The out-terminal id of `lane`, if the interface has one.
    pub fn tout_at(&self, lane: Lane) -> Option<u64> {
        terminal_at(&self.tout, lane)
    }

    /// The canonical slot list: distinct terminal ids, ascending.
    pub fn slot_ids(&self) -> SlotIds {
        let mut ids: SlotIds = self
            .tin
            .iter()
            .chain(self.tout.iter())
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        // Slice-level dedup: drop trailing duplicates by `remove`.
        let mut w = 0;
        for r in 0..ids.len() {
            if r == 0 || ids[r] != ids[w - 1] {
                ids[w] = ids[r];
                w += 1;
            }
        }
        while ids.len() > w {
            ids.remove(ids.len() - 1);
        }
        ids
    }

    /// Checks a claimed interface against Definition 5.3 and the
    /// verifier's lane bound: a non-empty lane set within the first
    /// `max_lanes` lanes, and per side exactly one terminal per lane,
    /// strictly ascending by lane (the one order the prover emits, so
    /// every interface has one encoding), with distinct ids.
    ///
    /// The wire implies each terminal's lane from the mask, so a decoded
    /// label cannot trip the per-lane checks ("terminal on unused lane",
    /// "terminals not strictly ascending by lane", "missing terminal for
    /// some lane"); they still guard typed labels handed to the verifier
    /// directly. The empty-set, lane-bound and injectivity checks are
    /// reachable from the wire.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation found.
    pub fn validate(&self, max_lanes: usize) -> Result<(), String> {
        if self.lanes.is_empty() {
            return Err("empty lane set".into());
        }
        // Computed here rather than by `LaneSet::full`, which asserts
        // `max_lanes <= 64`: a larger bound admits every lane.
        let bound = if max_lanes >= 64 {
            u64::MAX
        } else {
            (1u64 << max_lanes) - 1
        };
        if !self.lanes.is_subset_of(LaneSet(bound)) {
            return Err(format!("lane set exceeds the {max_lanes}-lane bound"));
        }
        for side in [&self.tin, &self.tout] {
            for (x, &(lane, id)) in side.iter().enumerate() {
                let before = &side[..x];
                if !self.lanes.contains(lane as Lane) {
                    return Err(format!("terminal on unused lane {lane}"));
                }
                if before.last().is_some_and(|&(prev, _)| prev >= lane) {
                    return Err("terminals not strictly ascending by lane".into());
                }
                // Injectivity per Definition 5.3 (at most 64 pairs, so the
                // quadratic scan beats sorting a scratch vec).
                if before.iter().any(|&(_, other)| other == id) {
                    return Err("terminal assignment not injective".into());
                }
            }
            if side.len() != self.lanes.len() {
                return Err("missing terminal for some lane".into());
            }
        }
        Ok(())
    }
}

/// Binary search of one interface side for `lane`'s terminal id.
fn terminal_at(side: &[(u8, u64)], lane: Lane) -> Option<u64> {
    let x = side.binary_search_by_key(&lane, |&(l, _)| l as Lane).ok()?;
    side.get(x).map(|&(_, id)| id)
}

/// Basic information `B(G)` of a hierarchy node (Definition 6.3):
/// node-id hint, homomorphism class, interface.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BasicInfoLbl {
    /// Hierarchy node id (a hint for grouping; all facts are re-verified).
    pub node: u32,
    /// Interned homomorphism class (`StateId`).
    pub class: u32,
    /// The k-lane interface.
    pub iface: IfaceLbl,
}

/// Frame for a `T`-node: which member this edge lies in, the member's
/// subtree summary `B(Tree-merge(T_m))`, the member's children summaries,
/// and the root-existence pointer (Proposition 2.2 sub-scheme).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TFrameLbl {
    /// The `T`-node id.
    pub t_node: u32,
    /// The member node this edge belongs to.
    pub member: u32,
    /// `B(Tree-merge(T_member))`.
    pub subtree: BasicInfoLbl,
    /// Subtree summaries of the member's children in the merge tree.
    pub children: Vec<BasicInfoLbl>,
    /// Is this member the root of the merge tree?
    pub is_root_member: bool,
    /// Identifier of a vertex inside the root member (pointer target).
    pub root_vertex: u64,
    /// Pointer distance of the certificate's `a` endpoint inside the
    /// `T`-node's realized subgraph.
    pub d_a: u32,
    /// Pointer distance of the `b` endpoint.
    pub d_b: u32,
}

/// Frame for a `B`-node (`Bridge-merge`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BFrameLbl {
    /// The `B`-node id.
    pub node: u32,
    /// Bridge lane on the left side.
    pub i: u8,
    /// Bridge lane on the right side.
    pub j: u8,
    /// Whether the left child is a `V`-node (vs. a `T`-node).
    pub left_is_v: bool,
    /// Whether the right child is a `V`-node.
    pub right_is_v: bool,
    /// `B(left child)`.
    pub left: BasicInfoLbl,
    /// `B(right child)`.
    pub right: BasicInfoLbl,
    /// Whether the bridge edge is a marked (original) edge.
    pub bridge_marked: bool,
    /// Which part this edge lies in: 0 = the bridge edge itself,
    /// 1 = inside the left child, 2 = inside the right child.
    pub side: u8,
}

/// Frame for an `E`-node (a single `V-insert` edge).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EFrameLbl {
    /// The `E`-node id.
    pub node: u32,
    /// Its lane.
    pub lane: u8,
    /// In-terminal identifier.
    pub tin: u64,
    /// Out-terminal identifier.
    pub tout: u64,
}

/// Frame for the initial `P`-node path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PFrameLbl {
    /// The `P`-node id.
    pub node: u32,
    /// Path vertex identifiers, in lane order.
    pub ids: InlineVec<u64, 6>,
    /// Mark flag of each path edge (an `E2` edge may coincide with an
    /// original edge).
    pub marks: InlineVec<bool, 6>,
    /// Which path edge this certificate describes.
    pub pos: u16,
}

/// One stack entry of a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameLbl {
    /// Inside a `T`-node.
    T(TFrameLbl),
    /// Inside a `B`-node.
    B(BFrameLbl),
    /// Owned by an `E`-node.
    E(EFrameLbl),
    /// Owned by the `P`-node.
    P(PFrameLbl),
}

/// The certificate of one edge of the completion `G'`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeCertLbl {
    /// Smaller endpoint identifier.
    pub a: u64,
    /// Larger endpoint identifier.
    pub b: u64,
    /// Whether the edge belongs to the certified (real) subgraph.
    pub marked: bool,
    /// Frame stack, outermost (root `T`-node) first.
    pub frames: Vec<FrameLbl>,
}

/// A virtual edge's certificate as replicated along its embedding path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitLbl {
    /// Rank of this real edge in the path, counted from the `a` endpoint
    /// (first edge has rank 1).
    pub rank_fwd: u32,
    /// Rank counted from the `b` endpoint.
    pub rank_bwd: u32,
    /// The virtual edge's certificate (`cert.a`/`cert.b` are its
    /// endpoints).
    pub cert: EdgeCertLbl,
}

/// The complete label of one real network edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeLabel {
    /// This edge's own certificate (as a completion edge).
    pub own: EdgeCertLbl,
    /// Transit records of virtual edges embedded across this edge.
    pub transits: Vec<TransitLbl>,
}

/// What a run of wire bits encodes, for the per-field accounting of
/// [`field_bits`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Field {
    /// A certificate's endpoint ids `a` and `b`.
    EndpointId,
    /// Interface terminal ids.
    TerminalId,
    /// A `T` frame's pointer root id.
    RootId,
    /// A `P` frame's path vertex ids.
    PathId,
    /// An `E` frame's terminals.
    EdgeTerminals,
    /// Hierarchy node ids.
    NodeId,
    /// Homomorphism class ids.
    ClassId,
    /// Interface lane masks.
    LaneMask,
    /// `B` bridge lanes and `E` lanes.
    Lane,
    /// `T` pointer distances.
    Distance,
    /// Transit ranks.
    Rank,
    /// Frame tags.
    Tag,
    /// Lengths of frame stacks, child lists, transit lists and `P` lists.
    Length,
    /// One-bit flags, `P` marks, `B` sides and `P` positions.
    Flags,
}

impl Field {
    /// Every field, in tally order.
    pub const ALL: [Field; 14] = [
        Field::EndpointId,
        Field::TerminalId,
        Field::RootId,
        Field::PathId,
        Field::EdgeTerminals,
        Field::NodeId,
        Field::ClassId,
        Field::LaneMask,
        Field::Lane,
        Field::Distance,
        Field::Rank,
        Field::Tag,
        Field::Length,
        Field::Flags,
    ];

    /// A short column name.
    pub fn name(self) -> &'static str {
        match self {
            Field::EndpointId => "id.end",
            Field::TerminalId => "id.term",
            Field::RootId => "id.root",
            Field::PathId => "id.path",
            Field::EdgeTerminals => "id.edge",
            Field::NodeId => "node",
            Field::ClassId => "class",
            Field::LaneMask => "mask",
            Field::Lane => "lane",
            Field::Distance => "dist",
            Field::Rank => "rank",
            Field::Tag => "tag",
            Field::Length => "len",
            Field::Flags => "flags",
        }
    }
}

/// Wire bits per [`Field`], indexed by `Field as usize`.
pub type FieldBits = [u64; Field::ALL.len()];

/// Encodes `label` as [`Enc`] does, adding the bits of each field to
/// `tally`; returns the label's total bits (the sum of what was added).
pub fn field_bits(label: &EdgeLabel, tally: &mut FieldBits) -> usize {
    let mut w = BitWriter::new();
    label.enc_tallied(&mut w, Some(tally));
    w.bit_len()
}

/// The ids one certificate has written so far, in order of first
/// appearance: the targets of its back-references. The longest list
/// measured on the corpus families at pathwidth 2 holds 12 ids, so
/// thirty-two inline ids keep decoding off the heap.
type SeenIds = InlineVec<u64, 32>;

/// Bits of a back-reference into a seen list of `len ≥ 1` ids: the
/// fewest that can name every index, so 0 when there is one id.
fn index_width(len: usize) -> usize {
    (usize::BITS - len.saturating_sub(1).leading_zeros()) as usize
}

/// Writes the fields of one certificate's frames, remembering the ids
/// written so far (see the [module docs](self)), and optionally adds each
/// field's bits to a tally.
pub(super) struct CertWriter<'t> {
    seen: SeenIds,
    tally: Option<&'t mut FieldBits>,
}

impl<'t> CertWriter<'t> {
    pub(super) fn new(tally: Option<&'t mut FieldBits>) -> Self {
        Self {
            seen: SeenIds::new(),
            tally,
        }
    }

    /// How many ids have been seen: a mark to [`CertWriter::rewind`] to.
    pub(super) fn mark(&self) -> usize {
        self.seen.len()
    }

    /// Forgets the ids seen after `mark`, so the next frame is written
    /// as it would be below the frames written before `mark`.
    pub(super) fn rewind(&mut self, mark: usize) {
        self.seen.truncate(mark);
    }

    /// Runs `write` and tallies the bits it wrote under `field`.
    fn put(&mut self, w: &mut BitWriter, field: Field, write: impl FnOnce(&mut BitWriter)) {
        let before = w.bit_len();
        write(w);
        if let Some(tally) = self.tally.as_deref_mut() {
            tally[field as usize] += (w.bit_len() - before) as u64;
        }
    }

    fn varint(&mut self, w: &mut BitWriter, field: Field, value: u64) {
        self.put(w, field, |w| w.put_varint(value));
    }

    fn flag(&mut self, w: &mut BitWriter, field: Field, bit: bool) {
        self.put(w, field, |w| w.put_bit(bit));
    }

    /// Writes an id: a back-reference if this certificate has written it
    /// before, otherwise the id itself, which joins the seen list. With
    /// nothing seen yet there is no reference flag.
    fn id(&mut self, w: &mut BitWriter, field: Field, id: u64) {
        let seen = self.seen.len();
        let at = self.seen.iter().position(|&x| x == id);
        self.put(w, field, |w| match at {
            Some(x) => {
                w.put_bit(true);
                w.put_bits(x as u64, index_width(seen));
            }
            None => {
                if seen > 0 {
                    w.put_bit(false);
                }
                w.put_varint(id);
            }
        });
        if at.is_none() {
            self.seen.push(id);
        }
    }

    /// Writes the lane mask, then each side's terminal ids in lane order:
    /// one per mask lane, which is all a valid side holds. A side without
    /// a terminal on some mask lane has no encoding; it is written with
    /// id 0 there, and its terminals off the mask are dropped.
    fn iface(&mut self, w: &mut BitWriter, iface: &IfaceLbl) {
        self.varint(w, Field::LaneMask, iface.lanes.0);
        for side in [&iface.tin, &iface.tout] {
            for lane in iface.lanes.iter() {
                let id = side.iter().find(|&&(l, _)| l as Lane == lane);
                self.id(w, Field::TerminalId, id.map_or(0, |&(_, id)| id));
            }
        }
    }

    fn info(&mut self, w: &mut BitWriter, info: &BasicInfoLbl) {
        self.varint(w, Field::NodeId, u64::from(info.node));
        self.varint(w, Field::ClassId, u64::from(info.class));
        self.iface(w, &info.iface);
    }

    /// Writes `frame`'s tag and fields, stopping before a `T` frame's
    /// `d_a`/`d_b` (the whole frame for the other kinds), below the
    /// frames this writer has seen. The prover encodes each frame
    /// template once this way and completes `T` frames per certificate.
    pub(super) fn template(&mut self, w: &mut BitWriter, frame: &FrameLbl) {
        let tag = match frame {
            FrameLbl::T(_) => 0,
            FrameLbl::B(_) => 1,
            FrameLbl::E(_) => 2,
            FrameLbl::P(_) => 3,
        };
        self.put(w, Field::Tag, |w| w.put_bits(tag, 2));
        match frame {
            FrameLbl::T(f) => {
                self.varint(w, Field::NodeId, u64::from(f.t_node));
                // The subtree claim's node is the member's: not written.
                self.varint(w, Field::NodeId, u64::from(f.member));
                self.varint(w, Field::ClassId, u64::from(f.subtree.class));
                self.iface(w, &f.subtree.iface);
                self.varint(w, Field::Length, f.children.len() as u64);
                for child in &f.children {
                    self.info(w, child);
                }
                self.flag(w, Field::Flags, f.is_root_member);
                self.id(w, Field::RootId, f.root_vertex);
            }
            FrameLbl::B(f) => {
                self.varint(w, Field::NodeId, u64::from(f.node));
                self.varint(w, Field::Lane, u64::from(f.i));
                self.varint(w, Field::Lane, u64::from(f.j));
                self.flag(w, Field::Flags, f.left_is_v);
                self.flag(w, Field::Flags, f.right_is_v);
                self.info(w, &f.left);
                self.info(w, &f.right);
                self.flag(w, Field::Flags, f.bridge_marked);
                self.varint(w, Field::Flags, u64::from(f.side));
            }
            FrameLbl::E(f) => {
                self.varint(w, Field::NodeId, u64::from(f.node));
                self.varint(w, Field::Lane, u64::from(f.lane));
                // The terminals are the certificate's endpoints: one bit
                // says whether the in-terminal is `b`.
                self.flag(w, Field::EdgeTerminals, f.tin > f.tout);
            }
            FrameLbl::P(f) => {
                self.varint(w, Field::NodeId, u64::from(f.node));
                self.varint(w, Field::Length, f.ids.len() as u64);
                for &id in f.ids.iter() {
                    self.id(w, Field::PathId, id);
                }
                self.varint(w, Field::Length, f.marks.len() as u64);
                for &mark in f.marks.iter() {
                    self.flag(w, Field::Flags, mark);
                }
                self.varint(w, Field::Flags, u64::from(f.pos));
            }
        }
    }

    /// Writes a whole certificate, with a fresh seen list.
    fn cert(&mut self, w: &mut BitWriter, cert: &EdgeCertLbl) {
        self.rewind(0);
        self.varint(w, Field::EndpointId, cert.a);
        self.varint(w, Field::EndpointId, cert.b);
        self.flag(w, Field::Flags, cert.marked);
        self.varint(w, Field::Length, cert.frames.len() as u64);
        for frame in &cert.frames {
            self.template(w, frame);
            if let FrameLbl::T(f) = frame {
                self.varint(w, Field::Distance, u64::from(f.d_a));
                self.varint(w, Field::Distance, u64::from(f.d_b));
            }
        }
    }
}

/// Reads one certificate's frames back: its endpoints, which `E` frames
/// name, and the ids seen so far, which back-references name.
struct CertReader {
    a: u64,
    b: u64,
    seen: SeenIds,
}

impl CertReader {
    /// Reads an id as [`CertWriter`] writes it. A literal id the
    /// certificate has already written is malformed: it has exactly one
    /// encoding, a back-reference.
    fn id(&mut self, r: &mut BitReader<'_>) -> Option<u64> {
        if !self.seen.is_empty() && r.get_bit()? {
            let x = r.get_bits(index_width(self.seen.len()))?;
            return self.seen.get(x as usize).copied();
        }
        let id = r.get_varint()?;
        if self.seen.contains(&id) {
            return None;
        }
        self.seen.push(id);
        Some(id)
    }

    fn iface(&mut self, r: &mut BitReader<'_>) -> Option<IfaceLbl> {
        let lanes = LaneSet(Enc::dec(r)?);
        let mut sides = [Terminals::new(), Terminals::new()];
        for side in &mut sides {
            for lane in lanes.iter() {
                side.push((lane as u8, self.id(r)?));
            }
        }
        let [tin, tout] = sides;
        Some(IfaceLbl { lanes, tin, tout })
    }

    fn info(&mut self, r: &mut BitReader<'_>, node: u32) -> Option<BasicInfoLbl> {
        Some(BasicInfoLbl {
            node,
            class: Enc::dec(r)?,
            iface: self.iface(r)?,
        })
    }

    fn frame(&mut self, r: &mut BitReader<'_>) -> Option<FrameLbl> {
        Some(match r.get_bits(2)? {
            0 => {
                let t_node = Enc::dec(r)?;
                let member = Enc::dec(r)?;
                let subtree = self.info(r, member)?;
                let len: usize = Enc::dec(r)?;
                if len > 1 << 24 {
                    return None;
                }
                let mut children = Vec::with_capacity(len.min(1 << 12));
                for _ in 0..len {
                    let node = Enc::dec(r)?;
                    children.push(self.info(r, node)?);
                }
                FrameLbl::T(TFrameLbl {
                    t_node,
                    member,
                    subtree,
                    children,
                    is_root_member: Enc::dec(r)?,
                    root_vertex: self.id(r)?,
                    d_a: Enc::dec(r)?,
                    d_b: Enc::dec(r)?,
                })
            }
            1 => {
                let node = Enc::dec(r)?;
                let i = Enc::dec(r)?;
                let j = Enc::dec(r)?;
                let left_is_v = Enc::dec(r)?;
                let right_is_v = Enc::dec(r)?;
                let left_node = Enc::dec(r)?;
                let left = self.info(r, left_node)?;
                let right_node = Enc::dec(r)?;
                FrameLbl::B(BFrameLbl {
                    node,
                    i,
                    j,
                    left_is_v,
                    right_is_v,
                    left,
                    right: self.info(r, right_node)?,
                    bridge_marked: Enc::dec(r)?,
                    side: Enc::dec(r)?,
                })
            }
            2 => {
                let node = Enc::dec(r)?;
                let lane = Enc::dec(r)?;
                let (tin, tout) = if r.get_bit()? {
                    (self.b, self.a)
                } else {
                    (self.a, self.b)
                };
                FrameLbl::E(EFrameLbl {
                    node,
                    lane,
                    tin,
                    tout,
                })
            }
            _ => {
                let node = Enc::dec(r)?;
                let len: usize = Enc::dec(r)?;
                if len > 1 << 24 {
                    return None;
                }
                let mut ids = InlineVec::new();
                for _ in 0..len {
                    ids.push(self.id(r)?);
                }
                FrameLbl::P(PFrameLbl {
                    node,
                    ids,
                    marks: Enc::dec(r)?,
                    pos: Enc::dec(r)?,
                })
            }
        })
    }
}

impl Enc for EdgeCertLbl {
    fn enc(&self, w: &mut BitWriter) {
        CertWriter::new(None).cert(w, self);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        let a = Enc::dec(r)?;
        let b = Enc::dec(r)?;
        let marked = Enc::dec(r)?;
        let len: usize = Enc::dec(r)?;
        if len > 1 << 24 {
            return None;
        }
        let mut reader = CertReader {
            a,
            b,
            seen: SeenIds::new(),
        };
        let mut frames = Vec::with_capacity(len.min(1 << 12));
        for _ in 0..len {
            frames.push(reader.frame(r)?);
        }
        Some(Self {
            a,
            b,
            marked,
            frames,
        })
    }
}

impl TransitLbl {
    fn enc_tallied(&self, w: &mut BitWriter, tally: Option<&mut FieldBits>) {
        let mut cw = CertWriter::new(tally);
        cw.varint(w, Field::Rank, u64::from(self.rank_fwd));
        cw.varint(w, Field::Rank, u64::from(self.rank_bwd));
        cw.cert(w, &self.cert);
    }
}

impl Enc for TransitLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.enc_tallied(w, None);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            rank_fwd: Enc::dec(r)?,
            rank_bwd: Enc::dec(r)?,
            cert: Enc::dec(r)?,
        })
    }
}

impl EdgeLabel {
    fn enc_tallied(&self, w: &mut BitWriter, mut tally: Option<&mut FieldBits>) {
        let mut cw = CertWriter::new(tally.as_deref_mut());
        cw.cert(w, &self.own);
        cw.varint(w, Field::Length, self.transits.len() as u64);
        for t in &self.transits {
            t.enc_tallied(w, tally.as_deref_mut());
        }
    }
}

impl Enc for EdgeLabel {
    fn enc(&self, w: &mut BitWriter) {
        self.enc_tallied(w, None);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            own: Enc::dec(r)?,
            transits: Enc::dec(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{decode, encode};

    fn sample_cert() -> EdgeCertLbl {
        EdgeCertLbl {
            a: 3,
            b: 9,
            marked: true,
            frames: vec![
                FrameLbl::T(TFrameLbl {
                    t_node: 7,
                    member: 2,
                    subtree: BasicInfoLbl {
                        node: 2,
                        class: 5,
                        iface: IfaceLbl {
                            lanes: LaneSet(0b11),
                            tin: [(0, 3), (1, 4)].into(),
                            tout: [(0, 9), (1, 4)].into(),
                        },
                    },
                    children: vec![],
                    is_root_member: true,
                    root_vertex: 3,
                    d_a: 0,
                    d_b: 1,
                }),
                FrameLbl::E(EFrameLbl {
                    node: 2,
                    lane: 0,
                    tin: 3,
                    tout: 9,
                }),
            ],
        }
    }

    #[test]
    fn labels_roundtrip() {
        let label = EdgeLabel {
            own: sample_cert(),
            transits: vec![TransitLbl {
                rank_fwd: 1,
                rank_bwd: 3,
                cert: sample_cert(),
            }],
        };
        let (bytes, bits) = encode(&label);
        assert!(bits > 0);
        assert_eq!(decode::<EdgeLabel>(&bytes), Some(label));
    }

    #[test]
    fn frame_variants_roundtrip() {
        for f in [
            FrameLbl::B(BFrameLbl {
                node: 1,
                i: 0,
                j: 1,
                left_is_v: true,
                right_is_v: false,
                left: BasicInfoLbl {
                    node: 5,
                    class: 0,
                    iface: IfaceLbl {
                        lanes: LaneSet(1),
                        tin: [(0, 8)].into(),
                        tout: [(0, 8)].into(),
                    },
                },
                right: BasicInfoLbl {
                    node: 6,
                    class: 1,
                    iface: IfaceLbl {
                        lanes: LaneSet(2),
                        tin: [(1, 2)].into(),
                        tout: [(1, 4)].into(),
                    },
                },
                bridge_marked: true,
                side: 0,
            }),
            FrameLbl::P(PFrameLbl {
                node: 0,
                ids: [1, 2, 3].into(),
                marks: [false, true].into(),
                pos: 1,
            }),
        ] {
            // Frames are encoded inside a certificate, below its root frame.
            let mut cert = sample_cert();
            cert.frames[1] = f;
            let (bytes, _) = encode(&cert);
            assert_eq!(decode::<EdgeCertLbl>(&bytes), Some(cert));
        }
    }

    #[test]
    fn field_bits_sum_to_the_label_bits() {
        let label = EdgeLabel {
            own: sample_cert(),
            transits: vec![TransitLbl {
                rank_fwd: 2,
                rank_bwd: 5,
                cert: sample_cert(),
            }],
        };
        let mut tally = FieldBits::default();
        let bits = field_bits(&label, &mut tally);
        assert_eq!(bits, encode(&label).1);
        assert_eq!(tally.iter().sum::<u64>(), bits as u64);
        assert_eq!(tally[Field::Rank as usize], 10);
        assert_eq!(tally[Field::Tag as usize], 8);
    }

    #[test]
    fn a_repeated_id_costs_a_flag_and_an_index() {
        // The sample's root vertex 3 is its fourth id use, after 3, 4, 9
        // and 4 were seen: a flag and a 2-bit index instead of a flag and
        // a 15-bit literal.
        let cert = sample_cert();
        let mut fresh = cert.clone();
        let FrameLbl::T(t) = &mut fresh.frames[0] else {
            unreachable!()
        };
        t.root_vertex = 1000;
        assert_eq!(encode(&fresh).1 - encode(&cert).1, 15 - 2);
        assert_eq!(decode::<EdgeCertLbl>(&encode(&fresh).0), Some(fresh));
    }

    #[test]
    fn every_certificate_has_one_encoding() {
        // A certificate `1-2` with one P frame whose ids are written by
        // `ids`, so the id stream can be malformed by hand.
        let wire = |ids: &dyn Fn(&mut BitWriter)| {
            let mut w = BitWriter::new();
            for v in [1, 2] {
                w.put_varint(v);
            }
            w.put_bit(true);
            w.put_varint(1);
            w.put_bits(3, 2);
            w.put_varint(0);
            w.put_varint(4);
            ids(&mut w);
            w.put_varint(3);
            w.put_bits(0b111, 3);
            w.put_varint(0);
            w.into_bytes()
        };
        let literal = |w: &mut BitWriter, id: u64| {
            w.put_bit(false);
            w.put_varint(id);
        };
        let reference = |w: &mut BitWriter, x: u64| {
            w.put_bit(true);
            w.put_bits(x, 2);
        };
        let honest = wire(&|w| {
            w.put_varint(5);
            literal(w, 6);
            literal(w, 7);
            reference(w, 1);
        });
        let cert = decode::<EdgeCertLbl>(&honest).expect("well-formed");
        let FrameLbl::P(p) = &cert.frames[0] else {
            panic!("{cert:?}")
        };
        assert_eq!(p.ids.as_slice(), [5, 6, 7, 6]);
        assert_eq!(encode(&cert).0, honest);
        // The same ids with the repeat written out: not the encoding.
        let repeated = wire(&|w| {
            w.put_varint(5);
            literal(w, 6);
            literal(w, 7);
            literal(w, 6);
        });
        assert_eq!(decode::<EdgeCertLbl>(&repeated), None);
        // An index past the three ids seen.
        let dangling = wire(&|w| {
            w.put_varint(5);
            literal(w, 6);
            literal(w, 7);
            reference(w, 3);
        });
        assert_eq!(decode::<EdgeCertLbl>(&dangling), None);
    }

    #[test]
    fn e_terminals_are_the_endpoints_in_either_orientation() {
        for (tin, tout) in [(3, 9), (9, 3)] {
            let mut cert = sample_cert();
            cert.frames[1] = FrameLbl::E(EFrameLbl {
                node: 2,
                lane: 0,
                tin,
                tout,
            });
            let (bytes, _) = encode(&cert);
            assert_eq!(decode::<EdgeCertLbl>(&bytes), Some(cert));
        }
    }

    #[test]
    fn iface_validation_rejects_every_malformation() {
        let good = IfaceLbl {
            lanes: LaneSet(0b101),
            tin: [(0, 4), (2, 6)].into(),
            tout: [(0, 5), (2, 6)].into(),
        };
        assert_eq!(good.validate(3), Ok(()));
        // Bounds past the 64-lane capacity admit every lane, and must not
        // panic computing the lane mask.
        for max_lanes in [64, 65, usize::MAX] {
            assert_eq!(good.validate(max_lanes), Ok(()));
            let wide = IfaceLbl {
                lanes: LaneSet(1 << 63),
                tin: [(63, 1)].into(),
                tout: [(63, 2)].into(),
            };
            assert_eq!(wide.validate(max_lanes), Ok(()));
        }
        let rejects = |edit: fn(&mut IfaceLbl), reason: &str| {
            let mut iface = good.clone();
            edit(&mut iface);
            assert_eq!(iface.validate(3), Err(reason.to_string()));
        };
        rejects(|i| i.lanes = LaneSet::EMPTY, "empty lane set");
        rejects(|i| i.lanes = LaneSet(0b011), "terminal on unused lane 2");
        rejects(|i| i.tin[0].0 = 1, "terminal on unused lane 1");
        let unordered = "terminals not strictly ascending by lane";
        rejects(|i| i.tin = [(0, 4), (0, 6)].into(), unordered); // duplicate lane
        rejects(|i| i.tin = [(2, 6), (0, 4)].into(), unordered);
        rejects(
            |i| i.tout = [(0, 5)].into(),
            "missing terminal for some lane",
        );
        rejects(|i| i.tout[0].1 = 6, "terminal assignment not injective");
        assert_eq!(
            good.validate(2),
            Err("lane set exceeds the 2-lane bound".to_string())
        );
    }
}
