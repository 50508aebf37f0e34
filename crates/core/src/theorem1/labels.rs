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
//! The [`Enc`] impls below define the wire layout. The prover does not
//! build these types: it encodes each frame once per hierarchy slot
//! ([`FrameLbl`] up to a `T` frame's `d_a`/`d_b`), writes every
//! certificate once from those templates, and copies certificate bits
//! into each [`TransitLbl`] position. The types are what the verifier and
//! the typed prover decode those bytes into.

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

impl Enc for IfaceLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.lanes.0.enc(w);
        self.tin.enc(w);
        self.tout.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            lanes: LaneSet(Enc::dec(r)?),
            tin: Enc::dec(r)?,
            tout: Enc::dec(r)?,
        })
    }
}

impl Enc for BasicInfoLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.node.enc(w);
        self.class.enc(w);
        self.iface.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            node: Enc::dec(r)?,
            class: Enc::dec(r)?,
            iface: Enc::dec(r)?,
        })
    }
}

impl TFrameLbl {
    /// Writes every field but the trailing pointer distances `d_a`, `d_b`:
    /// the part shared by all edges below one member.
    fn enc_template(&self, w: &mut BitWriter) {
        self.t_node.enc(w);
        self.member.enc(w);
        self.subtree.enc(w);
        self.children.enc(w);
        self.is_root_member.enc(w);
        self.root_vertex.enc(w);
    }
}

impl Enc for TFrameLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.enc_template(w);
        self.d_a.enc(w);
        self.d_b.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            t_node: Enc::dec(r)?,
            member: Enc::dec(r)?,
            subtree: Enc::dec(r)?,
            children: Enc::dec(r)?,
            is_root_member: Enc::dec(r)?,
            root_vertex: Enc::dec(r)?,
            d_a: Enc::dec(r)?,
            d_b: Enc::dec(r)?,
        })
    }
}

impl Enc for BFrameLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.node.enc(w);
        self.i.enc(w);
        self.j.enc(w);
        self.left_is_v.enc(w);
        self.right_is_v.enc(w);
        self.left.enc(w);
        self.right.enc(w);
        self.bridge_marked.enc(w);
        self.side.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            node: Enc::dec(r)?,
            i: Enc::dec(r)?,
            j: Enc::dec(r)?,
            left_is_v: Enc::dec(r)?,
            right_is_v: Enc::dec(r)?,
            left: Enc::dec(r)?,
            right: Enc::dec(r)?,
            bridge_marked: Enc::dec(r)?,
            side: Enc::dec(r)?,
        })
    }
}

impl Enc for EFrameLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.node.enc(w);
        self.lane.enc(w);
        self.tin.enc(w);
        self.tout.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            node: Enc::dec(r)?,
            lane: Enc::dec(r)?,
            tin: Enc::dec(r)?,
            tout: Enc::dec(r)?,
        })
    }
}

impl Enc for PFrameLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.node.enc(w);
        self.ids.enc(w);
        self.marks.enc(w);
        self.pos.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            node: Enc::dec(r)?,
            ids: Enc::dec(r)?,
            marks: Enc::dec(r)?,
            pos: Enc::dec(r)?,
        })
    }
}

impl FrameLbl {
    /// Writes the frame's tag and fields, stopping before a `T` frame's
    /// `d_a`/`d_b` (the whole frame for the other kinds). The prover
    /// encodes each frame template once this way and completes `T`
    /// frames per certificate.
    pub(super) fn enc_template(&self, w: &mut BitWriter) {
        match self {
            FrameLbl::T(f) => {
                w.put_bits(0, 2);
                f.enc_template(w);
            }
            FrameLbl::B(f) => {
                w.put_bits(1, 2);
                f.enc(w);
            }
            FrameLbl::E(f) => {
                w.put_bits(2, 2);
                f.enc(w);
            }
            FrameLbl::P(f) => {
                w.put_bits(3, 2);
                f.enc(w);
            }
        }
    }
}

impl Enc for FrameLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.enc_template(w);
        if let FrameLbl::T(f) = self {
            f.d_a.enc(w);
            f.d_b.enc(w);
        }
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(match r.get_bits(2)? {
            0 => FrameLbl::T(Enc::dec(r)?),
            1 => FrameLbl::B(Enc::dec(r)?),
            2 => FrameLbl::E(Enc::dec(r)?),
            _ => FrameLbl::P(Enc::dec(r)?),
        })
    }
}

impl Enc for EdgeCertLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.a.enc(w);
        self.b.enc(w);
        self.marked.enc(w);
        self.frames.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            a: Enc::dec(r)?,
            b: Enc::dec(r)?,
            marked: Enc::dec(r)?,
            frames: Enc::dec(r)?,
        })
    }
}

impl Enc for TransitLbl {
    fn enc(&self, w: &mut BitWriter) {
        self.rank_fwd.enc(w);
        self.rank_bwd.enc(w);
        self.cert.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            rank_fwd: Enc::dec(r)?,
            rank_bwd: Enc::dec(r)?,
            cert: Enc::dec(r)?,
        })
    }
}

impl Enc for EdgeLabel {
    fn enc(&self, w: &mut BitWriter) {
        self.own.enc(w);
        self.transits.enc(w);
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
            let (bytes, _) = encode(&f);
            assert_eq!(decode::<FrameLbl>(&bytes), Some(f));
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
