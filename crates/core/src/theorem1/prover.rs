//! The certificate assignment (the centralized prover of Theorem 1).
//!
//! Labels are written straight to the wire. [`Frames::walk`] encodes each
//! frame template once per hierarchy slot into one bit arena, linked to
//! its parent slot. Each completion-edge certificate is then written
//! once, by copying its slot chain root-first and completing every `T`
//! frame with the edge's pointer distances, and each virtual edge's
//! certificate bits are copied into every transit along its embedding
//! path (Section 6.2). The byte layout is the [`Enc`] encoding of
//! [`EdgeLabel`] in [`super::labels`].

use lanecert_algebra::FrozenAlgebra;
use lanecert_graph::{traversal, EdgeId, Graph, VertexId};
use lanecert_lanes::{Hierarchy, Layout, NodeId, NodeKind};

use super::labels::*;
use super::summary::{self, Summary};
use crate::bits::{BitWriter, Enc};
use crate::{CertError, Configuration, EncodedLabeling};

/// A prover invariant that failed: a bug, reported instead of a panic.
fn internal(what: &str) -> CertError {
    CertError::Internal(format!("theorem1 prover: {what}"))
}

/// One encoded frame template: a frame shared by every certificate
/// below one hierarchy position (a `T` member, a `B` side, an `E` edge or
/// a `P` edge).
struct Slot {
    /// The enclosing slot, `None` at the root.
    parent: Option<u32>,
    /// Byte offset of the template in [`Frames::arena`].
    start: usize,
    /// Template length in bits.
    bits: usize,
    /// For a `T` slot, the `T`-node whose pointer distances complete it.
    t_node: Option<NodeId>,
}

struct Frames<'a> {
    alg: &'a FrozenAlgebra,
    cfg: &'a Configuration,
    layout: &'a Layout,
    kids: &'a [Vec<Vec<usize>>],       // per T-node, per member index
    marked: Vec<bool>,                 // per built-graph edge
    summaries: Vec<Summary>,           // per hierarchy node
    member_subtree: Vec<Vec<Summary>>, // per T-node, per member index
    t_pointers: Vec<Option<Pointers>>, // per T-node
    slots: Vec<Slot>,                  // in walk order
    arena: Vec<u8>,                    // slot templates, each byte-aligned
    edge_slot: Vec<Option<u32>>,       // per built-graph edge: innermost slot
    w: BitWriter,                      // template scratch
    cw: CertWriter<'static>,           // template field writer
}

/// A T-node's pointer root and the BFS distances from it inside the
/// node's realized subgraph, stored for the realized vertices only.
struct Pointers {
    root: VertexId,
    /// Realized vertices, sorted.
    vertices: Vec<VertexId>,
    /// `dist[x]` is the distance of `vertices[x]` (`u32::MAX` if unreached).
    dist: Vec<u32>,
}

impl Pointers {
    /// Distance of `v` from the root; `u32::MAX` outside the subgraph.
    fn dist(&self, v: VertexId) -> u32 {
        self.vertices
            .binary_search(&v)
            .map_or(u32::MAX, |x| self.dist[x])
    }
}

/// Per T-node (empty for other nodes), per member index: the member's
/// children in the merge tree, sorted by lane mask (deterministic and
/// label-independent).
fn kid_lists(h: &Hierarchy) -> Vec<Vec<Vec<usize>>> {
    h.nodes
        .iter()
        .map(|node| {
            let NodeKind::T {
                members,
                member_parent,
            } = &node.kind
            else {
                return Vec::new();
            };
            let mut kids = vec![Vec::new(); members.len()];
            for (c, p) in member_parent.iter().enumerate() {
                if let Some(p) = *p {
                    kids[p].push(c);
                }
            }
            for list in &mut kids {
                list.sort_by_key(|&c| h.nodes[members[c]].lanes.0);
            }
            kids
        })
        .collect()
}

/// A virtual edge's certificate crossing one network edge.
struct Transit {
    /// The network edge carrying it.
    edge: usize,
    /// Byte offset of the certificate in the certificate arena.
    start: usize,
    /// Certificate length in bits.
    bits: usize,
    rank_fwd: u32,
    rank_bwd: u32,
}

/// Writes the wire labels of every network edge: its own certificate,
/// then the transits of the virtual edges embedded across it.
pub(super) fn build_labels(
    alg: &FrozenAlgebra,
    cfg: &Configuration,
    layout: &Layout,
) -> Result<EncodedLabeling, CertError> {
    let bg = &layout.construction.graph;
    // Mark flags: an edge of the built (completion) graph is marked iff it
    // is an original edge of the network graph.
    let marked: Vec<bool> = bg
        .edges()
        .map(|(_, e)| cfg.graph().has_edge(e.u, e.v))
        .collect();
    let kids = kid_lists(&layout.hierarchy);
    let mut fr = Frames {
        alg,
        cfg,
        layout,
        kids: &kids,
        marked,
        summaries: Vec::new(),
        member_subtree: Vec::new(),
        t_pointers: Vec::new(),
        slots: Vec::new(),
        arena: Vec::new(),
        edge_slot: vec![None; bg.edge_count()],
        w: BitWriter::new(),
        cw: CertWriter::new(None),
    };
    fr.summarize().map_err(CertError::Internal)?;
    if !alg.accept(&fr.summaries[layout.hierarchy.root].class) {
        return Err(CertError::PropertyViolated);
    }
    fr.pointers()?;
    fr.walk(layout.hierarchy.root, None)?;
    // Only the templates, pointers and marks are read from here on.
    fr.summaries = Vec::new();
    fr.member_subtree = Vec::new();

    // Each virtual edge's certificate, written once, and its transits in
    // (virtual edge, hop) order.
    let network = cfg.graph();
    let mut w = BitWriter::new();
    let mut chain = Vec::new();
    let mut certs = Vec::new();
    let mut transits = Vec::new();
    let completion = &layout.completion;
    for ve in completion.virtual_edges() {
        let (u, v) = completion.graph.endpoints(ve);
        let built = bg
            .edge_between(u, v)
            .ok_or_else(|| internal("a virtual edge is missing from the built graph"))?;
        let start = certs.len();
        fr.write_cert(&mut w, built, &mut chain)?;
        let bits = w.flush_into(&mut certs);
        let path = layout
            .embedding
            .path(ve)
            .ok_or_else(|| internal("a virtual edge has no embedding path"))?;
        let Some(&first) = path.first() else {
            return Err(internal("an embedding path is empty"));
        };
        let hops = path.len() - 1;
        // Orient the path from the smaller-id endpoint (the cert's `a`).
        let forward = fr.id(first) == fr.id(u).min(fr.id(v));
        let at = |i: usize| if forward { path[i] } else { path[hops - i] };
        for idx in 0..hops {
            let real = network
                .edge_between(at(idx), at(idx + 1))
                .ok_or_else(|| internal("an embedding path leaves the network"))?;
            transits.push(Transit {
                edge: real.index(),
                start,
                bits,
                rank_fwd: (idx + 1) as u32,
                rank_bwd: (hops - idx) as u32,
            });
        }
    }
    // Stable: each edge keeps its transits in (virtual edge, hop) order.
    transits.sort_by_key(|t| t.edge);

    // Per network edge: own certificate, transit count, transits.
    let mut labels = EncodedLabeling::default();
    let mut from = 0;
    for (eid, e) in network.edges() {
        let built = bg
            .edge_between(e.u, e.v)
            .ok_or_else(|| internal("a network edge is missing from the built graph"))?;
        fr.write_cert(&mut w, built, &mut chain)?;
        let to = from
            + transits[from..]
                .iter()
                .take_while(|t| t.edge == eid.index())
                .count();
        let mine = &transits[from..to];
        from = to;
        mine.len().enc(&mut w);
        for t in mine {
            t.rank_fwd.enc(&mut w);
            t.rank_bwd.enc(&mut w);
            w.append_bits(&certs[t.start..], t.bits);
        }
        labels.push_flushed(&mut w)?;
    }
    Ok(labels)
}

impl<'a> Frames<'a> {
    fn id(&self, v: VertexId) -> u64 {
        self.cfg.id_of(v)
    }

    /// Canonical wire id of a summary's class. Total tables resolve by
    /// content; a miss means the class space outran the freeze budget —
    /// surfaced as an internal error, never a bogus label. Sealed tables
    /// intern on demand, in call order, and cannot miss.
    fn wire_class(&self, s: &Summary) -> Result<u32, CertError> {
        self.alg.intern(&s.class).map(|id| id.0).ok_or_else(|| {
            CertError::Internal(format!(
                "class of arity {} missing from the total canonical table ({} states, cap {})",
                s.class.arity(),
                self.alg.canonical_state_count(),
                self.alg.max_arity(),
            ))
        })
    }

    /// Realized summaries of every hierarchy node, and of every T-node
    /// member's merge subtree, in one pass over node ids. Children have
    /// smaller ids than their parents, and a member's merge-tree parent a
    /// smaller index than the member, so every input is ready when read.
    fn summarize(&mut self) -> Result<(), String> {
        let h: &'a Hierarchy = &self.layout.hierarchy;
        for (id, node) in h.nodes.iter().enumerate() {
            let mut subtrees = Vec::new();
            let out = match node.kind {
                NodeKind::V { lane, vertex } => summary::base_v(self.alg, lane, self.id(vertex)),
                NodeKind::E {
                    lane,
                    tin,
                    tout,
                    edge,
                } => summary::base_e(
                    self.alg,
                    lane,
                    self.id(tin),
                    self.id(tout),
                    self.marked[edge.index()],
                )?,
                NodeKind::P {
                    ref vertices,
                    ref edges,
                } => {
                    let ids: Vec<u64> = vertices.iter().map(|&v| self.id(v)).collect();
                    let marks: Vec<bool> = edges.iter().map(|e| self.marked[e.index()]).collect();
                    summary::base_p(self.alg, &ids, &marks)?
                }
                NodeKind::B {
                    i,
                    j,
                    left,
                    right,
                    bridge,
                } => summary::bridge(
                    self.alg,
                    &self.summaries[left],
                    &self.summaries[right],
                    i,
                    j,
                    self.marked[bridge.index()],
                )?,
                NodeKind::T { ref members, .. } => {
                    // `Tree-merge(T_m)` per member, highest index first:
                    // children follow their parent, so each child's
                    // subtree is final when it is folded in.
                    subtrees = members.iter().map(|&m| self.summaries[m].clone()).collect();
                    for m_idx in (0..members.len()).rev() {
                        for &c in &self.kids[id][m_idx] {
                            subtrees[m_idx] =
                                summary::parent(self.alg, &subtrees[c], &subtrees[m_idx])?;
                        }
                    }
                    subtrees.first().cloned().ok_or("a T-node has no members")?
                }
            };
            self.summaries.push(out);
            self.member_subtree.push(subtrees);
        }
        Ok(())
    }

    /// Chooses pointer roots and computes BFS distances inside each
    /// T-node's realized subgraph. Each search runs over the T-node's own
    /// realized edges, so the total cost is the summed size of the
    /// realized subgraphs, not `O(n)` per T-node.
    fn pointers(&mut self) -> Result<(), CertError> {
        let h = &self.layout.hierarchy;
        let realized = h.realized();
        let bg = &self.layout.construction.graph;
        self.t_pointers = h.nodes.iter().map(|_| None).collect();
        for (id, node) in h.nodes.iter().enumerate() {
            let NodeKind::T { members, .. } = &node.kind else {
                continue;
            };
            let root = members
                .first()
                .and_then(|&m| realized[m].0.iter().next().copied())
                .ok_or_else(|| internal("a T-node's root member realizes no vertex"))?;
            let (vertices, edges) = &realized[id];
            let vertices: Vec<VertexId> = vertices.iter().copied().collect();
            let at = |v: VertexId| {
                vertices
                    .binary_search(&v)
                    .map_err(|_| internal("a realized edge has an unrealized endpoint"))
            };
            let local_edges = edges
                .iter()
                .map(|&e| {
                    let (a, b) = bg.endpoints(e);
                    Ok((at(a)?, at(b)?))
                })
                .collect::<Result<Vec<_>, CertError>>()?;
            let local = Graph::from_edges(vertices.len(), local_edges)
                .map_err(|e| internal(&format!("realized edges do not form a graph: {e}")))?;
            let dist = traversal::bfs(&local, VertexId::new(at(root)?)).dist;
            self.t_pointers[id] = Some(Pointers {
                root,
                vertices,
                dist,
            });
        }
        Ok(())
    }

    /// The pointers of T-node `t`.
    fn pointers_of(&self, t: NodeId) -> Result<&Pointers, CertError> {
        self.t_pointers[t]
            .as_ref()
            .ok_or_else(|| internal("a T frame names a node without pointers"))
    }

    /// Encodes `frame`'s template (see [`CertWriter::template`]) as a
    /// new slot below `parent`.
    fn push_slot(&mut self, parent: Option<u32>, frame: &FrameLbl) -> u32 {
        let start = self.arena.len();
        self.cw.template(&mut self.w, frame);
        let bits = self.w.flush_into(&mut self.arena);
        let t_node = match frame {
            FrameLbl::T(t) => Some(t.t_node as NodeId),
            _ => None,
        };
        self.slots.push(Slot {
            parent,
            start,
            bits,
            t_node,
        });
        (self.slots.len() - 1) as u32
    }

    /// DFS encoding the frame templates into slots and recording each
    /// owned edge's innermost slot. Recursive, but only as deep as the
    /// hierarchy, which Observation 5.5 bounds by `2k`. Sealed tables
    /// intern classes in call order, so [`Frames::wire_class`] runs in a
    /// fixed order: depth-first from the root; at a `B` node the left
    /// side, then the right; at a `T` member its children, then its
    /// subtree.
    fn walk(&mut self, node: NodeId, parent: Option<u32>) -> Result<(), CertError> {
        let h: &'a Hierarchy = &self.layout.hierarchy;
        // Every slot below `parent` is written after the ids of its
        // ancestors only: each rewinds what its sibling before it saw.
        let mark = self.cw.mark();
        match h.nodes[node].kind {
            NodeKind::V { .. } => {}
            NodeKind::E {
                lane,
                tin,
                tout,
                edge,
            } => {
                let frame = FrameLbl::E(EFrameLbl {
                    node: node as u32,
                    lane: lane as u8,
                    tin: self.id(tin),
                    tout: self.id(tout),
                });
                self.edge_slot[edge.index()] = Some(self.push_slot(parent, &frame));
                self.cw.rewind(mark);
            }
            NodeKind::P {
                ref vertices,
                ref edges,
            } => {
                let ids: Vec<u64> = vertices.iter().map(|&v| self.id(v)).collect();
                let marks: Vec<bool> = edges.iter().map(|e| self.marked[e.index()]).collect();
                for (pos, e) in edges.iter().enumerate() {
                    let frame = FrameLbl::P(PFrameLbl {
                        node: node as u32,
                        ids: ids.as_slice().into(),
                        marks: marks.as_slice().into(),
                        pos: pos as u16,
                    });
                    self.edge_slot[e.index()] = Some(self.push_slot(parent, &frame));
                    self.cw.rewind(mark);
                }
            }
            NodeKind::B {
                i,
                j,
                left,
                right,
                bridge,
            } => {
                let info = |fr: &Self, side: NodeId| -> Result<BasicInfoLbl, CertError> {
                    let s = &fr.summaries[side];
                    Ok(BasicInfoLbl {
                        node: side as u32,
                        class: fr.wire_class(s)?,
                        iface: s.iface.clone(),
                    })
                };
                let mut frame = BFrameLbl {
                    node: node as u32,
                    i: i as u8,
                    j: j as u8,
                    left_is_v: matches!(h.nodes[left].kind, NodeKind::V { .. }),
                    right_is_v: matches!(h.nodes[right].kind, NodeKind::V { .. }),
                    left: info(self, left)?,
                    right: info(self, right)?,
                    bridge_marked: self.marked[bridge.index()],
                    side: 0,
                };
                let slot = self.push_slot(parent, &FrameLbl::B(frame.clone()));
                self.edge_slot[bridge.index()] = Some(slot);
                self.cw.rewind(mark);
                for (side, child) in [(1u8, left), (2u8, right)] {
                    if matches!(h.nodes[child].kind, NodeKind::V { .. }) {
                        continue;
                    }
                    frame.side = side;
                    let slot = self.push_slot(parent, &FrameLbl::B(frame.clone()));
                    self.walk(child, Some(slot))?;
                    self.cw.rewind(mark);
                }
            }
            NodeKind::T { ref members, .. } => {
                let root_vertex = self.id(self.pointers_of(node)?.root);
                let kids: &'a [Vec<usize>] = &self.kids[node];
                for (idx, &m) in members.iter().enumerate() {
                    let subtrees = &self.member_subtree[node];
                    let sub = &subtrees[idx];
                    let mut children = Vec::with_capacity(kids[idx].len());
                    for &c in &kids[idx] {
                        let s = &subtrees[c];
                        children.push(BasicInfoLbl {
                            node: members[c] as u32,
                            class: self.wire_class(s)?,
                            iface: s.iface.clone(),
                        });
                    }
                    let frame = FrameLbl::T(TFrameLbl {
                        t_node: node as u32,
                        member: m as u32,
                        subtree: BasicInfoLbl {
                            node: m as u32,
                            class: self.wire_class(sub)?,
                            iface: sub.iface.clone(),
                        },
                        children,
                        is_root_member: idx == 0,
                        root_vertex,
                        // Not encoded: templates stop before them.
                        d_a: 0,
                        d_b: 0,
                    });
                    let slot = self.push_slot(parent, &frame);
                    self.walk(m, Some(slot))?;
                    self.cw.rewind(mark);
                }
            }
        }
        Ok(())
    }

    /// Writes the certificate of built-graph edge `edge` into `w`: the
    /// endpoint ids ordered, the mark, the frame count, then the slot
    /// templates root-first, each `T` template followed by the pointer
    /// distances of both endpoints. `chain` is scratch.
    fn write_cert(
        &self,
        w: &mut BitWriter,
        edge: EdgeId,
        chain: &mut Vec<u32>,
    ) -> Result<(), CertError> {
        let (mut a, mut b) = self.layout.construction.graph.endpoints(edge);
        if self.id(a) > self.id(b) {
            std::mem::swap(&mut a, &mut b);
        }
        chain.clear();
        let mut at = self.edge_slot[edge.index()];
        while let Some(s) = at {
            chain.push(s);
            at = self.slots[s as usize].parent;
        }
        if chain.is_empty() {
            return Err(internal("a built edge has no frames"));
        }
        self.id(a).enc(w);
        self.id(b).enc(w);
        self.marked[edge.index()].enc(w);
        chain.len().enc(w);
        for &s in chain.iter().rev() {
            let slot = &self.slots[s as usize];
            w.append_bits(&self.arena[slot.start..], slot.bits);
            if let Some(t) = slot.t_node {
                let pointers = self.pointers_of(t)?;
                pointers.dist(a).enc(w);
                pointers.dist(b).enc(w);
            }
        }
        Ok(())
    }
}
