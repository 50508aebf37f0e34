//! The certificate assignment (the centralized prover of Theorem 1).

use lanecert_algebra::FrozenAlgebra;
use lanecert_graph::{traversal, EdgeId, Graph, VertexId};
use lanecert_lanes::{Hierarchy, Layout, NodeId, NodeKind};

use super::labels::*;
use super::summary::{self, Summary};
use crate::{CertError, Configuration};

/// Per-edge frame templates plus the global summaries — everything needed
/// to materialize [`EdgeLabel`]s.
pub(super) struct ProverOutput {
    /// One label per edge of the *network* graph.
    pub labels: Vec<EdgeLabel>,
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
    edge_frames: Vec<Vec<FrameLbl>>,   // per built-graph edge (d_* = 0 placeholders)
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

pub(super) fn build_labels(
    alg: &FrozenAlgebra,
    cfg: &Configuration,
    layout: &Layout,
) -> Result<ProverOutput, CertError> {
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
        edge_frames: vec![Vec::new(); bg.edge_count()],
    };
    fr.summarize().map_err(CertError::Internal)?;
    if !alg.accept(&fr.summaries[layout.hierarchy.root].class) {
        return Err(CertError::PropertyViolated);
    }
    fr.pointers();
    let mut chain = Vec::new();
    fr.walk(layout.hierarchy.root, &mut chain)
        .map_err(CertError::Internal)?;
    debug_assert!(fr.edge_frames.iter().all(|f| !f.is_empty()));

    // Materialize completion-edge certificates.
    let certs: Vec<EdgeCertLbl> = bg
        .edges()
        .map(|(eid, e)| fr.materialize(eid, e.u, e.v))
        .collect();

    // Per network edge: own certificate + transits of virtual edges.
    let mut labels: Vec<EdgeLabel> = cfg
        .graph()
        .edges()
        .map(|(_, e)| {
            let built = bg
                .edge_between(e.u, e.v)
                .expect("every network edge is a completion edge");
            EdgeLabel {
                own: certs[built.index()].clone(),
                transits: Vec::new(),
            }
        })
        .collect();
    let completion = &layout.completion;
    for ve in completion.virtual_edges() {
        let (u, v) = completion.graph.endpoints(ve);
        let built = bg
            .edge_between(u, v)
            .expect("virtual edge exists in built graph");
        let cert = certs[built.index()].clone();
        let path = layout
            .embedding
            .path(ve)
            .expect("embedding covers all virtual edges");
        // Orient the path from the smaller-id endpoint (cert.a).
        let path: Vec<VertexId> = if cfg.id_of(path[0]) == cert.a {
            path.to_vec()
        } else {
            path.iter().rev().copied().collect()
        };
        let hops = path.len() - 1;
        for (idx, w) in path.windows(2).enumerate() {
            let real = cfg
                .graph()
                .edge_between(w[0], w[1])
                .expect("embedding paths follow network edges");
            labels[real.index()].transits.push(TransitLbl {
                rank_fwd: (idx + 1) as u32,
                rank_bwd: (hops - idx) as u32,
                cert: cert.clone(),
            });
        }
    }
    Ok(ProverOutput { labels })
}

impl<'a> Frames<'a> {
    fn id(&self, v: VertexId) -> u64 {
        self.cfg.id_of(v)
    }

    /// Canonical wire id of a summary's class. Total tables resolve by
    /// content; a miss means the class space outran the freeze budget —
    /// surfaced as an internal error, never a bogus label. Sealed tables
    /// intern on demand and cannot miss.
    fn wire_class(&self, s: &Summary) -> Result<u32, String> {
        self.alg.intern(&s.class).map(|id| id.0).ok_or_else(|| {
            format!(
                "class of arity {} missing from the total canonical table ({} states, cap {})",
                s.class.arity(),
                self.alg.canonical_state_count(),
                self.alg.max_arity(),
            )
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
                    subtrees[0].clone()
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
    fn pointers(&mut self) {
        let h = &self.layout.hierarchy;
        let realized = h.realized();
        let bg = &self.layout.construction.graph;
        self.t_pointers = h.nodes.iter().map(|_| None).collect();
        for (id, node) in h.nodes.iter().enumerate() {
            let NodeKind::T { members, .. } = &node.kind else {
                continue;
            };
            let (rv, _) = &realized[members[0]];
            let root = *rv.iter().next().expect("root member has a vertex");
            let (vertices, edges) = &realized[id];
            let vertices: Vec<VertexId> = vertices.iter().copied().collect();
            let at = |v: VertexId| vertices.binary_search(&v).expect("endpoint is realized");
            let local = Graph::from_edges(
                vertices.len(),
                edges.iter().map(|&e| {
                    let (a, b) = bg.endpoints(e);
                    (at(a), at(b))
                }),
            )
            .expect("realized edges form a simple graph");
            let dist = traversal::bfs(&local, VertexId::new(at(root))).dist;
            self.t_pointers[id] = Some(Pointers {
                root,
                vertices,
                dist,
            });
        }
    }

    /// The pointers of T-node `t`.
    fn pointers_of(&self, t: NodeId) -> &Pointers {
        self.t_pointers[t].as_ref().expect("T-node pointers")
    }

    /// DFS assigning frame templates to owned edges. Recursive, but only
    /// as deep as the hierarchy, which Observation 5.5 bounds by `2k`.
    fn walk(&mut self, node: NodeId, chain: &mut Vec<FrameLbl>) -> Result<(), String> {
        let h: &'a Hierarchy = &self.layout.hierarchy;
        match h.nodes[node].kind {
            NodeKind::V { .. } => {}
            NodeKind::E {
                lane,
                tin,
                tout,
                edge,
            } => {
                let mut frames = chain.clone();
                frames.push(FrameLbl::E(EFrameLbl {
                    node: node as u32,
                    lane: lane as u8,
                    tin: self.id(tin),
                    tout: self.id(tout),
                }));
                self.edge_frames[edge.index()] = frames;
            }
            NodeKind::P {
                ref vertices,
                ref edges,
            } => {
                let ids: Vec<u64> = vertices.iter().map(|&v| self.id(v)).collect();
                let marks: Vec<bool> = edges.iter().map(|e| self.marked[e.index()]).collect();
                for (pos, e) in edges.iter().enumerate() {
                    let mut frames = chain.clone();
                    frames.push(FrameLbl::P(PFrameLbl {
                        node: node as u32,
                        ids: ids.as_slice().into(),
                        marks: marks.as_slice().into(),
                        pos: pos as u16,
                    }));
                    self.edge_frames[e.index()] = frames;
                }
            }
            NodeKind::B {
                i,
                j,
                left,
                right,
                bridge,
            } => {
                let info = |fr: &Self, side: NodeId| -> Result<BasicInfoLbl, String> {
                    let s = &fr.summaries[side];
                    Ok(BasicInfoLbl {
                        node: side as u32,
                        class: fr.wire_class(s)?,
                        iface: s.iface.to_lbl(),
                    })
                };
                let left_info = info(self, left)?;
                let right_info = info(self, right)?;
                let bridge_marked = self.marked[bridge.index()];
                let template = |side: u8| {
                    FrameLbl::B(BFrameLbl {
                        node: node as u32,
                        i: i as u8,
                        j: j as u8,
                        left_is_v: matches!(h.nodes[left].kind, NodeKind::V { .. }),
                        right_is_v: matches!(h.nodes[right].kind, NodeKind::V { .. }),
                        left: left_info.clone(),
                        right: right_info.clone(),
                        bridge_marked,
                        side,
                    })
                };
                let mut frames = chain.clone();
                frames.push(template(0));
                self.edge_frames[bridge.index()] = frames;
                for (side_no, child) in [(1u8, left), (2u8, right)] {
                    if matches!(h.nodes[child].kind, NodeKind::V { .. }) {
                        continue;
                    }
                    chain.push(template(side_no));
                    self.walk(child, chain)?;
                    chain.pop();
                }
            }
            NodeKind::T { ref members, .. } => {
                let root_vertex = self.id(self.pointers_of(node).root);
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
                            iface: s.iface.to_lbl(),
                        });
                    }
                    chain.push(FrameLbl::T(TFrameLbl {
                        t_node: node as u32,
                        member: m as u32,
                        subtree: BasicInfoLbl {
                            node: m as u32,
                            class: self.wire_class(sub)?,
                            iface: sub.iface.to_lbl(),
                        },
                        children,
                        is_root_member: idx == 0,
                        root_vertex,
                        d_a: 0,
                        d_b: 0,
                    }));
                    self.walk(m, chain)?;
                    chain.pop();
                }
            }
        }
        Ok(())
    }

    /// Fills per-edge fields (endpoint ids ordered, pointer distances),
    /// moving the edge's frame templates out.
    fn materialize(&mut self, edge: EdgeId, u: VertexId, v: VertexId) -> EdgeCertLbl {
        let (mut a, mut b) = (u, v);
        if self.id(a) > self.id(b) {
            std::mem::swap(&mut a, &mut b);
        }
        let mut frames = std::mem::take(&mut self.edge_frames[edge.index()]);
        for f in frames.iter_mut() {
            if let FrameLbl::T(t) = f {
                let pointers = self.pointers_of(t.t_node as usize);
                t.d_a = pointers.dist(a);
                t.d_b = pointers.dist(b);
            }
        }
        EdgeCertLbl {
            a: self.id(a),
            b: self.id(b),
            marked: self.marked[edge.index()],
            frames,
        }
    }
}
