//! Proposition 2.1: turning an `f(n)`-bit edge-labeling scheme into an
//! `O(d · f(n))`-bit vertex-labeling scheme along a bounded-outdegree
//! acyclic orientation, in the **port-numbering model**.
//!
//! Each vertex stores, per out-edge, a claim `(port, owner id, other id,
//! label bytes)`. A vertex inspects, for each of its ports, its own claim
//! for that port together with the claims *targeting it* inside the label
//! received on that port, and requires **exactly one** claim per port. This
//! two-sided discipline makes fabricating or hiding edges locally
//! detectable (see DESIGN.md for the discussion of why the bare id-matching
//! reconstruction is not sound without ports).

use lanecert_graph::{degeneracy, VertexId};

use crate::bits::{self, BitReader, BitWriter, Enc};
use crate::scheme::{Verdict, VertexView};
use crate::Configuration;

/// One out-edge claim inside a vertex label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeClaim {
    /// The owner's local port of this edge.
    pub port: u16,
    /// The owner's identifier.
    pub owner: u64,
    /// The other endpoint's identifier.
    pub other: u64,
    /// The encoded edge label.
    pub payload: Vec<u8>,
}

/// A vertex label: claims for every out-edge of the orientation.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct VertexLabel {
    /// Out-edge claims.
    pub claims: Vec<EdgeClaim>,
}

impl Enc for EdgeClaim {
    fn enc(&self, w: &mut BitWriter) {
        self.port.enc(w);
        self.owner.enc(w);
        self.other.enc(w);
        self.payload.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            port: Enc::dec(r)?,
            owner: Enc::dec(r)?,
            other: Enc::dec(r)?,
            payload: Enc::dec(r)?,
        })
    }
}

impl Enc for VertexLabel {
    fn enc(&self, w: &mut BitWriter) {
        self.claims.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            claims: Enc::dec(r)?,
        })
    }
}

/// Moves edge labels onto vertices along a degeneracy orientation
/// (Proposition 2.1, prover side).
pub fn edge_to_vertex_labels<L: Enc>(cfg: &Configuration, edge_labels: &[L]) -> Vec<VertexLabel> {
    let g = cfg.graph();
    let orientation = degeneracy::degeneracy_orientation(g);
    let mut out = vec![VertexLabel::default(); g.vertex_count()];
    for v in g.vertices() {
        for (port, half) in g.incident(v).iter().enumerate() {
            if orientation.tail[half.edge.index()] == v {
                let (bytes, _) = bits::encode(&edge_labels[half.edge.index()]);
                out[v.index()].claims.push(EdgeClaim {
                    port: port as u16,
                    owner: cfg.id_of(v),
                    other: cfg.id_of(half.to),
                    payload: bytes,
                });
            }
        }
    }
    out
}

/// Reconstructs a vertex's incident edge labels from its own claims plus
/// the claims targeting it in its neighbours' labels (port model), then
/// hands the reconstructed edge view to `verify_edges`.
///
/// The harness supplies neighbour labels in port order, which is exactly
/// the information the port-numbering model grants.
pub fn verify_vertex_at<L: Enc, F>(
    cfg: &Configuration,
    v: VertexId,
    own: &VertexLabel,
    neighbor_labels: &[Option<VertexLabel>],
    verify_edges: F,
) -> Verdict
where
    F: FnOnce(&VertexView<L>) -> Verdict,
{
    let my_id = cfg.id_of(v);
    let deg = neighbor_labels.len();
    let mut incident: Vec<Option<L>> = Vec::with_capacity(deg);
    for (port, neighbor_label) in neighbor_labels.iter().enumerate() {
        // Claims from my side for this port.
        let mine: Vec<&EdgeClaim> = own
            .claims
            .iter()
            .filter(|c| c.port as usize == port)
            .collect();
        // Claims from the neighbour on this port targeting me.
        let theirs: Vec<&EdgeClaim> = match neighbor_label {
            Some(l) => l.claims.iter().filter(|c| c.other == my_id).collect(),
            None => return Verdict::reject("undecodable neighbour label"),
        };
        // NOTE: a neighbour with several edges to distinct same-id targets
        // cannot exist (ids are unique), so `theirs` has at most one honest
        // entry for the shared edge.
        match (mine.len(), theirs.len()) {
            (1, 0) => {
                if mine[0].owner != my_id {
                    return Verdict::reject("own claim with foreign owner");
                }
                match bits::decode::<L>(&mine[0].payload) {
                    Some(l) => incident.push(Some(l)),
                    None => return Verdict::reject("undecodable edge payload"),
                }
            }
            (0, 1) => match bits::decode::<L>(&theirs[0].payload) {
                Some(l) => incident.push(Some(l)),
                None => return Verdict::reject("undecodable edge payload"),
            },
            _ => return Verdict::reject("port does not carry exactly one claim"),
        }
    }
    let incident: Vec<Option<&L>> = incident.iter().map(Option::as_ref).collect();
    verify_edges(&VertexView {
        id: my_id,
        incident: &incident,
    })
}

/// Runs a vertex-label scheme end to end: measures vertex label sizes and
/// applies the port-model reconstruction + the edge verifier at every
/// vertex.
///
/// # Errors
///
/// [`crate::CertError::LabelCountMismatch`] if `vertex_labels` does not
/// have one label per vertex — adversarial truncations surface as an
/// error, never a panic.
pub fn run_vertex_scheme<L: Enc, F>(
    cfg: &Configuration,
    vertex_labels: &[VertexLabel],
    verify_edges: F,
) -> Result<crate::scheme::RunReport, crate::CertError>
where
    F: Fn(&VertexView<L>) -> Verdict,
{
    let g = cfg.graph();
    if vertex_labels.len() != g.vertex_count() {
        return Err(crate::CertError::LabelCountMismatch {
            expected: g.vertex_count(),
            got: vertex_labels.len(),
        });
    }
    let decoded: Vec<Option<VertexLabel>> = vertex_labels
        .iter()
        .map(|l| {
            let (bytes, _) = bits::encode(l);
            bits::decode::<VertexLabel>(&bytes)
        })
        .collect();
    let mut max_bits = 0;
    let mut total_bits = 0;
    for l in vertex_labels {
        let (_, bits_len) = bits::encode(l);
        max_bits = max_bits.max(bits_len);
        total_bits += bits_len;
    }
    let verdicts = g
        .vertices()
        .map(|v| {
            let Some(own) = decoded[v.index()].clone() else {
                return Verdict::reject("undecodable own label");
            };
            let neighbors: Vec<Option<VertexLabel>> = g
                .incident(v)
                .iter()
                .map(|h| decoded[h.to.index()].clone())
                .collect();
            verify_vertex_at(cfg, v, &own, &neighbors, |view| verify_edges(view))
        })
        .collect();
    Ok(crate::scheme::RunReport {
        verdicts,
        max_label_bits: max_bits,
        total_label_bits: total_bits,
        // Labels live on vertices here, so the report's labeled-object
        // count (and avg_label_bits denominator) is the vertex count.
        edges: vertex_labels.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointer;
    use lanecert_graph::generators;

    #[test]
    fn pointer_scheme_survives_the_transform() {
        let cfg = Configuration::with_random_ids(generators::grid(3, 4), 8);
        let target = cfg.id_of(VertexId(5));
        let edge_labels = pointer::prove(&cfg, target).unwrap();
        let vertex_labels = edge_to_vertex_labels(&cfg, &edge_labels);
        let report = run_vertex_scheme(&cfg, &vertex_labels, pointer::verify_at).unwrap();
        assert!(report.accepted(), "{:?}", report.first_rejection());
    }

    #[test]
    fn hiding_an_edge_is_detected() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(6));
        let edge_labels = pointer::prove(&cfg, 0).unwrap();
        let mut vertex_labels = edge_to_vertex_labels(&cfg, &edge_labels);
        // Remove one claim: some port loses its unique claim.
        let victim = vertex_labels
            .iter_mut()
            .find(|l| !l.claims.is_empty())
            .unwrap();
        victim.claims.pop();
        let report = run_vertex_scheme(&cfg, &vertex_labels, pointer::verify_at).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn fabricating_an_edge_is_detected() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(6));
        let edge_labels = pointer::prove(&cfg, 0).unwrap();
        let mut vertex_labels = edge_to_vertex_labels(&cfg, &edge_labels);
        // Duplicate a claim on the same port: double-claimed port.
        let victim = vertex_labels
            .iter_mut()
            .find(|l| !l.claims.is_empty())
            .unwrap();
        let extra = victim.claims[0].clone();
        victim.claims.push(extra);
        let report = run_vertex_scheme(&cfg, &vertex_labels, pointer::verify_at).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn truncated_vertex_labeling_is_an_error_not_a_panic() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(6));
        let edge_labels = pointer::prove(&cfg, 0).unwrap();
        let mut vertex_labels = edge_to_vertex_labels(&cfg, &edge_labels);
        vertex_labels.pop();
        let err =
            run_vertex_scheme::<pointer::PointerLabel, _>(&cfg, &vertex_labels, pointer::verify_at)
                .unwrap_err();
        assert_eq!(
            err,
            crate::CertError::LabelCountMismatch {
                expected: 6,
                got: 5
            }
        );
    }

    #[test]
    fn vertex_labels_stay_small_on_sparse_graphs() {
        let cfg = Configuration::with_sequential_ids(generators::caterpillar(30, 2));
        let edge_labels = pointer::prove(&cfg, 0).unwrap();
        let vertex_labels = edge_to_vertex_labels(&cfg, &edge_labels);
        let report = run_vertex_scheme(&cfg, &vertex_labels, pointer::verify_at).unwrap();
        assert!(report.accepted());
        // 1-degenerate graph: at most one claim per vertex.
        assert!(vertex_labels.iter().all(|l| l.claims.len() <= 1));
    }
}
