//! Proposition 2.2: certify that a vertex with a given identifier exists,
//! with `O(log n)`-bit edge labels.
//!
//! Our variant stores, on each edge, the target identifier plus the BFS
//! distances of *both* endpoints from the target. Soundness follows from
//! the decreasing-distance argument: if every vertex at distance `d > 0`
//! has an incident edge whose far side is at distance `d − 1`, then chains
//! of strictly decreasing distances terminate at a vertex claiming distance
//! 0, which must carry the target identifier — and identifiers are unique,
//! so every connected region containing such labels contains *the* target.
//!
//! The same sub-labels anchor the `T`-node frames of the Theorem 1 scheme:
//! each `T` frame carries its root vertex and both endpoint distances, and
//! the Theorem 1 verifier applies `check_distances`, the rule
//! [`verify_at`] applies here, to every `T`-node group.

use lanecert_graph::traversal;

use crate::bits::{BitReader, BitWriter, Enc};
use crate::scheme::{Verdict, VertexView};
use crate::{CertError, Configuration};

/// The per-edge label: target id plus endpoint distances, stored in
/// ascending-endpoint-id order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointerLabel {
    /// The identifier whose existence is certified.
    pub target: u64,
    /// Identifier of the smaller-id endpoint.
    pub id_lo: u64,
    /// Distance of `id_lo` from the target.
    pub d_lo: u32,
    /// Identifier of the larger-id endpoint.
    pub id_hi: u64,
    /// Distance of `id_hi` from the target.
    pub d_hi: u32,
}

impl Enc for PointerLabel {
    fn enc(&self, w: &mut BitWriter) {
        self.target.enc(w);
        self.id_lo.enc(w);
        self.d_lo.enc(w);
        self.id_hi.enc(w);
        self.d_hi.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(PointerLabel {
            target: u64::dec(r)?,
            id_lo: u64::dec(r)?,
            d_lo: u32::dec(r)?,
            id_hi: u64::dec(r)?,
            d_hi: u32::dec(r)?,
        })
    }
}

/// Honest prover: BFS distances from `target`.
///
/// # Errors
///
/// [`CertError::InvalidSpec`] if no vertex carries `target`, and
/// [`CertError::Disconnected`] if the graph is disconnected.
pub fn prove(cfg: &Configuration, target: u64) -> Result<Vec<PointerLabel>, CertError> {
    let v = cfg
        .vertex_of(target)
        .ok_or_else(|| CertError::InvalidSpec(format!("no vertex has the target id {target}")))?;
    let tree = traversal::bfs(cfg.graph(), v);
    cfg.graph()
        .edges()
        .map(|(_, e)| {
            let (mut a, mut b) = (e.u, e.v);
            if cfg.id_of(a) > cfg.id_of(b) {
                std::mem::swap(&mut a, &mut b);
            }
            if !(tree.reached(a) && tree.reached(b)) {
                return Err(CertError::Disconnected);
            }
            Ok(PointerLabel {
                target,
                id_lo: cfg.id_of(a),
                d_lo: tree.dist[a.index()],
                id_hi: cfg.id_of(b),
                d_hi: tree.dist[b.index()],
            })
        })
        .collect()
}

/// The decreasing-distance rule of Proposition 2.2 at one vertex.
///
/// `edges` yields, per incident edge, this vertex's distance and the far
/// endpoint's as that edge's label claims them, or the caller's own
/// rejection of the label; `is_target` says whether this vertex carries
/// the target identifier. The rule: one distance across all incident
/// edges, no jump greater than 1 across an edge, a neighbour at `d − 1`
/// whenever `d > 0`, and distance 0 only at the target.
///
/// # Errors
///
/// The caller's first rejection, or the first broken rule.
pub(crate) fn check_distances<E: From<&'static str>>(
    edges: impl IntoIterator<Item = Result<(u32, u32), E>>,
    is_target: bool,
) -> Result<(), E> {
    let mut my_dist: Option<u32> = None;
    let mut has_parent = false;
    for edge in edges {
        let (mine, other) = edge?;
        if *my_dist.get_or_insert(mine) != mine {
            return Err("inconsistent own distance".into());
        }
        if mine.abs_diff(other) > 1 {
            return Err("distance jump across an edge".into());
        }
        has_parent |= other.checked_add(1) == Some(mine);
    }
    match my_dist {
        Some(0) if !is_target => Err("claims distance 0 but wrong id".into()),
        Some(d) if d > 0 && !has_parent => Err("no decreasing neighbour".into()),
        _ => Ok(()),
    }
}

/// Local verification at one vertex.
pub fn verify_at(view: &VertexView<PointerLabel>) -> Verdict {
    // Every label must name this target; the first decodable one sets it.
    let target = view.incident.iter().flatten().next().map(|l| l.target);
    let edges = view.incident.iter().map(|label| {
        let l = label.as_ref().ok_or("undecodable pointer label")?;
        if Some(l.target) != target {
            return Err("inconsistent target id");
        }
        if l.id_lo == view.id {
            Ok((l.d_lo, l.d_hi))
        } else if l.id_hi == view.id {
            Ok((l.d_hi, l.d_lo))
        } else {
            Err("edge label does not mention me")
        }
    });
    match check_distances(edges, target == Some(view.id)) {
        Ok(()) => Verdict::Accept,
        Err(reason) => Verdict::reject(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::run_edge_scheme;
    use lanecert_graph::{generators, VertexId};

    #[test]
    fn completeness_on_families() {
        for g in [
            generators::path_graph(8),
            generators::cycle_graph(7),
            generators::star(6),
            generators::grid(3, 3),
        ] {
            let cfg = Configuration::with_random_ids(g, 3);
            let target = cfg.id_of(VertexId(2));
            let labels = prove(&cfg, target).unwrap();
            let report = run_edge_scheme(&cfg, &labels, verify_at).unwrap();
            assert!(report.accepted(), "{:?}", report.first_rejection());
        }
    }

    #[test]
    fn soundness_nonexistent_target() {
        // Claim an id that exists nowhere: shift all labels' target.
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(6));
        let mut labels = prove(&cfg, 0).unwrap();
        for l in &mut labels {
            l.target = 999; // nobody has this id; distance-0 vertex lies
        }
        let report = run_edge_scheme(&cfg, &labels, verify_at).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn soundness_broken_gradient() {
        let cfg = Configuration::with_sequential_ids(generators::path_graph(6));
        let mut labels = prove(&cfg, 0).unwrap();
        // Lift every distance by 1: no vertex has distance 0... but then
        // someone lacks a decreasing neighbour.
        for l in &mut labels {
            l.d_lo += 1;
            l.d_hi += 1;
        }
        let report = run_edge_scheme(&cfg, &labels, verify_at).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn label_size_is_logarithmic() {
        let g = generators::path_graph(1024);
        let cfg = Configuration::with_sequential_ids(g);
        let labels = prove(&cfg, 0).unwrap();
        let report = run_edge_scheme(&cfg, &labels, verify_at).unwrap();
        assert!(report.accepted());
        // ids ≤ n, distances ≤ n: a handful of varints.
        assert!(report.max_label_bits < 200);
    }
}
