//! Small classic schemes behind the unified [`Scheme`] trait: the paper's
//! 1-bit bipartiteness example ([`BipartiteScheme`], registry name
//! [`crate::registry::BIPARTITE_1BIT`]) and the trivial whole-graph
//! scheme ([`WholeGraphScheme`], registry name
//! [`crate::registry::WHOLE_GRAPH`]). Both serve as reference points in
//! the experiment tables.

use std::sync::Arc;

use lanecert_algebra::SharedAlgebra;

use crate::bits::{BitReader, BitWriter, Enc};
use crate::scheme::{ProverHint, Scheme, Verdict, VertexView};
use crate::{CertError, Configuration};

/// The 1-bit bipartiteness label: the colour of the edge's smaller-id
/// endpoint (the other endpoint's colour is its negation on a properly
/// coloured edge, so one bit plus the endpoint ids suffices — we keep just
/// the two colours to stay at two bits and avoid id overhead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartiteLabel {
    /// Colour of endpoint `u` (insertion order).
    pub cu: bool,
    /// Colour of endpoint `v`.
    pub cv: bool,
}

impl Enc for BipartiteLabel {
    fn enc(&self, w: &mut BitWriter) {
        self.cu.enc(w);
        self.cv.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            cu: Enc::dec(r)?,
            cv: Enc::dec(r)?,
        })
    }
}

/// The paper's introductory 1-bit bipartiteness scheme.
///
/// The honest prover BFS-2-colours the graph and refuses non-bipartite
/// inputs with [`CertError::PropertyViolated`]; the verifier checks local
/// colour consistency. Needs no decomposition, so the [`ProverHint`] is
/// ignored.
#[derive(Clone, Copy, Debug, Default)]
pub struct BipartiteScheme;

impl Scheme for BipartiteScheme {
    type Label = BipartiteLabel;

    fn name(&self) -> String {
        "bipartite-1bit".into()
    }

    fn prove(
        &self,
        cfg: &Configuration,
        _hint: &ProverHint,
    ) -> Result<Vec<BipartiteLabel>, CertError> {
        let g = cfg.graph();
        let mut color = vec![None::<bool>; g.vertex_count()];
        for s in g.vertices() {
            if color[s.index()].is_some() {
                continue;
            }
            color[s.index()] = Some(false);
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                let cv = color[v.index()].unwrap();
                for w in g.neighbors(v) {
                    match color[w.index()] {
                        None => {
                            color[w.index()] = Some(!cv);
                            queue.push_back(w);
                        }
                        Some(cw) if cw == cv => return Err(CertError::PropertyViolated),
                        _ => {}
                    }
                }
            }
        }
        Ok(g.edges()
            .map(|(_, e)| BipartiteLabel {
                cu: color[e.u.index()].unwrap(),
                cv: color[e.v.index()].unwrap(),
            })
            .collect())
    }

    /// Every incident edge must carry two distinct colours, and the colour
    /// on my side must be the same across my edges. (Which side is "mine"
    /// is resolved by consistency: there must exist a colour `c` such that
    /// every incident edge has one endpoint coloured `c` and the other
    /// `!c`.)
    fn verify_at(&self, view: &VertexView<BipartiteLabel>) -> Verdict {
        if view.incident.is_empty() {
            return Verdict::Accept; // K1
        }
        for c in [false, true] {
            let ok = view.incident.iter().all(|l| match l {
                Some(l) => l.cu != l.cv && (l.cu == c || l.cv == c),
                None => false,
            });
            if ok {
                return Verdict::Accept;
            }
        }
        Verdict::reject("no consistent 2-colouring locally")
    }
}

/// The trivial scheme's label: every edge carries the entire configuration
/// (vertex ids + edge list), `O((n + m) log n)` bits, plus the index of
/// the claimed edge this label physically sits on. The index ties each
/// claimed edge to a real edge at both endpoints, so a claim cannot
/// re-route edges among the real vertices (see
/// [`WholeGraphScheme::verify_at`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WholeGraphLabel {
    /// All vertex identifiers.
    pub ids: Vec<u64>,
    /// All edges as id pairs.
    pub edges: Vec<(u64, u64)>,
    /// Index into `edges` of the claimed edge carried by this label.
    pub edge_index: u64,
}

impl Enc for WholeGraphLabel {
    fn enc(&self, w: &mut BitWriter) {
        self.ids.enc(w);
        self.edges.enc(w);
        self.edge_index.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            ids: Enc::dec(r)?,
            edges: Enc::dec(r)?,
            edge_index: Enc::dec(r)?,
        })
    }
}

/// A global predicate on the claimed graph, shared by clones of the
/// scheme.
pub type WholeGraphPredicate = Arc<dyn Fn(&WholeGraphLabel) -> bool + Send + Sync>;

/// The trivial whole-graph scheme, with `Θ((n + m) log n)`-bit labels —
/// the size yardstick of table T1.
///
/// Each vertex checks that all its incident labels agree on the claim,
/// that the edge-index tags on its incident edges are exactly the claimed
/// edges at its identifier (binding the claimed edge set over the real
/// vertices to the physical edge set), that no claimed vertex is
/// edge-less, and that the caller-supplied global predicate holds on the
/// claimed graph.
///
/// Soundness caveat (inherent to purely local verification without a
/// counting argument): the claim is bound to the real graph only where
/// edges exist. A claim may still append fabricated components disjoint
/// from every real vertex, and — because isolated real vertices see no
/// labels and accept unconditionally (the K1 rule) — it may equally omit
/// isolated real vertices. The scheme is therefore sound only for
/// properties that neither adding nor removing a disjoint component can
/// turn from false to true on the model's *connected* configurations
/// (where isolated vertices occur only as K1). Binding `n` exactly needs
/// the classic spanning-tree counting construction — out of scope for a
/// yardstick.
#[derive(Clone)]
pub struct WholeGraphScheme {
    check: WholeGraphPredicate,
    property: String,
    /// Largest configuration (vertex count) this instance can certify;
    /// the honest prover refuses bigger ones with
    /// [`CertError::InvalidSpec`] — never with a property refusal.
    capacity: usize,
}

impl WholeGraphScheme {
    /// Structural bound on claim sizes the verifier will scan (its fields
    /// come from adversarial labels). The prover refuses configurations
    /// beyond it, keeping the completeness contract intact.
    pub const MAX_CLAIM_SIZE: usize = 1 << 16;

    /// Claimed-graph size the [`WholeGraphScheme::for_algebra`] predicate
    /// accepts. The evaluation keeps every claimed vertex as a live
    /// boundary slot, and the workspace's bitmask-backed algebras
    /// (matching, weight, colorability, …) support at most 32 slots — a
    /// larger claim must be rejected, not evaluated, or the algebra would
    /// be driven past its slot capacity by adversarial labels.
    pub const MAX_ALGEBRA_CLAIM: usize = 32;

    /// A scheme deciding membership with an explicit predicate over the
    /// claimed graph.
    pub fn with_predicate(
        property: impl Into<String>,
        check: impl Fn(&WholeGraphLabel) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            check: Arc::new(check),
            property: property.into(),
            capacity: Self::MAX_CLAIM_SIZE,
        }
    }

    /// A scheme deciding the property of a homomorphism algebra by
    /// evaluating it linearly over the claimed graph.
    ///
    /// Capacity is capped at [`Self::MAX_ALGEBRA_CLAIM`] vertices: larger
    /// honest configurations are refused at prove time with
    /// [`CertError::InvalidSpec`], and larger *claims* are rejected by the
    /// verifier — so this constructor suits small networks; use
    /// [`WholeGraphScheme::with_predicate`] with a direct graph check for
    /// larger configurations.
    pub fn for_algebra(alg: SharedAlgebra) -> Self {
        let name = alg.name();
        let mut scheme = Self::with_predicate(name, move |label| {
            let n = label.ids.len();
            if n > Self::MAX_ALGEBRA_CLAIM || label.edges.len() > n * (n + 1) / 2 {
                return false; // beyond the algebra's slot capacity
            }
            let mut pos = std::collections::HashMap::new();
            for (i, &id) in label.ids.iter().enumerate() {
                if pos.insert(id, i).is_some() {
                    return false; // duplicate claimed identifier
                }
            }
            let mut s = alg.empty();
            for _ in &label.ids {
                s = alg.add_vertex(s);
            }
            for &(a, b) in &label.edges {
                let (Some(&u), Some(&v)) = (pos.get(&a), pos.get(&b)) else {
                    return false; // edge endpoint not in the id list
                };
                s = alg.add_edge(s, u, v, true);
            }
            alg.accept(&s)
        });
        scheme.capacity = Self::MAX_ALGEBRA_CLAIM;
        scheme
    }

    /// A scheme whose predicate accepts everything (pure size yardstick).
    pub fn trivially_true() -> Self {
        Self::with_predicate("true", |_| true)
    }

    /// Builds the honest whole-graph label for a configuration (the label
    /// of edge 0; edge `e` carries the same claim with `edge_index = e`).
    pub fn label_of(cfg: &Configuration) -> WholeGraphLabel {
        let g = cfg.graph();
        WholeGraphLabel {
            ids: g.vertices().map(|v| cfg.id_of(v)).collect(),
            edges: g
                .edges()
                .map(|(_, e)| (cfg.id_of(e.u), cfg.id_of(e.v)))
                .collect(),
            edge_index: 0,
        }
    }
}

impl std::fmt::Debug for WholeGraphScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WholeGraphScheme")
            .field("property", &self.property)
            .finish()
    }
}

impl Scheme for WholeGraphScheme {
    type Label = WholeGraphLabel;

    fn name(&self) -> String {
        format!("whole-graph({})", self.property)
    }

    fn prove(
        &self,
        cfg: &Configuration,
        _hint: &ProverHint,
    ) -> Result<Vec<WholeGraphLabel>, CertError> {
        let g = cfg.graph();
        // An isolated vertex alongside other vertices means the model's
        // connectivity requirement fails — and the verifier's
        // no-edge-less-claimed-vertex rule would reject the honest claim,
        // so refuse upfront to keep the completeness contract.
        if g.vertex_count() > 1 && g.vertices().any(|v| g.degree(v) == 0) {
            return Err(CertError::Disconnected);
        }
        // Capacity limits are a scheme limitation, not a property
        // refusal: surface them as a non-refusal error so batch reports
        // and callers branching on PropertyViolated stay truthful.
        if g.vertex_count() > self.capacity || g.edge_count() > Self::MAX_CLAIM_SIZE {
            return Err(CertError::InvalidSpec(format!(
                "{} supports at most {} vertices / {} edges; got {} / {}",
                Scheme::name(self),
                self.capacity,
                Self::MAX_CLAIM_SIZE,
                g.vertex_count(),
                g.edge_count(),
            )));
        }
        let label = Self::label_of(cfg);
        if !(self.check)(&label) {
            return Err(CertError::PropertyViolated);
        }
        Ok((0..cfg.graph().edge_count() as u64)
            .map(|edge_index| WholeGraphLabel {
                edge_index,
                ..label.clone()
            })
            .collect())
    }

    fn verify_at(&self, view: &VertexView<WholeGraphLabel>) -> Verdict {
        if view.incident.is_empty() {
            return Verdict::Accept; // isolated vertex: K1
        }
        let mut labels: Vec<&WholeGraphLabel> = Vec::with_capacity(view.incident.len());
        for l in view.incident {
            match l {
                Some(l) => labels.push(*l),
                None => return Verdict::reject("undecodable whole-graph label"),
            }
        }
        let first = labels[0];
        // Bound the verifier's own scans over the claim (its fields come
        // from adversarial labels). The prover refuses configurations
        // beyond the same bound, so honest labelings are never rejected
        // here.
        if first.ids.len() > Self::MAX_CLAIM_SIZE || first.edges.len() > Self::MAX_CLAIM_SIZE {
            return Verdict::reject("claimed graph implausibly large");
        }
        if labels
            .iter()
            .any(|l| l.ids != first.ids || l.edges != first.edges)
        {
            return Verdict::reject("inconsistent whole-graph labels");
        }
        {
            let mut sorted = first.ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != first.ids.len() {
                return Verdict::reject("claimed identifiers not distinct");
            }
        }
        // No locally-unverifiable edge-less claimed vertices.
        for &id in &first.ids {
            if !first.edges.iter().any(|&(a, b)| a == id || b == id) {
                return Verdict::reject("claimed vertex with no claimed edge");
            }
        }
        // The edge-index tags on my incident edges must be exactly the
        // claimed edges at my identifier, each once. Both endpoints of
        // every real edge check this, so a claimed edge between real
        // vertices exists iff the real edge does.
        let mut expected: Vec<u64> = first
            .edges
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| a == view.id || b == view.id)
            .map(|(i, _)| i as u64)
            .collect();
        let mut seen: Vec<u64> = labels.iter().map(|l| l.edge_index).collect();
        expected.sort_unstable();
        seen.sort_unstable();
        if seen != expected {
            return Verdict::reject("claimed edges at my id do not match my real edges");
        }
        if !(self.check)(first) {
            return Verdict::reject("global predicate fails on claimed graph");
        }
        Verdict::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_algebra::{props::Connected, Algebra};
    use lanecert_graph::generators;

    #[test]
    fn bipartite_scheme_completeness_and_size() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(8));
        let labels = BipartiteScheme.prove(&cfg, &ProverHint::auto()).unwrap();
        let report = BipartiteScheme.run(&cfg, &labels).unwrap();
        assert!(report.accepted());
        assert_eq!(report.max_label_bits, 2); // the paper's "one bit" scheme
    }

    #[test]
    fn bipartite_prover_refuses_odd_cycle() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        assert_eq!(
            BipartiteScheme
                .prove(&cfg, &ProverHint::auto())
                .unwrap_err(),
            CertError::PropertyViolated
        );
    }

    #[test]
    fn bipartite_soundness_under_corruption() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(8));
        let mut labels = BipartiteScheme.prove(&cfg, &ProverHint::auto()).unwrap();
        labels[0].cu = labels[0].cv; // monochromatic edge
        let report = BipartiteScheme.run(&cfg, &labels).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn whole_graph_scheme_works() {
        let scheme = WholeGraphScheme::with_predicate("5 edges", |l| l.edges.len() == 5);
        let cfg = Configuration::with_sequential_ids(generators::star(6));
        let labels = scheme.prove(&cfg, &ProverHint::auto()).unwrap();
        let report = scheme.run(&cfg, &labels).unwrap();
        assert!(report.accepted());
        // Size grows with the graph: Θ((n + m) log n).
        assert!(report.max_label_bits > 50);
    }

    #[test]
    fn whole_graph_algebra_predicate_matches_truth() {
        let scheme = WholeGraphScheme::for_algebra(Algebra::shared(Connected));
        let yes = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let labels = scheme.prove(&yes, &ProverHint::auto()).unwrap();
        assert!(scheme.run(&yes, &labels).unwrap().accepted());
        let no = Configuration::with_sequential_ids(
            lanecert_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap(),
        );
        assert_eq!(
            scheme.prove(&no, &ProverHint::auto()).unwrap_err(),
            CertError::PropertyViolated
        );
    }

    #[test]
    fn whole_graph_refuses_isolated_vertices_instead_of_self_rejecting() {
        // An isolated vertex next to an edge: the prover must refuse
        // (Disconnected) rather than emit a labeling its own verifier
        // rejects.
        let g = lanecert_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        let cfg = Configuration::with_sequential_ids(g);
        let scheme = WholeGraphScheme::trivially_true();
        assert_eq!(
            scheme.prove(&cfg, &ProverHint::auto()).unwrap_err(),
            CertError::Disconnected
        );
    }

    #[test]
    fn whole_graph_capacity_is_not_a_property_refusal() {
        // A 40-vertex connected cycle is a yes-instance; the algebra
        // evaluation just cannot hold 40 boundary slots. That must read
        // as a scheme-capacity error, never "property violated".
        let scheme = WholeGraphScheme::for_algebra(Algebra::shared(Connected));
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(40));
        let err = scheme.prove(&cfg, &ProverHint::auto()).unwrap_err();
        assert!(matches!(err, CertError::InvalidSpec(_)), "{err:?}");
        assert!(!err.is_refusal());
    }

    #[test]
    fn whole_graph_rejects_forged_claim() {
        // Present labels claiming a different (accepted) graph: the
        // edge-binding checks catch the forgery.
        let scheme = WholeGraphScheme::trivially_true();
        let cfg = Configuration::with_sequential_ids(generators::path_graph(4));
        let mut labels = scheme.prove(&cfg, &ProverHint::auto()).unwrap();
        for l in labels.as_mut_slice() {
            l.edges.pop(); // drop one claimed edge everywhere
        }
        let report = scheme.run(&cfg, &labels).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn whole_graph_rejects_rerouted_claim_with_fabricated_vertex() {
        // Real network: C5 (not bipartite). Adversarial claim: C6 over ids
        // 0..=5 (id 5 fabricated), preserving every real vertex's degree.
        // The edge-index binding must catch it.
        let scheme =
            WholeGraphScheme::for_algebra(Algebra::shared(lanecert_algebra::props::Bipartite));
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let claim_edges: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)];
        let forged: Vec<WholeGraphLabel> = (0..cfg.graph().edge_count() as u64)
            .map(|edge_index| WholeGraphLabel {
                ids: (0..=5).collect(),
                edges: claim_edges.clone(),
                edge_index,
            })
            .collect();
        let report = scheme.run(&cfg, &forged).unwrap();
        assert!(
            !report.accepted(),
            "re-routed claim certified bipartiteness on an odd cycle"
        );
    }

    #[test]
    fn whole_graph_rejects_all_undecodable_labels() {
        // A never-true predicate plus garbage labels everywhere must not
        // be accepted (the old first-label guard treated Some(None) as an
        // isolated vertex).
        use crate::erased::{BoxedScheme, EncodedLabel, EncodedLabeling};
        let scheme: BoxedScheme = Box::new(WholeGraphScheme::with_predicate("never", |_| false));
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let garbage = EncodedLabeling::new(vec![
            EncodedLabel {
                bytes: vec![0xFF],
                bits: 8,
            };
            5
        ]);
        let report = scheme.verify_encoded(&cfg, &garbage).unwrap();
        assert!(!report.accepted());
        assert_eq!(report.reject_count(), 5);
    }
}
