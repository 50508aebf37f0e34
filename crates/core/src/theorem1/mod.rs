//! The Theorem 1 scheme: an `O(log n)`-bit proof labeling scheme for
//! `ϕ ∧ (pathwidth ≤ k)`, for any property `ϕ` given as a homomorphism
//! algebra.
//!
//! The prover runs the Sections 4–5 pipeline (`lanecert-lanes`): interval
//! representation → lane partition → completion → embedding → lanewidth
//! construction → hierarchical decomposition, evaluates the algebra over
//! the hierarchy (Proposition 6.1), and emits per-edge certificates
//! ([`labels`]). The verifier (the private `verifier` submodule, reached
//! through [`Scheme::verify_at`]) checks everything locally.
//!
//! The prover writes wire labels directly
//! ([`Scheme::prove_encoded`]): each frame template and each certificate
//! is encoded once, and a virtual edge's certificate bits are copied into
//! every transit on its embedding path. The typed [`Scheme::prove`] and
//! [`PathwidthScheme::prove_with_rep`] decode those bytes, so there is one
//! construction path and the two outputs are bit-identical.
//!
//! An accepted labeling certifies `ϕ` on the real edge set **and**
//! `pathwidth ≤ w − 1` where `w` is the number of lanes: with the greedy
//! partition `w = width(I) ≤ k + 1`, so the certified bound is exactly
//! `pathwidth ≤ k`; with the Proposition 4.6 partition it is the constant
//! relaxation `f(k + 1) − 1` (see DESIGN.md).
//!
//! [`PathwidthScheme`] implements the unified [`Scheme`] trait; drive it
//! through [`Scheme::prove`]/[`Scheme::run`], the
//! [`Certifier`](crate::Certifier) builder (registry name
//! [`crate::registry::THEOREM1`]), or the typed
//! [`PathwidthScheme::prove_with_rep`] helper when a known interval
//! representation is at hand.

pub mod labels;
mod prover;
pub mod summary;
mod verifier;

use lanecert_algebra::{FreezeOptions, FrozenAlgebra, SharedAlgebra, SharedFrozenAlgebra};
use lanecert_lanes::{LaneSet, LaneStrategy, Layout};
use lanecert_pathwidth::IntervalRep;

pub use labels::EdgeLabel;

use crate::scheme::{ProverHint, Scheme, Verdict, VertexView};
use crate::{CertError, Configuration, EncodedLabeling};

/// Version of the Theorem 1 wire format ([`labels`]), folded into
/// [`Scheme::fingerprint`] so that a labeling stamped under another
/// format is refused instead of misdecoded. Format 2 implies interface
/// lanes, writes repeated ids as back-references and `E` terminals as
/// one bit; format 1 was not versioned.
const WIRE_FORMAT: u32 = 2;

/// Scheme parameters.
#[derive(Copy, Clone, Debug)]
pub struct SchemeOptions {
    /// Lane-partition strategy (the T9 ablation).
    pub strategy: LaneStrategy,
    /// Maximum number of lanes `w` the verifier accepts. An accepted
    /// labeling certifies `pathwidth ≤ max_lanes − 1`.
    pub max_lanes: usize,
}

impl SchemeOptions {
    /// Options certifying `pathwidth ≤ k` exactly (greedy partition, whose
    /// lane count equals the representation width `k + 1`).
    pub fn exact_pathwidth(k: usize) -> Self {
        Self {
            strategy: LaneStrategy::Greedy,
            max_lanes: k + 1,
        }
    }
}

/// The Theorem 1 proof labeling scheme for one `(ϕ, k)` pair.
///
/// Construction runs the canonical freeze pass
/// ([`FrozenAlgebra::freeze`]) for the pair's interface arity
/// (`2 × max_lanes`): with a total table, `StateId`s — and therefore
/// label bytes and varint label sizes — are a pure function of
/// `(graph, property, hint)`, so proving parallelizes with bit-identical
/// output (freeze results are memoized process-wide, so repeated
/// construction is cheap).
pub struct PathwidthScheme {
    frozen: SharedFrozenAlgebra,
    opts: SchemeOptions,
}

impl std::fmt::Debug for PathwidthScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathwidthScheme")
            .field("algebra", &self.frozen.name())
            .field("states", &self.frozen.state_count())
            .field("total", &self.frozen.is_total())
            .field("opts", &self.opts)
            .finish()
    }
}

impl PathwidthScheme {
    /// Creates the scheme for a property algebra and options, freezing
    /// the algebra's canonical class table for the options' lane bound.
    pub fn new(algebra: SharedAlgebra, opts: SchemeOptions) -> Self {
        Self::with_freeze_options(
            algebra,
            opts,
            &FreezeOptions::for_interface_arity(opts.max_lanes.saturating_mul(2)),
        )
    }

    /// Like [`PathwidthScheme::new`] with explicit freeze tuning (state
    /// and op budgets). Used by the MSO compiler front-end
    /// ([`crate::compiled`]), whose machine-generated state spaces need
    /// per-formula budgets; the freeze arity cap is still forced to
    /// `2 × max_lanes` so the table matches the verifier's interfaces.
    pub fn with_freeze_options(
        algebra: SharedAlgebra,
        opts: SchemeOptions,
        freeze: &FreezeOptions,
    ) -> Self {
        let freeze = FreezeOptions {
            max_arity: opts.max_lanes.saturating_mul(2),
            ..freeze.clone()
        };
        let frozen = FrozenAlgebra::freeze(algebra, &freeze);
        Self { frozen, opts }
    }

    /// The algebra (shared "global knowledge").
    pub fn algebra(&self) -> &SharedAlgebra {
        self.frozen.algebra()
    }

    /// The frozen canonical class table the scheme's wire ids index.
    pub fn frozen_algebra(&self) -> &SharedFrozenAlgebra {
        &self.frozen
    }

    /// The options.
    pub fn options(&self) -> SchemeOptions {
        self.opts
    }

    /// Honest certificate assignment given an interval representation of
    /// the network (e.g. from a known decomposition). Equivalent to
    /// [`Scheme::prove`] with
    /// [`ProverHint::with_representation`].
    ///
    /// # Errors
    ///
    /// See [`CertError`]; a representation that does not fit the graph is
    /// [`CertError::InvalidSpec`].
    pub fn prove_with_rep(
        &self,
        cfg: &Configuration,
        rep: &IntervalRep,
    ) -> Result<Vec<EdgeLabel>, CertError> {
        crate::scheme::check_rep_fits(rep, cfg)?;
        decode_labels(&self.prove_validated(cfg, rep)?)
    }

    /// Wire prover over a representation known to fit the graph (see
    /// [`ProverHint::resolve`]).
    fn prove_validated(
        &self,
        cfg: &Configuration,
        rep: &IntervalRep,
    ) -> Result<EncodedLabeling, CertError> {
        let g = cfg.graph();
        if g.vertex_count() == 0 {
            return Ok(EncodedLabeling::default());
        }
        if !lanecert_graph::components::is_connected(g) {
            return Err(CertError::Disconnected);
        }
        if g.vertex_count() == 1 {
            // K1: no edges, no labels; the verifier special-cases it.
            let s = self.frozen.add_vertex(self.frozen.empty());
            return if self.frozen.accept(&s) {
                Ok(EncodedLabeling::default())
            } else {
                Err(CertError::PropertyViolated)
            };
        }
        // Every lane partition needs at least `width` lanes; refusing here
        // keeps an over-wide representation out of `Layout::build`. A lane
        // set holds 64 lanes, whatever bound the options name.
        let bound = self.opts.max_lanes.min(LaneSet::CAPACITY);
        if rep.width() > bound {
            return Err(CertError::TooManyLanes {
                needed: rep.width(),
                bound,
            });
        }
        let layout = Layout::build(g, rep, self.opts.strategy);
        if layout.lane_count() > bound {
            return Err(CertError::TooManyLanes {
                needed: layout.lane_count(),
                bound,
            });
        }
        let labels = prover::build_labels(&self.frozen, cfg, &layout);
        summary::flush_memo_counters();
        labels
    }
}

/// The typed labels behind the wire prover's bytes.
fn decode_labels(labels: &EncodedLabeling) -> Result<Vec<EdgeLabel>, CertError> {
    labels
        .iter()
        .map(|l| {
            l.decode_canonical().ok_or_else(|| {
                CertError::Internal("theorem1 prover wrote an undecodable label".into())
            })
        })
        .collect()
}

impl Scheme for PathwidthScheme {
    type Label = EdgeLabel;

    fn name(&self) -> String {
        format!(
            "theorem1({}, w ≤ {})",
            self.frozen.name(),
            self.opts.max_lanes
        )
    }

    fn fingerprint(&self) -> u64 {
        // Labels carry canonical table ids, so the label format is the
        // (name, table, wire format) triple.
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        Scheme::name(self).hash(&mut h);
        self.frozen.fingerprint().hash(&mut h);
        WIRE_FORMAT.hash(&mut h);
        h.finish()
    }

    fn algebra_state_count(&self) -> Option<usize> {
        Some(self.frozen.state_count())
    }

    fn canonical_labels(&self) -> bool {
        // Sealed tables intern their tail in arrival order, so only a
        // total freeze makes labels order-independent.
        self.frozen.is_total()
    }

    fn prove(&self, cfg: &Configuration, hint: &ProverHint) -> Result<Vec<EdgeLabel>, CertError> {
        // `resolve` has already validated a supplied representation.
        let rep = hint.resolve(cfg)?;
        decode_labels(&self.prove_validated(cfg, &rep)?)
    }

    fn prove_encoded(
        &self,
        cfg: &Configuration,
        hint: &ProverHint,
    ) -> Result<EncodedLabeling, CertError> {
        let rep = hint.resolve(cfg)?;
        Ok(self
            .prove_validated(cfg, &rep)?
            .with_fingerprint(Scheme::fingerprint(self)))
    }

    fn verify_at(&self, view: &VertexView<EdgeLabel>) -> Verdict {
        let ctx = verifier::Ctx {
            alg: &self.frozen,
            max_lanes: self.opts.max_lanes,
            my_id: view.id,
        };
        verifier::verify(&ctx, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RunReport;
    use lanecert_algebra::props::{And, Bipartite, Connected, Forest, HamiltonianCycle};
    use lanecert_algebra::Algebra;
    use lanecert_graph::{generators, Graph};
    use lanecert_pathwidth::solver::pathwidth_exact;

    fn rep_of(g: &Graph) -> IntervalRep {
        let (_, pd) = pathwidth_exact(g).unwrap();
        IntervalRep::from_decomposition(&pd, g.vertex_count())
    }

    fn run_case(scheme: &PathwidthScheme, g: Graph, expect_prove: bool) -> Option<RunReport> {
        let rep = rep_of(&g);
        let cfg = Configuration::with_random_ids(g, 99);
        match scheme.prove_with_rep(&cfg, &rep) {
            Ok(labels) => {
                assert!(expect_prove, "prover should have refused");
                let report = scheme.run(&cfg, &labels).unwrap();
                assert!(
                    report.accepted(),
                    "completeness failed: {:?}",
                    report.first_rejection()
                );
                Some(report)
            }
            Err(CertError::PropertyViolated) => {
                assert!(!expect_prove, "prover refused a yes-instance");
                None
            }
            Err(e) => panic!("unexpected prover error: {e}"),
        }
    }

    #[test]
    fn bipartite_on_even_cycles() {
        let scheme = PathwidthScheme::new(
            Algebra::shared(Bipartite),
            SchemeOptions::exact_pathwidth(2),
        );
        run_case(&scheme, generators::cycle_graph(6), true);
        run_case(&scheme, generators::cycle_graph(7), false);
        run_case(&scheme, generators::path_graph(9), true);
    }

    #[test]
    fn hamiltonicity_on_cycles_and_ladders() {
        let scheme = PathwidthScheme::new(
            Algebra::shared(HamiltonianCycle),
            SchemeOptions::exact_pathwidth(2),
        );
        run_case(&scheme, generators::cycle_graph(8), true);
        run_case(&scheme, generators::ladder(4), true);
        run_case(&scheme, generators::path_graph(6), false);
    }

    #[test]
    fn spanning_tree_like_property() {
        let scheme = PathwidthScheme::new(
            Algebra::shared(And(Connected, Forest)),
            SchemeOptions::exact_pathwidth(1),
        );
        run_case(&scheme, generators::caterpillar(4, 2), true);
        run_case(&scheme, generators::star(7), true);
    }

    #[test]
    fn pathwidth_bound_is_enforced_by_prover() {
        // A ladder has pathwidth 2: with bound k = 1 the prover must refuse.
        let scheme = PathwidthScheme::new(
            Algebra::shared(Connected),
            SchemeOptions::exact_pathwidth(1),
        );
        let g = generators::ladder(4);
        let rep = rep_of(&g);
        let cfg = Configuration::with_sequential_ids(g);
        assert!(matches!(
            scheme.prove_with_rep(&cfg, &rep),
            Err(CertError::TooManyLanes { .. })
        ));
    }

    #[test]
    fn lane_bounds_past_the_lane_set_refuse_without_panicking() {
        // Direct construction takes any bound: the freeze arity saturates
        // (and seals), and a representation wider than a lane set holds
        // is refused before the layout is built.
        let wide_cfg = Configuration::with_sequential_ids(generators::complete_graph(65));
        let wide = IntervalRep::new(vec![lanecert_pathwidth::Interval::new(0, 0); 65]);
        for max_lanes in [65, usize::MAX] {
            let scheme = PathwidthScheme::new(
                Algebra::shared(Connected),
                SchemeOptions {
                    strategy: LaneStrategy::Greedy,
                    max_lanes,
                },
            );
            assert!(!scheme.frozen_algebra().is_total());
            assert_eq!(
                scheme.prove_with_rep(&wide_cfg, &wide).err(),
                Some(CertError::TooManyLanes {
                    needed: 65,
                    bound: 64
                })
            );
            run_case(&scheme, generators::path_graph(9), true);
            let opts =
                crate::compiled::freeze_options_for(&lanecert_mso::props::connected(), max_lanes);
            assert_eq!(opts.max_arity, max_lanes.saturating_mul(2));
        }
    }

    #[test]
    fn disconnected_is_refused() {
        let scheme = PathwidthScheme::new(
            Algebra::shared(Connected),
            SchemeOptions::exact_pathwidth(2),
        );
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cfg = Configuration::with_sequential_ids(g);
        let rep = IntervalRep::new(vec![
            lanecert_pathwidth::Interval::new(0, 1),
            lanecert_pathwidth::Interval::new(1, 2),
            lanecert_pathwidth::Interval::new(4, 5),
            lanecert_pathwidth::Interval::new(5, 6),
        ]);
        assert_eq!(
            scheme.prove_with_rep(&cfg, &rep),
            Err(CertError::Disconnected)
        );
    }

    #[test]
    fn single_vertex_graph() {
        let yes = PathwidthScheme::new(Algebra::shared(Forest), SchemeOptions::exact_pathwidth(1));
        let cfg = Configuration::with_sequential_ids(Graph::new(1));
        let labels = yes.prove(&cfg, &ProverHint::auto()).unwrap();
        assert!(labels.is_empty());
        assert!(yes.run(&cfg, &labels).unwrap().accepted());
    }

    #[test]
    fn both_strategies_complete() {
        for strategy in [LaneStrategy::Greedy, LaneStrategy::Recursive] {
            let scheme = PathwidthScheme::new(
                Algebra::shared(Bipartite),
                SchemeOptions {
                    strategy,
                    max_lanes: 64,
                },
            );
            let g = generators::caterpillar(3, 2);
            let rep = rep_of(&g);
            let cfg = Configuration::with_random_ids(g, 5);
            let labels = scheme.prove_with_rep(&cfg, &rep).unwrap();
            let report = scheme.run(&cfg, &labels).unwrap();
            assert!(
                report.accepted(),
                "{strategy:?}: {:?}",
                report.first_rejection()
            );
        }
    }

    #[test]
    fn wire_labels_match_the_typed_encoding() {
        use crate::erased::{DynScheme, EncodedLabeling};
        use lanecert_pathwidth::PathDecomposition;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (pw2, bags) = generators::random_pathwidth_graph(60, 2, 0.5, &mut rng);
        let pw2_rep = IntervalRep::from_decomposition(&PathDecomposition::new(bags), 60);
        let ladder = generators::ladder(12);
        let cycle = generators::cycle_graph(20);
        let cases = [
            (rep_of(&ladder), ladder),
            (rep_of(&cycle), cycle),
            (pw2_rep, pw2),
        ];
        let algebras = [
            (Algebra::shared(Connected), true),
            (Algebra::shared(Bipartite), true),
            (Algebra::shared(HamiltonianCycle), false),
        ];
        for (algebra, total) in algebras {
            let scheme = PathwidthScheme::new(algebra, SchemeOptions::exact_pathwidth(2));
            assert_eq!(Scheme::canonical_labels(&scheme), total);
            let mut certified = 0;
            for (rep, g) in &cases {
                let cfg = Configuration::with_random_ids(g.clone(), 17);
                let hint = ProverHint::with_representation(rep.clone());
                let typed = scheme.prove(&cfg, &hint);
                let wire = DynScheme::prove_encoded(&scheme, &cfg, &hint);
                let (typed, wire) = match (typed, wire) {
                    (Ok(typed), Ok(wire)) => (typed, wire),
                    (typed, wire) => {
                        assert_eq!(typed.err(), wire.err());
                        continue;
                    }
                };
                assert_eq!(EncodedLabeling::encode(&typed).to_vec(), wire.to_vec());
                assert!(scheme.run(&cfg, &typed).unwrap().accepted());
                assert!(DynScheme::verify_encoded(&scheme, &cfg, &wire)
                    .unwrap()
                    .accepted());
                certified += 1;
            }
            assert!(certified >= 2, "{}", Scheme::name(&scheme));
        }
    }

    #[test]
    fn labelings_stamped_under_the_previous_wire_format_are_refused() {
        use crate::erased::DynScheme;
        use std::hash::{Hash, Hasher};
        let scheme = PathwidthScheme::new(
            Algebra::shared(Connected),
            SchemeOptions::exact_pathwidth(2),
        );
        let g = generators::ladder(8);
        let hint = ProverHint::with_representation(rep_of(&g));
        let cfg = Configuration::with_random_ids(g, 5);
        let wire = DynScheme::prove_encoded(&scheme, &cfg, &hint).unwrap();
        assert!(DynScheme::verify_encoded(&scheme, &cfg, &wire)
            .unwrap()
            .accepted());
        // Format 1's fingerprint hashed the name and the table only.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        Scheme::name(&scheme).hash(&mut h);
        scheme.frozen.fingerprint().hash(&mut h);
        let old = h.finish();
        assert_ne!(old, Scheme::fingerprint(&scheme));
        let restamped = wire.with_fingerprint(old);
        assert!(matches!(
            DynScheme::verify_encoded(&scheme, &cfg, &restamped),
            Err(CertError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn out_of_order_interface_claims_are_rejected() {
        use super::labels::{BasicInfoLbl, EdgeCertLbl, FrameLbl};
        use crate::erased::{DynScheme, EncodedLabeling};
        // The side and child claims a verifier parses (T subtrees are
        // compared against a recomputation instead).
        fn parsed_infos(cert: &mut EdgeCertLbl) -> impl Iterator<Item = &mut BasicInfoLbl> {
            cert.frames.iter_mut().flat_map(|f| match f {
                FrameLbl::T(t) => t.children.iter_mut().collect::<Vec<_>>(),
                FrameLbl::B(b) => vec![&mut b.left, &mut b.right],
                _ => Vec::new(),
            })
        }
        let scheme = PathwidthScheme::new(
            Algebra::shared(Connected),
            SchemeOptions::exact_pathwidth(2),
        );
        let g = generators::ladder(8);
        let hint = ProverHint::with_representation(rep_of(&g));
        let cfg = Configuration::with_random_ids(g, 23);
        let mut labels = scheme.prove(&cfg, &hint).unwrap();
        let honest = labels
            .iter_mut()
            .flat_map(|l| parsed_infos(&mut l.own))
            .find(|info| info.iface.tin.len() > 1)
            .expect("a ladder has a multi-lane side or child claim")
            .clone();
        let mut reordered = honest.clone();
        reordered.iface.tin.reverse();
        // Every copy of the claim, so only the interface order is wrong.
        for label in &mut labels {
            let certs = std::iter::once(&mut label.own)
                .chain(label.transits.iter_mut().map(|t| &mut t.cert));
            for cert in certs {
                for info in parsed_infos(cert) {
                    if *info == honest {
                        *info = reordered.clone();
                    }
                }
            }
        }
        // The verifier rejects the typed claim.
        let g = cfg.graph();
        let verdicts: Vec<Verdict> = g
            .vertices()
            .map(|v| {
                let incident: Vec<Option<&EdgeLabel>> = (g.incident(v).iter())
                    .map(|h| Some(&labels[h.edge.index()]))
                    .collect();
                scheme.verify_at(&VertexView {
                    id: cfg.id_of(v),
                    incident: &incident,
                })
            })
            .collect();
        assert!(verdicts
            .iter()
            .any(|v| *v == Verdict::reject("terminals not strictly ascending by lane")));
        // The wire writes a side's ids in lane order and implies the
        // lanes, so it cannot carry the reordered claim: it encodes the
        // honest labels, which verify.
        let wire = EncodedLabeling::encode(&labels);
        let honest = scheme.prove(&cfg, &hint).unwrap();
        assert_eq!(wire.to_vec(), EncodedLabeling::encode(&honest).to_vec());
        assert!(DynScheme::verify_encoded(&scheme, &cfg, &wire)
            .unwrap()
            .accepted());
    }

    #[test]
    fn random_graphs_complete() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let scheme = PathwidthScheme::new(
            Algebra::shared(Connected),
            SchemeOptions::exact_pathwidth(2),
        );
        for _ in 0..6 {
            let (g, _) = generators::random_pathwidth_graph(14, 2, 0.4, &mut rng);
            run_case(&scheme, g, true);
        }
    }
}
