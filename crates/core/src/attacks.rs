//! Adversarial harnesses: soundness fuzzing for schemes behind the
//! unified [`Scheme`]/[`DynScheme`] API (T6) and the classic `Ω(log n)`
//! cut-and-splice lower bound (T8).

use lanecert_graph::generators;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::bits::{BitReader, BitWriter, Enc};
use crate::erased::{DynScheme, EncodedLabeling};
use crate::scheme::Scheme;
use crate::theorem1::EdgeLabel;
use crate::Configuration;

/// Mutations applied to honest Theorem 1 labelings.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Swap the labels of two edges.
    SwapLabels,
    /// Replace one label with another edge's label.
    CloneLabel,
    /// Flip the marked bit of one certificate.
    FlipMark,
    /// Perturb a homomorphism class id in some frame.
    BumpClass,
    /// Replace a homomorphism class id with one far outside the frozen
    /// table (canonical ids are dense from 0, so `u32::MAX` can never be
    /// interned — the verifier must reject it, never panic or index out
    /// of bounds).
    HugeClass,
    /// Drop all transit records from one edge.
    DropTransits,
    /// Duplicate one transit record on one edge: both endpoints of the
    /// edge then see a virtual edge's path cross it twice.
    InflateTransits,
}

/// Applies one corruption; returns `None` when the labeling has no
/// applicable site (e.g. no transits anywhere).
pub fn corrupt(labels: &[EdgeLabel], kind: Corruption, rng: &mut StdRng) -> Option<Vec<EdgeLabel>> {
    if labels.is_empty() {
        return None;
    }
    let mut out = labels.to_vec();
    let pick = rng.random_range(0..out.len());
    match kind {
        Corruption::SwapLabels => {
            if out.len() < 2 {
                return None;
            }
            let other = (pick + 1 + rng.random_range(0..out.len() - 1)) % out.len();
            out.swap(pick, other);
        }
        Corruption::CloneLabel => {
            if out.len() < 2 {
                return None;
            }
            let other = (pick + 1 + rng.random_range(0..out.len() - 1)) % out.len();
            out[pick] = out[other].clone();
        }
        Corruption::FlipMark => {
            out[pick].own.marked = !out[pick].own.marked;
        }
        Corruption::BumpClass => {
            use crate::theorem1::labels::FrameLbl;
            let label = &mut out[pick];
            let frame = label.own.frames.first_mut()?;
            match frame {
                FrameLbl::T(t) => t.subtree.class = t.subtree.class.wrapping_add(1),
                FrameLbl::B(b) => b.left.class = b.left.class.wrapping_add(1),
                _ => return None,
            }
        }
        Corruption::HugeClass => {
            use crate::theorem1::labels::FrameLbl;
            let label = &mut out[pick];
            let frame = label.own.frames.first_mut()?;
            match frame {
                FrameLbl::T(t) => t.subtree.class = u32::MAX,
                FrameLbl::B(b) => b.right.class = u32::MAX,
                _ => return None,
            }
        }
        Corruption::DropTransits => {
            let with = (0..out.len()).find(|&i| !out[i].transits.is_empty())?;
            out[with].transits.clear();
        }
        Corruption::InflateTransits => {
            let with = (0..out.len()).find(|&i| !out[i].transits.is_empty())?;
            let transits = &mut out[with].transits;
            let x = rng.random_range(0..transits.len());
            let copy = transits[x].clone();
            transits.insert(x, copy);
        }
    }
    Some(out)
}

/// Runs a battery of typed corruptions against an honest labeling of any
/// Theorem-1-labeled scheme; returns `(attempted, rejected)` counts.
/// Soundness demands `rejected == attempted` for any corruption that
/// changes what the labels certify — swaps and clones always change
/// *something* structurally here because every certificate names its
/// endpoints.
pub fn fuzz_scheme<S: Scheme<Label = EdgeLabel>>(
    scheme: &S,
    cfg: &Configuration,
    labels: &[EdgeLabel],
    seed: u64,
    rounds: usize,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = [
        Corruption::SwapLabels,
        Corruption::CloneLabel,
        Corruption::FlipMark,
        Corruption::BumpClass,
        Corruption::HugeClass,
        Corruption::DropTransits,
        Corruption::InflateTransits,
    ];
    let mut attempted = 0;
    let mut rejected = 0;
    for round in 0..rounds {
        let kind = kinds[round % kinds.len()];
        let Some(mutated) = corrupt(labels, kind, &mut rng) else {
            continue;
        };
        if mutated == labels {
            continue;
        }
        attempted += 1;
        let report = scheme
            .run(cfg, &mutated)
            .expect("corruptions preserve label count");
        if !report.accepted() {
            rejected += 1;
        }
    }
    (attempted, rejected)
}

/// Scheme-agnostic wire-level fuzzing through the erased layer: flips one
/// random payload bit of one random encoded label per round and re-runs
/// the verifier. Returns `(attempted, rejected)` — rounds that land on an
/// empty (zero-bit) label are skipped; every other flip changes the byte
/// image and counts as attempted.
///
/// Unlike [`fuzz_scheme`], a surviving flip is not automatically a
/// soundness bug: a flip may decode to a *different honest* certificate
/// for the same configuration (not possible for the schemes shipped here
/// on the graphs tested, but possible in principle), so callers decide
/// what ratio to demand.
pub fn fuzz_encoded(
    scheme: &dyn DynScheme,
    cfg: &Configuration,
    labels: &EncodedLabeling,
    seed: u64,
    rounds: usize,
) -> (usize, usize) {
    if labels.is_empty() || labels.total_bits() == 0 {
        return (0, 0);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attempted = 0;
    let mut rejected = 0;
    for _ in 0..rounds {
        let mut mutated = labels.clone();
        let pick = rng.random_range(0..mutated.len());
        let bits = mutated.get(pick).bits;
        if bits == 0 {
            continue;
        }
        mutated.flip_bit(pick, rng.random_range(0..bits));
        attempted += 1;
        let report = scheme
            .verify_encoded(cfg, &mutated)
            .expect("flips preserve label count");
        if !report.accepted() {
            rejected += 1;
        }
    }
    (attempted, rejected)
}

// ---------------------------------------------------------------------------
// The Ω(log n) cut-and-splice demonstration (KKP10).
// ---------------------------------------------------------------------------

/// A toy "this network is a path" scheme whose labels are distances to the
/// left endpoint truncated to `bits` bits. With `bits ≥ log₂ n` it is sound;
/// below that, the pigeonhole splice builds an accepted cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TruncatedDistLabel {
    /// `min(dist(u), dist(v)) mod 2^bits` for the edge `{u, v}`.
    pub d: u32,
    /// The truncation width (part of the scheme, not the certificate; kept
    /// in the label for simplicity of the demo harness).
    pub bits: u8,
}

impl Enc for TruncatedDistLabel {
    fn enc(&self, w: &mut BitWriter) {
        w.put_bits(self.d as u64, self.bits as usize);
        self.bits.enc(w);
    }
    fn dec(_r: &mut BitReader<'_>) -> Option<Self> {
        // bits field is needed first logically; for the demo we re-read in
        // the writing order using a two-pass trick: peek is unnecessary
        // because `bits` is fixed per scheme run — store d full-width.
        None
    }
}

/// Honest prover for the toy path scheme.
pub fn prove_path_scheme(cfg: &Configuration, bits: u8) -> Vec<TruncatedDistLabel> {
    let g = cfg.graph();
    // Find the left endpoint (degree-1 vertex with the smaller id) and
    // label edges by truncated distance.
    let ends: Vec<_> = g.vertices().filter(|&v| g.degree(v) == 1).collect();
    let start = ends
        .iter()
        .copied()
        .min_by_key(|&v| cfg.id_of(v))
        .unwrap_or_else(|| g.vertices().next().expect("non-empty"));
    let tree = lanecert_graph::traversal::bfs(g, start);
    let mask = (1u64 << bits) as u32 - 1;
    g.edges()
        .map(|(_, e)| TruncatedDistLabel {
            d: tree.dist[e.u.index()].min(tree.dist[e.v.index()]) & mask,
            bits,
        })
        .collect()
}

/// Runs the toy verifier directly on raw labels (bypassing the wire trip,
/// which this demo scheme does not define): a degree-2 vertex accepts iff
/// its two incident labels are `d` and `d + 1 (mod 2^bits)` for some `d`;
/// a degree-1 vertex accepts any single label in this toy; degree ≠ 1, 2
/// rejects.
pub fn run_path_scheme_raw(cfg: &Configuration, labels: &[TruncatedDistLabel]) -> bool {
    let g = cfg.graph();
    let modulus = |bits: u8| 1u32 << bits;
    g.vertices().all(|v| {
        let inc: Vec<&TruncatedDistLabel> = g
            .incident(v)
            .iter()
            .map(|h| &labels[h.edge.index()])
            .collect();
        match inc.len() {
            1 => true, // endpoints accept any single label in this toy
            2 => {
                let m = modulus(inc[0].bits);
                (inc[0].d + 1) % m == inc[1].d || (inc[1].d + 1) % m == inc[0].d
            }
            _ => false,
        }
    })
}

/// The pigeonhole attack: given an accepted labeling of `P_n` with `b`-bit
/// labels and `2^b < (n − 2) / 1`, find two edges with equal labels and
/// splice the segment between them into a cycle whose every local view
/// already occurred on the path. Returns the accepted cycle size on
/// success.
pub fn splice_attack(n: usize, bits: u8) -> Option<usize> {
    let g = generators::path_graph(n);
    let cfg = Configuration::with_sequential_ids(g);
    let labels = prove_path_scheme(&cfg, bits);
    assert!(
        run_path_scheme_raw(&cfg, &labels),
        "honest path must accept"
    );
    // Find i < j with equal labels; the interior vertices between edges i
    // and j (path edges are v_i—v_{i+1}) all accept on the spliced cycle.
    for i in 0..labels.len() {
        for j in (i + 1)..labels.len() {
            if labels[i] == labels[j] {
                let cycle_len = j - i;
                if cycle_len < 3 {
                    continue;
                }
                // Build the cycle on the interior segment.
                let cycle = generators::cycle_graph(cycle_len);
                let ccfg = Configuration::with_sequential_ids(cycle);
                // Cycle edge t corresponds to path edge i + t; the closing
                // edge reuses label j (= label i).
                let clabels: Vec<TruncatedDistLabel> =
                    (0..cycle_len).map(|t| labels[i + t].clone()).collect();
                if run_path_scheme_raw(&ccfg, &clabels) {
                    return Some(cycle_len);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProverHint;
    use crate::theorem1::{PathwidthScheme, SchemeOptions};
    use lanecert_algebra::{props::Bipartite, Algebra};
    use lanecert_pathwidth::{solver, IntervalRep};

    fn bipartite_scheme() -> PathwidthScheme {
        PathwidthScheme::new(
            Algebra::shared(Bipartite),
            SchemeOptions::exact_pathwidth(2),
        )
    }

    #[test]
    fn fuzzing_rejects_all_corruptions() {
        let g = generators::cycle_graph(8);
        let (_, pd) = solver::pathwidth_exact(&g).unwrap();
        let rep = IntervalRep::from_decomposition(&pd, g.vertex_count());
        let cfg = Configuration::with_random_ids(g, 21);
        let scheme = bipartite_scheme();
        let labels = scheme.prove_with_rep(&cfg, &rep).unwrap();
        assert!(scheme.run(&cfg, &labels).unwrap().accepted());
        let (attempted, rejected) = fuzz_scheme(&scheme, &cfg, &labels, 5, 40);
        assert!(attempted > 10);
        assert_eq!(rejected, attempted, "a corruption slipped through");
    }

    #[test]
    fn encoded_fuzzing_runs_through_the_erased_layer() {
        let g = generators::cycle_graph(8);
        let cfg = Configuration::with_random_ids(g, 3);
        let scheme = bipartite_scheme();
        let enc = DynScheme::prove_encoded(&scheme, &cfg, &ProverHint::auto()).unwrap();
        let (attempted, rejected) = fuzz_encoded(&scheme, &cfg, &enc, 7, 30);
        assert!(attempted > 10);
        // Every single-bit flip of a Theorem 1 certificate on this graph
        // is caught.
        assert_eq!(rejected, attempted);
    }

    #[test]
    fn out_of_range_class_ids_reject_cleanly() {
        // Canonical ids are dense from 0; adversarial labels may claim
        // any u32. Every such claim must come back as a verdict-level
        // rejection through both the typed and the erased layer — never
        // a panic, never CertError::Internal.
        let g = generators::cycle_graph(8);
        let (_, pd) = solver::pathwidth_exact(&g).unwrap();
        let rep = IntervalRep::from_decomposition(&pd, g.vertex_count());
        let cfg = Configuration::with_random_ids(g, 13);
        let scheme = bipartite_scheme();
        let labels = scheme.prove_with_rep(&cfg, &rep).unwrap();
        let table_len = DynScheme::algebra_state_count(&scheme).unwrap() as u32;
        for bogus in [table_len, table_len + 1, u32::MAX / 2, u32::MAX] {
            let mut forged = labels.as_slice().to_vec();
            for label in &mut forged {
                for frame in &mut label.own.frames {
                    match frame {
                        crate::theorem1::labels::FrameLbl::T(t) => {
                            t.subtree.class = bogus;
                            for c in &mut t.children {
                                c.class = bogus;
                            }
                        }
                        crate::theorem1::labels::FrameLbl::B(b) => {
                            b.left.class = bogus;
                            b.right.class = bogus;
                        }
                        _ => {}
                    }
                }
            }
            let report = scheme.run(&cfg, &forged).unwrap();
            assert!(!report.accepted(), "class id {bogus} was accepted");
            let encoded = crate::erased::EncodedLabeling::encode(&forged);
            let erased: &dyn DynScheme = &scheme;
            let report = erased.verify_encoded(&cfg, &encoded).unwrap();
            assert!(!report.accepted(), "class id {bogus} (erased) was accepted");
        }
    }

    #[test]
    fn splice_succeeds_below_log_n() {
        // 3-bit labels on a 40-vertex path: pigeonhole guarantees a
        // repeated label within any 8 consecutive edges.
        assert!(splice_attack(40, 3).is_some());
    }

    #[test]
    fn splice_fails_with_enough_bits() {
        // 7 bits ≥ log2(40): labels never repeat, no splice exists.
        assert!(splice_attack(40, 7).is_none());
    }

    #[test]
    fn honest_wrong_graph_labels_rejected() {
        // Transplant honest labels from an even cycle onto an odd cycle of
        // the same size class: endpoints/ids no longer match.
        let g1 = generators::cycle_graph(8);
        let (_, pd) = solver::pathwidth_exact(&g1).unwrap();
        let rep = IntervalRep::from_decomposition(&pd, 8);
        let cfg1 = Configuration::with_sequential_ids(g1);
        let scheme = bipartite_scheme();
        let labels = scheme.prove_with_rep(&cfg1, &rep).unwrap();
        // Odd cycle (property false): reuse the first 7 labels.
        let g2 = generators::cycle_graph(7);
        let cfg2 = Configuration::with_sequential_ids(g2);
        let transplanted: Vec<EdgeLabel> = labels[..7].to_vec();
        let report = scheme.run(&cfg2, &transplanted).unwrap();
        assert!(!report.accepted());
    }
}
