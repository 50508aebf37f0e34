//! An FMR+24-style `O(log² n)` baseline for label-size comparison (T1),
//! behind the unified [`Scheme`] trait as [`BaselineScheme`] (registry
//! name [`crate::registry::FMR_BASELINE`]).
//!
//! Fraigniaud, Montealegre, Rapaport & Todinca certify MSO₂ on bounded
//! treewidth with `O(log² n)`-bit labels by replicating per-level
//! information along an `O(log n)`-depth balanced decomposition. This
//! module reproduces that *label-size shape* for path decompositions: a
//! balanced binary recursion over the bag sequence; each vertex stores one
//! frame per canonical range its bag-interval touches on the two
//! root-to-leaf paths of its endpoints — `O(log n)` frames of
//! `O(k log n)` bits (range bounds + the full separator bag).
//!
//! The verifier checks structural consistency (shared frames agree across
//! neighbours, separator bags list their members, intervals of adjacent
//! vertices overlap). As discussed in DESIGN.md this baseline is
//! completeness-grade: it exists to measure the `Θ(log² n)` label growth
//! against the paper's `Θ(log n)`, not as a contribution.

use lanecert_graph::VertexId;
use lanecert_pathwidth::IntervalRep;

use crate::bits::{BitReader, BitWriter, Enc};
use crate::scheme::{ProverHint, Scheme, Verdict, VertexView};
use crate::{CertError, Configuration};

/// One recursion frame: a canonical bag range and its separator bag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeFrame {
    /// Range start (bag index).
    pub lo: u32,
    /// Range end (exclusive).
    pub hi: u32,
    /// Identifiers of the separator bag `X_mid`.
    pub separator: Vec<u64>,
}

/// The baseline's per-edge label: both endpoints' intervals plus the
/// recursion frames touching them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineLabel {
    /// Interval of the smaller-id endpoint.
    pub iv_a: (u32, u32),
    /// Interval of the larger-id endpoint.
    pub iv_b: (u32, u32),
    /// Endpoint ids (ascending).
    pub a: u64,
    /// Larger endpoint id.
    pub b: u64,
    /// Frames on the root-to-leaf paths of both endpoints' intervals.
    pub frames: Vec<RangeFrame>,
}

impl Enc for RangeFrame {
    fn enc(&self, w: &mut BitWriter) {
        self.lo.enc(w);
        self.hi.enc(w);
        self.separator.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            lo: Enc::dec(r)?,
            hi: Enc::dec(r)?,
            separator: Enc::dec(r)?,
        })
    }
}

impl Enc for BaselineLabel {
    fn enc(&self, w: &mut BitWriter) {
        self.iv_a.enc(w);
        self.iv_b.enc(w);
        self.a.enc(w);
        self.b.enc(w);
        self.frames.enc(w);
    }
    fn dec(r: &mut BitReader<'_>) -> Option<Self> {
        Some(Self {
            iv_a: Enc::dec(r)?,
            iv_b: Enc::dec(r)?,
            a: Enc::dec(r)?,
            b: Enc::dec(r)?,
            frames: Enc::dec(r)?,
        })
    }
}

fn frames_for(
    cfg: &Configuration,
    bags: &[Vec<VertexId>],
    lo: u32,
    hi: u32,
    points: &[u32],
    out: &mut Vec<RangeFrame>,
) {
    if hi - lo <= 1 {
        return;
    }
    let mid = (lo + hi) / 2;
    out.push(RangeFrame {
        lo,
        hi,
        separator: bags[mid as usize].iter().map(|&v| cfg.id_of(v)).collect(),
    });
    let left: Vec<u32> = points.iter().copied().filter(|&p| p < mid).collect();
    let right: Vec<u32> = points.iter().copied().filter(|&p| p >= mid).collect();
    if !left.is_empty() {
        frames_for(cfg, bags, lo, mid, &left, out);
    }
    if !right.is_empty() {
        frames_for(cfg, bags, mid, hi, &right, out);
    }
}

/// The FMR+24-style baseline scheme.
///
/// The prover needs an interval representation — supply one via
/// [`ProverHint::with_representation`] or let [`ProverHint::auto`] invoke
/// the exact solver on small graphs.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineScheme;

impl BaselineScheme {
    /// Honest baseline prover against a known representation. Equivalent
    /// to [`Scheme::prove`] with [`ProverHint::with_representation`].
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidSpec`] when `rep` does not fit the graph.
    pub fn prove_with_rep(
        cfg: &Configuration,
        rep: &IntervalRep,
    ) -> Result<Vec<BaselineLabel>, CertError> {
        crate::scheme::check_rep_fits(rep, cfg)?;
        Ok(Self::build_labels(cfg, rep))
    }

    /// Label construction over a representation known to fit the graph.
    fn build_labels(cfg: &Configuration, rep: &IntervalRep) -> Vec<BaselineLabel> {
        let g = cfg.graph();
        let pd = rep.to_decomposition();
        let bags = pd.bags();
        let s = bags.len() as u32;
        g.edges()
            .map(|(_, e)| {
                let (mut x, mut y) = (e.u, e.v);
                if cfg.id_of(x) > cfg.id_of(y) {
                    std::mem::swap(&mut x, &mut y);
                }
                let (ia, ib) = (rep.interval(x), rep.interval(y));
                let mut frames = Vec::new();
                // Endpoints of both intervals: O(log s) canonical
                // ranges each.
                let points = vec![ia.lo, ia.hi, ib.lo, ib.hi];
                frames_for(cfg, bags, 0, s.max(1), &points, &mut frames);
                frames.dedup();
                BaselineLabel {
                    iv_a: (ia.lo, ia.hi),
                    iv_b: (ib.lo, ib.hi),
                    a: cfg.id_of(x),
                    b: cfg.id_of(y),
                    frames,
                }
            })
            .collect()
    }
}

impl Scheme for BaselineScheme {
    type Label = BaselineLabel;

    fn name(&self) -> String {
        "fmr-baseline".into()
    }

    fn prove(
        &self,
        cfg: &Configuration,
        hint: &ProverHint,
    ) -> Result<Vec<BaselineLabel>, CertError> {
        // `resolve` has already validated a supplied representation.
        let rep = hint.resolve(cfg)?;
        Ok(Self::build_labels(cfg, &rep))
    }

    /// Interval overlap on every edge, my id mentioned, separator bags
    /// that contain my bag-interval's midpoint list me.
    fn verify_at(&self, view: &VertexView<BaselineLabel>) -> Verdict {
        let mut my_iv: Option<(u32, u32)> = None;
        for l in view.incident {
            let Some(l) = l else {
                return Verdict::reject("undecodable baseline label");
            };
            let mine = if l.a == view.id {
                l.iv_a
            } else if l.b == view.id {
                l.iv_b
            } else {
                return Verdict::reject("label does not mention me");
            };
            if *my_iv.get_or_insert(mine) != mine {
                return Verdict::reject("inconsistent own interval");
            }
            let other = if l.a == view.id { l.iv_b } else { l.iv_a };
            if mine.0 > other.1 || other.0 > mine.1 {
                return Verdict::reject("adjacent intervals disjoint");
            }
            for f in &l.frames {
                if f.lo >= f.hi {
                    return Verdict::reject("empty frame range");
                }
                // lo < hi, so this midpoint form cannot overflow on
                // adversarial range bounds.
                let mid = f.lo + (f.hi - f.lo) / 2;
                let me_in_sep = mine.0 <= mid && mid <= mine.1;
                if me_in_sep && !f.separator.contains(&view.id) {
                    return Verdict::reject("separator bag omits me");
                }
            }
        }
        Verdict::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_graph::generators;
    use lanecert_pathwidth::solver;

    fn rep_of(g: &lanecert_graph::Graph) -> IntervalRep {
        let (_, pd) = solver::pathwidth_exact(g).unwrap();
        IntervalRep::from_decomposition(&pd, g.vertex_count())
    }

    #[test]
    fn completeness_on_families() {
        for g in [
            generators::path_graph(12),
            generators::cycle_graph(9),
            generators::caterpillar(4, 2),
        ] {
            let rep = rep_of(&g);
            let cfg = Configuration::with_random_ids(g, 4);
            let hint = ProverHint::with_representation(rep);
            let labels = BaselineScheme.prove(&cfg, &hint).unwrap();
            let report = BaselineScheme.run(&cfg, &labels).unwrap();
            assert!(report.accepted(), "{:?}", report.first_rejection());
        }
    }

    #[test]
    fn corrupted_interval_is_rejected() {
        let g = generators::path_graph(10);
        let rep = rep_of(&g);
        let cfg = Configuration::with_sequential_ids(g);
        let mut labels = BaselineScheme::prove_with_rep(&cfg, &rep).unwrap();
        labels[4].iv_a = (90, 95); // disjoint from its neighbour
        let report = BaselineScheme.run(&cfg, &labels).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn label_size_grows_like_log_squared() {
        // Compare total frame payload between n and n²: super-logarithmic.
        let sizes: Vec<usize> = [64usize, 4096]
            .iter()
            .map(|&n| {
                let g = generators::path_graph(n);
                // Direct width-2 representation of a path: I_{v_i} = [i, i+1].
                let rep = IntervalRep::new(
                    (0..n as u32)
                        .map(|i| lanecert_pathwidth::Interval::new(i, i + 1))
                        .collect(),
                );
                let cfg = Configuration::with_sequential_ids(g);
                let labels = BaselineScheme::prove_with_rep(&cfg, &rep).unwrap();
                labels.iter().map(crate::bits::bit_len).max().unwrap()
            })
            .collect();
        // log² growth: quadrupling the exponent should much more than
        // double the size... at least it must strictly grow.
        assert!(sizes[1] > sizes[0] * 2, "sizes: {sizes:?}");
    }
}
