//! Declarative, streaming corpora: families × sizes × seeds.
//!
//! A [`CorpusSpec`] names *what* to certify — graph families from
//! `lanecert_graph::generators`, instance sizes, and RNG seeds — and
//! [`CorpusSpec::jobs`] streams the cross product lazily as
//! [`BatchJob`]s: each instance is generated on demand, so a corpus of
//! thousands of configurations never sits in memory at once and the
//! engine's bounded in-flight window is the only working set.
//!
//! Families with a known decomposition (those whose
//! [`CorpusFamily::instance`] returns a representation) attach a
//! [`ProverHint`] carrying an interval representation that
//! witnesses their pathwidth, which is how corpora scale past the
//! automatic-derivation limit; the rest rely on the certifier's hint
//! resolution (exact solver, then heuristic fallback) or deliberately
//! exercise refusal paths (e.g. [`CorpusFamily::DisjointPaths`] streams
//! disconnected no-instances).
//!
//! Reproducibility: instances are pure functions of `(family, n, seed)`
//! on top of the workspace's pinned `StdRng` stream (regression-tested in
//! the `rand` shim), so a corpus spec is a complete, platform-independent
//! description of a workload.

use lanecert::{BatchJob, Configuration, ProverHint};
use lanecert_graph::{generators, Graph, VertexId};
use lanecert_pathwidth::{Interval, IntervalRep, PathDecomposition};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A graph family the corpus pipeline can stream.
///
/// Every variant maps `(n, seed)` to one configuration; deterministic
/// families ignore the seed except for identifier assignment.
#[derive(Clone, Debug, PartialEq)]
pub enum CorpusFamily {
    /// The path `P_n` (pathwidth 1), with its trivial representation.
    Path,
    /// The cycle `C_n` (pathwidth 2), with a Figure-1-style
    /// representation. Requires `n ≥ 3`.
    Cycle,
    /// The ladder `P_{n/2} × K_2` (pathwidth 2), with a sliding-bag
    /// representation.
    Ladder,
    /// A caterpillar with `n/3` spine vertices and two legs each
    /// (pathwidth 1), with a spine-walk representation.
    Caterpillar,
    /// A random connected graph of pathwidth ≤ `k` (bag-walk
    /// construction), with the representation its generator witnesses.
    RandomPathwidth {
        /// Pathwidth bound of the generated graph.
        k: usize,
        /// Probability of each extra in-bag edge.
        density: f64,
    },
    /// A random interval graph with interval lengths ≤ `max_len` on a
    /// span of `4n`; the generating intervals are the representation.
    /// May be disconnected (a refusal-path instance).
    RandomInterval {
        /// Maximum interval length.
        max_len: u32,
    },
    /// A uniformly random tree (no supplied representation — exercises
    /// the certifier's automatic hint derivation).
    RandomTree,
    /// A preferential-attachment tree (no supplied representation;
    /// hub-heavy degrees).
    PowerLawTree,
    /// An Erdős–Rényi `G(n, p)` (no supplied representation; may be
    /// disconnected or wide — the fuzz-shaped corner of a corpus).
    Gnp {
        /// Edge probability.
        p: f64,
    },
    /// Two disjoint paths — always disconnected, so every instance is a
    /// model-level refusal. Keeps refusal accounting honest at scale.
    DisjointPaths,
}

impl CorpusFamily {
    /// The family's display name (used in job names and reports).
    pub fn name(&self) -> &'static str {
        match self {
            CorpusFamily::Path => "path",
            CorpusFamily::Cycle => "cycle",
            CorpusFamily::Ladder => "ladder",
            CorpusFamily::Caterpillar => "caterpillar",
            CorpusFamily::RandomPathwidth { .. } => "random-pathwidth",
            CorpusFamily::RandomInterval { .. } => "random-interval",
            CorpusFamily::RandomTree => "random-tree",
            CorpusFamily::PowerLawTree => "power-law-tree",
            CorpusFamily::Gnp { .. } => "gnp",
            CorpusFamily::DisjointPaths => "disjoint-paths",
        }
    }

    /// Builds one instance: the graph and, for representation-bearing
    /// families, the interval representation witnessing its pathwidth.
    pub fn instance(&self, n: usize, seed: u64) -> (Graph, Option<IntervalRep>) {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            CorpusFamily::Path => {
                let g = generators::path_graph(n);
                let rep =
                    IntervalRep::new((0..n as u32).map(|i| Interval::new(i, i + 1)).collect());
                (g, Some(rep))
            }
            CorpusFamily::Cycle => {
                let n = n.max(3);
                let g = generators::cycle_graph(n);
                // Bags {v0, vi, v(i+1)}: every rim edge sits in its own
                // bag and the closing edge in the last one; width 2.
                let bags = (1..n - 1)
                    .map(|i| vec![VertexId::new(0), VertexId::new(i), VertexId::new(i + 1)])
                    .collect();
                (g, Some(rep_from_bags(bags, n)))
            }
            CorpusFamily::Ladder => {
                let cols = (n / 2).max(2);
                let g = generators::ladder(cols);
                // Vertex (r, c) lives at index r * cols + c; slide a pair
                // of width-3 bags across each rung: width 2.
                let at = |r: usize, c: usize| VertexId::new(r * cols + c);
                let mut bags = Vec::with_capacity(2 * cols);
                for c in 0..cols - 1 {
                    bags.push(vec![at(0, c), at(1, c), at(0, c + 1)]);
                    bags.push(vec![at(1, c), at(0, c + 1), at(1, c + 1)]);
                }
                (g, Some(rep_from_bags(bags, 2 * cols)))
            }
            CorpusFamily::Caterpillar => {
                let spine = (n / 3).max(2);
                let legs = 2;
                let g = generators::caterpillar(spine, legs);
                // Walk the spine; each spine vertex hosts one bag per leg
                // plus the bag sharing it with its successor: width 1.
                let mut bags = Vec::with_capacity(spine * (legs + 1));
                for s in 0..spine {
                    for leg in 0..legs {
                        bags.push(vec![
                            VertexId::new(s),
                            VertexId::new(spine + s * legs + leg),
                        ]);
                    }
                    if s + 1 < spine {
                        bags.push(vec![VertexId::new(s), VertexId::new(s + 1)]);
                    }
                }
                let vertices = g.vertex_count();
                (g, Some(rep_from_bags(bags, vertices)))
            }
            CorpusFamily::RandomPathwidth { k, density } => {
                let n = n.max(k + 1);
                let (g, bags) = generators::random_pathwidth_graph(n, *k, *density, &mut rng);
                (g, Some(rep_from_bags(bags, n)))
            }
            CorpusFamily::RandomInterval { max_len } => {
                let span = (4 * n.max(1)) as u32;
                let (g, intervals) =
                    generators::random_interval_graph(n, span, (*max_len).min(span), &mut rng);
                let rep = IntervalRep::new(
                    intervals
                        .into_iter()
                        .map(|(lo, hi)| Interval::new(lo, hi))
                        .collect(),
                );
                (g, Some(rep))
            }
            CorpusFamily::RandomTree => (generators::random_tree(n, &mut rng), None),
            CorpusFamily::PowerLawTree => (generators::power_law_tree(n, &mut rng), None),
            CorpusFamily::Gnp { p } => (generators::gnp(n, *p, &mut rng), None),
            CorpusFamily::DisjointPaths => {
                let n = n.max(2);
                let g = generators::disjoint_union(
                    &generators::path_graph(n / 2),
                    &generators::path_graph(n - n / 2),
                );
                (g, None)
            }
        }
    }
}

fn rep_from_bags(bags: Vec<Vec<VertexId>>, n: usize) -> IntervalRep {
    IntervalRep::from_decomposition(&PathDecomposition::new(bags), n)
}

/// A declarative corpus: the cross product `families × sizes × seeds`,
/// streamed lazily.
///
/// ```
/// use lanecert_engine::{CorpusFamily, CorpusSpec};
///
/// let spec = CorpusSpec::new()
///     .family(CorpusFamily::Path)
///     .family(CorpusFamily::Cycle)
///     .sizes([16, 64])
///     .seeds([1, 2, 3]);
/// assert_eq!(spec.len(), 2 * 2 * 3);
/// let first = spec.jobs().next().unwrap();
/// assert_eq!(first.name.as_deref(), Some("path/n16/s1"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CorpusSpec {
    families: Vec<CorpusFamily>,
    sizes: Vec<usize>,
    seeds: Vec<u64>,
}

impl CorpusSpec {
    /// An empty spec (streams nothing until families, sizes, and seeds
    /// are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one family.
    pub fn family(mut self, family: CorpusFamily) -> Self {
        self.families.push(family);
        self
    }

    /// Adds families.
    pub fn families(mut self, families: impl IntoIterator<Item = CorpusFamily>) -> Self {
        self.families.extend(families);
        self
    }

    /// Adds one instance size.
    pub fn size(mut self, n: usize) -> Self {
        self.sizes.push(n);
        self
    }

    /// Adds instance sizes.
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.sizes.extend(sizes);
        self
    }

    /// Adds one RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Adds RNG seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Number of jobs the spec will stream.
    pub fn len(&self) -> usize {
        self.families.len() * self.sizes.len() * self.seeds.len()
    }

    /// `true` when the spec streams no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams the corpus as [`BatchJob`]s, one per
    /// `(family, size, seed)` triple in spec order, building each
    /// instance only when the pipeline pulls it. Jobs are named
    /// `family/nSIZE/sSEED`; identifier assignment reuses the instance
    /// seed.
    pub fn jobs(&self) -> impl Iterator<Item = BatchJob> + '_ {
        self.families.iter().flat_map(move |family| {
            self.sizes.iter().flat_map(move |&n| {
                self.seeds.iter().map(move |&seed| {
                    let (graph, rep) = family.instance(n, seed);
                    let cfg = Configuration::with_random_ids(graph, seed);
                    let mut job =
                        BatchJob::new(cfg).named(format!("{}/n{}/s{}", family.name(), n, seed));
                    if let Some(rep) = rep {
                        job = job.with_hint(ProverHint::with_representation(rep));
                    }
                    job
                })
            })
        })
    }

    /// All representation-bearing benchmark families at their default
    /// parameters — the corpus the throughput sweeps stream.
    pub fn benchmark_families() -> Vec<CorpusFamily> {
        vec![
            CorpusFamily::Path,
            CorpusFamily::Cycle,
            CorpusFamily::Ladder,
            CorpusFamily::Caterpillar,
            CorpusFamily::RandomPathwidth { k: 2, density: 0.4 },
        ]
    }
}

/// A named set of MSO₂ formulas to sweep through the compiled
/// (Courcelle front-end) scheme — the formula-level analogue of
/// [`CorpusSpec`].
///
/// [`FormulaCorpus::standard`] starts from the catalog of
/// `lanecert::compiled::standard_formulas`; [`FormulaCorpus::parse`]
/// adds runtime-supplied formulas in the s-expression syntax of
/// `lanecert_mso::sexpr`, so a workload file can sweep user formulas the
/// workspace has never seen:
///
/// ```
/// use lanecert_engine::FormulaCorpus;
///
/// let corpus = FormulaCorpus::standard()
///     .parse("has-edge", "(exists-edge e true)")
///     .unwrap();
/// assert!(corpus.names().any(|n| n == "has-edge"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FormulaCorpus {
    entries: Vec<(String, lanecert_mso::Formula)>,
}

impl FormulaCorpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard catalog: every formula of
    /// `lanecert::compiled::standard_formulas`, under its catalog name.
    pub fn standard() -> Self {
        let mut corpus = Self::new();
        for entry in lanecert::compiled::standard_formulas() {
            corpus = corpus.formula(entry.name, entry.formula());
        }
        corpus
    }

    /// Adds one formula under a display name.
    pub fn formula(mut self, name: impl Into<String>, formula: lanecert_mso::Formula) -> Self {
        self.entries.push((name.into(), formula));
        self
    }

    /// Parses and adds an s-expression formula (the runtime-supplied
    /// path; see `lanecert_mso::sexpr` for the syntax).
    ///
    /// # Errors
    ///
    /// [`CertError::InvalidSpec`](lanecert::CertError) when `src` does
    /// not parse.
    pub fn parse(self, name: impl Into<String>, src: &str) -> Result<Self, lanecert::CertError> {
        let formula = lanecert_mso::sexpr::parse(src).map_err(|e| {
            lanecert::CertError::InvalidSpec(format!("formula does not parse: {e}"))
        })?;
        Ok(self.formula(name, formula))
    }

    /// Number of formulas.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the corpus holds no formulas.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The display names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// The `(name, formula)` pairs, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &lanecert_mso::Formula)> {
        self.entries.iter().map(|(n, f)| (n.as_str(), f))
    }

    /// Builds one compiled certifier per formula (insertion order). Each
    /// build is reported individually — a formula whose compiled state
    /// space overruns its freeze budget yields `Err(InvalidSpec)` without
    /// sinking the rest of the sweep.
    pub fn certifiers(
        &self,
    ) -> impl Iterator<Item = (&str, Result<lanecert::Certifier, lanecert::CertError>)> {
        self.entries.iter().map(|(name, formula)| {
            let built = lanecert::Certifier::builder()
                .compiled(formula.clone())
                .build();
            (name.as_str(), built)
        })
    }

    /// A `pathwidth ≤ 1` yes-instance for the named standard formula —
    /// the graph the smoke sweeps certify it on. Formulas differ in
    /// where they hold (`max-degree-1` only on a single edge,
    /// `vertex-cover-1` on stars, the rest on paths), so the witness is
    /// per-name; unknown names get a path.
    pub fn witness(name: &str, n: usize) -> Graph {
        match name {
            "max-degree-1" => generators::path_graph(2),
            "vertex-cover-1" => generators::star(n.max(3)),
            _ => generators::path_graph(n.max(3)),
        }
    }

    /// One [`BatchJob`] per formula on its [`FormulaCorpus::witness`]
    /// graph (a hintless yes-instance; the compiled scheme's automatic
    /// decomposition covers pathwidth-1 graphs of these sizes).
    pub fn witness_jobs(&self, n: usize, seed: u64) -> impl Iterator<Item = BatchJob> + '_ {
        self.entries.iter().map(move |(name, _)| {
            let cfg = Configuration::with_random_ids(Self::witness(name, n), seed);
            BatchJob::new(cfg).named(format!("{name}/n{n}/s{seed}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representations_witness_their_graphs() {
        for family in [
            CorpusFamily::Path,
            CorpusFamily::Cycle,
            CorpusFamily::Ladder,
            CorpusFamily::Caterpillar,
            CorpusFamily::RandomPathwidth { k: 2, density: 0.5 },
            CorpusFamily::RandomInterval { max_len: 5 },
        ] {
            for n in [8usize, 33, 100] {
                let (g, rep) = family.instance(n, 7);
                let rep = rep.expect("hinted family");
                rep.validate(&g)
                    .unwrap_or_else(|e| panic!("{}/n{n}: {e}", family.name()));
            }
        }
    }

    #[test]
    fn structured_family_widths_are_tight() {
        // The deterministic families promise constant widths
        // (`IntervalRep::width` is the bag size, pathwidth + 1).
        for (family, width) in [
            (CorpusFamily::Path, 2),
            (CorpusFamily::Cycle, 3),
            (CorpusFamily::Ladder, 3),
            (CorpusFamily::Caterpillar, 2),
        ] {
            let (_, rep) = family.instance(60, 3);
            assert_eq!(rep.unwrap().width(), width, "{}", family.name());
        }
    }

    #[test]
    fn hintless_families_build() {
        for family in [
            CorpusFamily::RandomTree,
            CorpusFamily::PowerLawTree,
            CorpusFamily::Gnp { p: 0.2 },
            CorpusFamily::DisjointPaths,
        ] {
            let (g, rep) = family.instance(20, 1);
            assert_eq!(g.vertex_count(), 20, "{}", family.name());
            assert!(rep.is_none());
        }
        // Disjoint paths are disconnected by construction.
        let (g, _) = CorpusFamily::DisjointPaths.instance(12, 2);
        assert!(!lanecert_graph::components::is_connected(&g));
    }

    #[test]
    fn formula_corpus_lists_parses_and_builds() {
        let corpus = FormulaCorpus::standard();
        // The whole standard catalog is present, in catalog order.
        let names: Vec<&str> = corpus.names().collect();
        assert!(names.len() >= 6, "catalog shrank: {names:?}");
        assert!(names.contains(&"connected") && names.contains(&"bipartite"));
        // Runtime-parsed formulas join the sweep; parse failures are
        // reported as InvalidSpec.
        let with_user = corpus
            .clone()
            .parse("has-edge", "(exists-edge e true)")
            .unwrap();
        assert_eq!(with_user.len(), corpus.len() + 1);
        assert!(matches!(
            FormulaCorpus::new().parse("broken", "(exists-vertex").err(),
            Some(lanecert::CertError::InvalidSpec(_))
        ));
        // Witness jobs cover every formula, named like corpus jobs.
        let jobs: Vec<_> = with_user.witness_jobs(8, 3).collect();
        assert_eq!(jobs.len(), with_user.len());
        assert_eq!(jobs[0].name.as_deref(), Some("connected/n8/s3"));
        // The cheap user formula builds and certifies its witness
        // end-to-end (the heavyweight catalog builds are exercised by the
        // engine parity suite and the release smoke sweep).
        let (name, built) = FormulaCorpus::new()
            .parse("has-edge", "(exists-edge e true)")
            .unwrap()
            .certifiers()
            .next()
            .map(|(n, b)| (n.to_string(), b))
            .unwrap();
        let certifier = built.unwrap_or_else(|e| panic!("{name}: {e}"));
        let cfg = Configuration::with_random_ids(FormulaCorpus::witness(&name, 8), 1);
        assert!(certifier.run(&cfg).unwrap().accepted());
    }

    #[test]
    fn spec_streams_the_cross_product_deterministically() {
        let spec = CorpusSpec::new()
            .families([CorpusFamily::Path, CorpusFamily::Cycle])
            .sizes([6, 9])
            .seed(11)
            .seed(12);
        assert_eq!(spec.len(), 8);
        let names: Vec<String> = spec.jobs().map(|j| j.name.unwrap()).collect();
        assert_eq!(names[0], "path/n6/s11");
        assert_eq!(names[7], "cycle/n9/s12");
        assert_eq!(names.len(), 8);
        // Same spec, same stream: configurations are seed-derived.
        let a: Vec<_> = spec.jobs().map(|j| j.cfg.n()).collect();
        let b: Vec<_> = spec.jobs().map(|j| j.cfg.n()).collect();
        assert_eq!(a, b);
    }
}
