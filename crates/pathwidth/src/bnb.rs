//! Branch-and-bound vertex-separation solver with memoized prefixes,
//! after Coudert–Mazauric–Nisse ("Experimental evaluation of a branch
//! and bound algorithm for computing pathwidth", SEA 2014).
//!
//! Pathwidth equals the vertex separation number, so the search runs
//! over vertex orderings: a node of the tree is a *prefix* (the set of
//! vertices already ordered), and branching appends one more vertex.
//! Four ingredients keep the tree small:
//!
//! * **Greedy-exact extension** — whenever some remaining vertex `v`
//!   does not increase the prefix boundary (`∂(S ∪ {v}) ≤ ∂(S)`), it is
//!   appended for free. This is optimality-safe: each prefix vertex
//!   whose only outside neighbour is `v` compensates `v`'s own boundary
//!   entry for *every* superset of `S`, so moving `v` to the front of
//!   any completion never raises a later boundary.
//! * **Seeded upper bound** — the beam heuristic
//!   ([`pathwidth_heuristic`]) runs first; its decomposition is the
//!   incumbent, so the search only ever explores strictly-improving
//!   branches and the heuristic result doubles as the over-budget
//!   fallback. When the seed already matches the cheap lower bound
//!   ([`crate::solver::pathwidth_lower_bound`]) the search is skipped
//!   entirely.
//! * **Lower-bound pruning** — branches whose separation-so-far cannot
//!   beat the incumbent are cut, and the whole search stops once the
//!   incumbent meets the graph's degeneracy bound.
//! * **Memoized prefixes** — a table from prefix vertex-*set* to the
//!   smallest separation it has been reached with; arriving again no
//!   better is a dominated re-visit and prunes immediately. The table
//!   is budgeted (prefixes of at most [`DEFAULT_MAX_PREFIX_LENGTH`]
//!   vertices, at most `max_seen_entries` entries, after the
//!   bounded-memoization tables of the thinness solvers) so memory
//!   stays bounded on large instances.
//!
//! Prefixes are dense bitsets over the [`CsrGraph`] arena and boundary
//! counts are maintained incrementally per vertex, so the candidate
//! evaluation in the inner loop is allocation-free (`// lint:
//! zero-alloc` checked). Budgets are counted in *work units* (one per
//! adjacency-half touched) rather than wall-clock time, keeping every
//! result a pure function of the graph and options, on any thread —
//! the purity the engine's bit-parity suites rely on for hintless jobs
//! (pinned by `tests/bnb_parity.rs`).
//!
//! The search is sequential. Hintless proving reaches it through
//! `ProverHint::resolve` with [`BnbOptions::for_auto`]; batch-level
//! parallelism comes from running whole jobs on separate workers.

use std::collections::HashMap;

use lanecert_graph::{CsrGraph, Graph, VertexId};
use lanecert_obs::{counter_add, names};

use crate::solver::{pathwidth_heuristic, HeuristicBound};
use crate::PathDecomposition;

/// Cap on the length of memoized prefixes: longer prefixes are searched
/// but not tabled (deep levels have the most sets and the fewest
/// re-visits).
pub const DEFAULT_MAX_PREFIX_LENGTH: usize = 64;

/// Default cap on the number of memo-table entries.
pub const DEFAULT_MAX_SEEN_ENTRIES: usize = 1 << 20;

/// Default work budget (adjacency halves touched) for one search.
///
/// Empirical envelope (`gnp` across densities 0.1–0.8): this budget
/// proves optimality on every random graph through ~16 vertices and on
/// structured families well past 20, but dense random graphs from ~18
/// vertices up can exhaust it — the search then reports its best upper
/// bound with `optimal: false`. Raise `max_work` when an optimality
/// proof matters more than latency.
pub const DEFAULT_MAX_WORK: u64 = 64_000_000;

/// Beam width handed to the seeding [`pathwidth_heuristic`].
pub const DEFAULT_BEAM: usize = 8;

/// Tuning knobs for [`pathwidth_bnb`]. The defaults are sized for
/// exactness on small-to-medium graphs; [`BnbOptions::for_auto`] scales
/// the work budget down with instance size for the hintless prover
/// path, where a missing hint must never stall a batch.
#[derive(Clone, Debug)]
pub struct BnbOptions {
    /// Stop inserting memo entries past this table size
    /// ([`DEFAULT_MAX_SEEN_ENTRIES`]); lookups continue.
    pub max_seen_entries: usize,
    /// Deterministic node/work budget ([`DEFAULT_MAX_WORK`]): one unit
    /// per adjacency half touched while evaluating candidates. When it
    /// runs out the best incumbent so far (at worst the heuristic seed)
    /// is returned with `optimal: false`.
    pub max_work: u64,
}

impl Default for BnbOptions {
    fn default() -> Self {
        Self {
            max_seen_entries: DEFAULT_MAX_SEEN_ENTRIES,
            max_work: DEFAULT_MAX_WORK,
        }
    }
}

impl BnbOptions {
    /// Options for the automatic hintless prover path: the work budget
    /// shrinks with `n` (per-node cost grows with it), so a hintless
    /// batch job pays a bounded, size-aware solver cost before falling
    /// back to the heuristic seed.
    pub fn for_auto(n: usize) -> Self {
        let max_work = (DEFAULT_MAX_WORK / (n as u64).max(1)).clamp(500_000, 16_000_000);
        Self {
            max_work,
            ..Self::default()
        }
    }
}

/// Search counters reported by [`pathwidth_bnb`]; also exported as
/// observability counters (`bnb_nodes` / `bnb_prunes` /
/// `bnb_memo_hits`).
#[derive(Clone, Copy, Debug, Default)]
pub struct BnbStats {
    /// Branch nodes expanded.
    pub nodes: u64,
    /// Branches cut by the incumbent bound.
    pub prunes: u64,
    /// Dominated re-visits answered by the prefix memo table.
    pub memo_hits: u64,
    /// Entries resident in the memo table at the end of the search.
    pub memo_entries: u64,
    /// Work units spent (adjacency halves touched).
    pub work: u64,
    /// Width of the heuristic seed.
    pub seed_width: usize,
    /// Whether the seed already matched the lower bound (search
    /// skipped).
    pub seed_known_optimal: bool,
}

/// The result of a branch-and-bound search.
#[derive(Clone, Debug)]
pub struct BnbResult {
    /// The best width found (exact when `optimal`).
    pub width: usize,
    /// A witnessing decomposition of that width.
    pub decomposition: PathDecomposition,
    /// Whether the search was exhaustive (or the width met the lower
    /// bound) — i.e. `width` is exactly the pathwidth.
    pub optimal: bool,
    /// Search counters.
    pub stats: BnbStats,
}

/// The branch-and-bound workspace: dense prefix bitset, per-vertex
/// outside-neighbour counts, the undo stacks, the budgeted memo table,
/// and the incumbent.
struct Search<'a> {
    g: &'a CsrGraph,
    n: usize,
    lb: u32,
    opts: &'a BnbOptions,
    /// Dense prefix bitset (`n` bits in `u64` words).
    inside: Vec<u64>,
    /// Per-vertex count of neighbours outside the prefix.
    outcnt: Vec<u32>,
    /// Prefix vertices with at least one neighbour outside.
    boundary: u32,
    /// Saved boundaries, one per prefix vertex, for exact undo.
    bstack: Vec<u32>,
    order: Vec<VertexId>,
    /// Flat arena of `(new_boundary, vertex)` child candidates; each
    /// frame works on its own suffix range.
    children: Vec<(u32, u32)>,
    /// Prefix vertex-set → smallest separation it was reached with.
    memo: HashMap<Box<[u64]>, u32>,
    best_width: u32,
    best_order: Vec<VertexId>,
    improved: bool,
    work: u64,
    exhausted: bool,
    nodes: u64,
    prunes: u64,
    memo_hits: u64,
}

impl<'a> Search<'a> {
    fn new(g: &'a CsrGraph, lb: usize, ub: usize, opts: &'a BnbOptions) -> Self {
        let n = g.vertex_count();
        Search {
            g,
            n,
            lb: lb as u32,
            opts,
            inside: vec![0; n.div_ceil(64)],
            outcnt: (0..n).map(|v| g.degree(VertexId::new(v)) as u32).collect(),
            boundary: 0,
            bstack: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            children: Vec::new(),
            memo: HashMap::new(),
            best_width: ub as u32,
            best_order: Vec::new(),
            improved: false,
            work: 0,
            exhausted: false,
            nodes: 0,
            prunes: 0,
            memo_hits: 0,
        }
    }

    /// Boundary of the prefix after appending `v` — the allocation-free
    /// inner loop of the search: `v` joins the boundary iff it keeps an
    /// outside neighbour, and each prefix neighbour whose only outside
    /// neighbour was `v` leaves it.
    #[inline]
    fn new_boundary(&self, v: usize) -> u32 {
        // lint: zero-alloc {
        let mut b = self.boundary + u32::from(self.outcnt[v] > 0);
        for h in self.g.incident(VertexId::new(v)) {
            let u = h.to.index();
            if self.inside[u >> 6] & (1u64 << (u & 63)) != 0 && self.outcnt[u] == 1 {
                b -= 1;
            }
        }
        b
        // lint: }
    }

    /// Work charged for evaluating one candidate.
    #[inline]
    fn charge(&mut self, v: usize) {
        self.work += self.g.degree(VertexId::new(v)) as u64 + 1;
    }

    fn push_vertex(&mut self, v: usize) {
        self.bstack.push(self.boundary);
        self.boundary = self.new_boundary(v);
        self.inside[v >> 6] |= 1u64 << (v & 63);
        for h in self.g.incident(VertexId::new(v)) {
            self.outcnt[h.to.index()] -= 1;
        }
        self.order.push(VertexId::new(v));
    }

    fn pop_vertex(&mut self) {
        let v = self.order.pop().expect("pop matches a push").index();
        for h in self.g.incident(VertexId::new(v)) {
            self.outcnt[h.to.index()] += 1;
        }
        self.inside[v >> 6] &= !(1u64 << (v & 63));
        self.boundary = self.bstack.pop().expect("bstack matches order");
    }

    /// Greedy-exact extension: repeatedly appends any remaining vertex
    /// that does not increase the boundary, until a full pass adds
    /// nothing. Returns the number of vertices appended (for undo).
    fn greedy_extend(&mut self) -> usize {
        let mut added = 0;
        loop {
            let mut any = false;
            for wi in 0..self.inside.len() {
                let mut m = !self.inside[wi];
                if (wi + 1) << 6 > self.n {
                    m &= (1u64 << (self.n & 63)) - 1;
                }
                while m != 0 {
                    let v = (wi << 6) + m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.charge(v);
                    if self.new_boundary(v) <= self.boundary {
                        self.push_vertex(v);
                        added += 1;
                        any = true;
                    }
                    if self.work >= self.opts.max_work {
                        self.exhausted = true;
                        return added;
                    }
                }
            }
            if !any {
                break;
            }
        }
        added
    }

    /// Enumerates, bounds, and sorts the children of the current
    /// prefix into `self.children[base..]`.
    fn collect_children(&mut self, vs: u32, base: usize) {
        for wi in 0..self.inside.len() {
            let mut m = !self.inside[wi];
            if (wi + 1) << 6 > self.n {
                m &= (1u64 << (self.n & 63)) - 1;
            }
            while m != 0 {
                let v = (wi << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                self.charge(v);
                let nb = self.new_boundary(v);
                if vs.max(nb) < self.best_width {
                    self.children.push((nb, v as u32));
                } else {
                    self.prunes += 1;
                }
            }
        }
        self.children[base..].sort_unstable();
    }

    /// One branch node: greedy-extend, check the memo, then recurse
    /// into the surviving children in increasing-separation order.
    /// `vs` is the vertex separation of the current prefix.
    fn branch(&mut self, vs: u32) {
        if self.exhausted || self.best_width <= self.lb {
            return;
        }
        self.nodes += 1;
        let added = self.greedy_extend();
        'done: {
            if self.exhausted {
                break 'done;
            }
            if self.order.len() == self.n {
                if vs < self.best_width {
                    self.best_width = vs;
                    self.best_order.clear();
                    self.best_order.extend_from_slice(&self.order);
                    self.improved = true;
                }
                break 'done;
            }
            if self.order.len() <= DEFAULT_MAX_PREFIX_LENGTH {
                if let Some(m) = self.memo.get_mut(&self.inside[..]) {
                    if *m <= vs {
                        self.memo_hits += 1;
                        break 'done;
                    }
                    *m = vs;
                } else if self.memo.len() < self.opts.max_seen_entries {
                    self.memo.insert(self.inside.clone().into_boxed_slice(), vs);
                }
            }
            let base = self.children.len();
            self.collect_children(vs, base);
            let mut i = base;
            while i < self.children.len() {
                let (nb, v) = self.children[i];
                let child_vs = vs.max(nb);
                if child_vs >= self.best_width {
                    // Sorted ascending: every later sibling prunes too.
                    self.prunes += (self.children.len() - i) as u64;
                    break;
                }
                self.push_vertex(v as usize);
                self.branch(child_vs);
                self.pop_vertex();
                if self.exhausted || self.best_width <= self.lb {
                    break;
                }
                i += 1;
            }
            self.children.truncate(base);
        }
        for _ in 0..added {
            self.pop_vertex();
        }
    }

    fn stats(&self, seed: &HeuristicBound) -> BnbStats {
        BnbStats {
            nodes: self.nodes,
            prunes: self.prunes,
            memo_hits: self.memo_hits,
            memo_entries: self.memo.len() as u64,
            work: self.work,
            seed_width: seed.width,
            seed_known_optimal: seed.known_optimal,
        }
    }
}

fn record_counters(stats: &BnbStats) {
    counter_add(names::BNB_NODES, stats.nodes);
    counter_add(names::BNB_PRUNES, stats.prunes);
    counter_add(names::BNB_MEMO_HITS, stats.memo_hits);
}

/// Computes the pathwidth by branch-and-bound over vertex orderings,
/// seeded (and bounded) by the beam heuristic.
///
/// Always returns a valid decomposition: the incumbent when the search
/// improves on the seed, the heuristic seed otherwise — so the result
/// is never worse than [`pathwidth_heuristic`] alone, and `optimal`
/// reports whether it is exactly the pathwidth (search exhausted, or
/// the width met the degeneracy lower bound). Deterministic: a pure
/// function of the graph and options.
pub fn pathwidth_bnb(g: &Graph, opts: &BnbOptions) -> BnbResult {
    let _span = lanecert_obs::span!("pathwidth_bnb");
    let seed = pathwidth_heuristic(g, DEFAULT_BEAM);
    let mut stats = BnbStats {
        seed_width: seed.width,
        seed_known_optimal: seed.known_optimal,
        ..BnbStats::default()
    };
    if seed.known_optimal {
        record_counters(&stats);
        return BnbResult {
            width: seed.width,
            decomposition: seed.decomposition,
            optimal: true,
            stats,
        };
    }
    let csr = CsrGraph::from_graph(g);
    let mut s = Search::new(&csr, seed.lower_bound, seed.width, opts);
    s.branch(0);
    stats = s.stats(&seed);
    record_counters(&stats);
    let optimal = !s.exhausted || s.best_width as usize == seed.lower_bound;
    let (width, decomposition) = if s.improved {
        let pd = PathDecomposition::from_order(g, &s.best_order);
        debug_assert_eq!(pd.width(), s.best_width as usize);
        (s.best_width as usize, pd)
    } else {
        (seed.width, seed.decomposition)
    };
    BnbResult {
        width,
        decomposition,
        optimal,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::pathwidth_exact;
    use lanecert_graph::generators;
    use rand::SeedableRng;

    fn assert_matches_exact(g: &Graph) {
        let (pw, _) = pathwidth_exact(g).unwrap();
        let r = pathwidth_bnb(g, &BnbOptions::default());
        r.decomposition.validate(g).unwrap();
        assert!(r.optimal, "default budget must suffice on this family");
        assert_eq!(r.width, pw, "graph {g:?}");
        assert_eq!(r.decomposition.width(), pw);
    }

    #[test]
    fn matches_exact_on_known_families() {
        for g in [
            generators::path_graph(1),
            generators::path_graph(12),
            generators::cycle_graph(3),
            generators::cycle_graph(17),
            generators::star(9),
            generators::caterpillar(5, 2),
            generators::complete_graph(7),
            generators::complete_bipartite(3, 5),
            generators::ladder(8),
            generators::grid(3, 5),
            generators::grid(4, 5),
            generators::binary_tree(4),
            Graph::new(0),
            Graph::new(5),
        ] {
            if g.vertex_count() == 0 {
                let r = pathwidth_bnb(&g, &BnbOptions::default());
                assert_eq!((r.width, r.optimal), (0, true));
                continue;
            }
            assert_matches_exact(&g);
        }
    }

    #[test]
    fn matches_exact_on_random_graphs() {
        // n ≤ 16: the band where DEFAULT_MAX_WORK provably-by-sweep
        // suffices at every density (tests/bnb_parity.rs covers the
        // 17..=EXACT_LIMIT band with upper-bound semantics).
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..40 {
            let n = 4 + trial % 13;
            let g = generators::gnp(n, 0.25, &mut rng);
            assert_matches_exact(&g);
        }
    }

    #[test]
    fn stats_report_search_effort() {
        // A grid's seed is not optimal (degeneracy 2 < pathwidth 3), so
        // the search must actually run.
        let g = generators::grid(3, 6);
        let r = pathwidth_bnb(&g, &BnbOptions::default());
        assert_eq!(r.width, 3);
        assert!(!r.stats.seed_known_optimal);
        assert!(r.stats.nodes > 0);
        assert!(r.stats.work > 0);
    }

    #[test]
    fn known_optimal_seed_skips_search() {
        let g = generators::caterpillar(40, 3);
        let r = pathwidth_bnb(&g, &BnbOptions::default());
        assert_eq!(r.width, 1);
        assert!(r.optimal);
        assert!(r.stats.seed_known_optimal);
        assert_eq!(r.stats.nodes, 0, "no branching on a certified seed");
    }

    #[test]
    fn exhausted_budget_falls_back_to_seed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = generators::gnp(18, 0.4, &mut rng);
        let opts = BnbOptions {
            max_work: 1,
            ..BnbOptions::default()
        };
        let r = pathwidth_bnb(&g, &opts);
        assert!(!r.optimal);
        assert_eq!(r.width, r.stats.seed_width, "over budget → seed result");
        r.decomposition.validate(&g).unwrap();
    }

    #[test]
    fn memo_budget_zero_still_exact() {
        // With the table disabled the search is slower but still exact.
        let g = generators::grid(3, 4);
        let opts = BnbOptions {
            max_seen_entries: 0,
            ..BnbOptions::default()
        };
        let r = pathwidth_bnb(&g, &opts);
        assert_eq!(r.width, 3);
        assert!(r.optimal);
        assert_eq!(r.stats.memo_entries, 0);
    }
}
