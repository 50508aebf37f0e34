//! The recursive lane partition with a low-congestion embedding
//! (Proposition 4.6).
//!
//! Given a connected graph `G` with an interval representation of width `k`,
//! produces a `w`-lane partition with `w ≤ f(k)` together with embedding
//! paths for all `E1` (lane-step) edges whose congestion is at most `g(k)`;
//! adding arbitrary paths for the `w − 1` head-link edges (`E2`) yields
//! congestion at most `h(k) = g(k) + f(k) − 1`.
//!
//! The construction follows Section 4.2 of the paper exactly:
//! skeleton path `P` from `v_st` (min `L`) to `v_ed` (max `R`), greedy
//! maximal-reach subsequence `S` split into `S1`/`S2`, components of
//! `G − S` classed by interval-disjointness (Lemma 4.10) and by which side
//! of `S` they attach to, then recursion (Lemma 4.11 guarantees the width
//! drops).

use std::collections::{HashMap, HashSet};

use lanecert_graph::traversal::PathSearcher;
use lanecert_graph::{Graph, VertexId};
use lanecert_pathwidth::{Interval, IntervalRep};

use crate::{partition::LanePartition, Embedding};

/// Unordered vertex pair used as a path key.
pub type PairKey = (VertexId, VertexId);

/// Normalizes an unordered pair.
pub fn pair_key(a: VertexId, b: VertexId) -> PairKey {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Output of [`recursive_partition`]: the lane partition plus a simple path
/// in `G` for every consecutive pair in every lane (the `E1` edges of the
/// weak completion).
#[derive(Clone, Debug)]
pub struct RecursiveLanes {
    /// The lane partition (only non-empty lanes, in construction order).
    pub partition: LanePartition,
    /// `E1` embedding paths keyed by unordered endpoint pair.
    pub e1_paths: HashMap<PairKey, Vec<VertexId>>,
}

/// Runs the Proposition 4.6 construction on a connected graph.
///
/// # Panics
///
/// `g` must be connected and `rep` a valid representation of `g`; debug
/// builds assert both upfront, and the construction's invariants are
/// asserted throughout.
pub fn recursive_partition(g: &Graph, rep: &IntervalRep) -> RecursiveLanes {
    debug_assert!(rep.validate(g).is_ok(), "interval representation invalid");
    debug_assert!(
        lanecert_graph::components::is_connected(g),
        "recursive partition requires a connected graph"
    );
    let verts: Vec<VertexId> = g.vertices().collect();
    let mut e1_paths = HashMap::new();
    let lanes = solve(g, rep, &verts, &mut e1_paths);
    let lanes: Vec<Vec<VertexId>> = lanes.into_iter().filter(|l| !l.is_empty()).collect();
    RecursiveLanes {
        partition: LanePartition::new(lanes),
        e1_paths,
    }
}

/// Builds the full embedding (E1 paths from the recursion, E2 paths via BFS)
/// for the completion built from [`RecursiveLanes::partition`].
pub fn embedding_from_paths(
    g: &Graph,
    completion: &crate::Completion,
    e1_paths: &HashMap<PairKey, Vec<VertexId>>,
) -> Embedding {
    let mut emb = Embedding::new();
    let mut searcher = PathSearcher::new();
    for e in completion.virtual_edges() {
        let (u, v) = completion.graph.endpoints(e);
        let role = &completion.roles[e.index()];
        let path = if role.lane_step.is_some() {
            e1_paths
                .get(&pair_key(u, v))
                .unwrap_or_else(|| panic!("missing E1 path for ({u},{v})"))
                .clone()
        } else {
            // E2 head-link: arbitrary path (Proposition 4.6's second claim).
            searcher.path(g, u, v).expect("connected graph")
        };
        let path = if path[0] == u {
            path
        } else {
            let mut p = path;
            p.reverse();
            p
        };
        emb.insert(e, path);
    }
    emb
}

/// Width of the representation restricted to `verts`.
fn restricted_width(rep: &IntervalRep, verts: &[VertexId]) -> usize {
    let mut events: Vec<(u32, i32)> = Vec::with_capacity(verts.len() * 2);
    for &v in verts {
        let iv = rep.interval(v);
        events.push((iv.lo, 1));
        events.push((iv.hi + 1, -1));
    }
    events.sort_unstable();
    let mut cur = 0;
    let mut best = 0;
    for (_, d) in events {
        cur += d;
        best = best.max(cur);
    }
    best as usize
}

/// BFS path between two vertices staying inside `allowed`.
fn path_within(
    g: &Graph,
    allowed: &HashSet<VertexId>,
    from: VertexId,
    to: VertexId,
) -> Vec<VertexId> {
    let mut parent: HashMap<VertexId, VertexId> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    parent.insert(from, from);
    while let Some(v) = queue.pop_front() {
        if v == to {
            break;
        }
        for w in g.neighbors(v) {
            if allowed.contains(&w) && !parent.contains_key(&w) {
                parent.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    assert!(
        parent.contains_key(&to),
        "{from}–{to} disconnected in subset"
    );
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = parent[&cur];
        path.push(cur);
    }
    path.reverse();
    path
}

/// Connected components of the subgraph induced by `verts`.
fn components_within(g: &Graph, verts: &HashSet<VertexId>) -> Vec<Vec<VertexId>> {
    let mut seen: HashSet<VertexId> = HashSet::new();
    let mut comps = Vec::new();
    let mut ordered: Vec<VertexId> = verts.iter().copied().collect();
    ordered.sort();
    for &s in &ordered {
        if seen.contains(&s) {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        seen.insert(s);
        while let Some(v) = queue.pop_front() {
            comp.push(v);
            for w in g.neighbors(v) {
                if verts.contains(&w) && seen.insert(w) {
                    queue.push_back(w);
                }
            }
        }
        comp.sort();
        comps.push(comp);
    }
    comps
}

/// Collapses a walk (consecutive vertices adjacent) into a simple path by
/// removing loops; the resulting path uses a subset of the walk's edges, so
/// congestion never increases.
fn simplify_walk(walk: Vec<VertexId>) -> Vec<VertexId> {
    let mut out: Vec<VertexId> = Vec::with_capacity(walk.len());
    let mut pos: HashMap<VertexId, usize> = HashMap::new();
    for v in walk {
        if let Some(&i) = pos.get(&v) {
            for dropped in out.drain(i + 1..) {
                pos.remove(&dropped);
            }
        } else {
            pos.insert(v, out.len());
            out.push(v);
        }
    }
    out
}

/// Records a path for an E1 pair (first writer wins across recursion levels
/// — pairs are produced exactly once, asserted in debug builds).
fn record_path(
    paths: &mut HashMap<PairKey, Vec<VertexId>>,
    a: VertexId,
    b: VertexId,
    walk: Vec<VertexId>,
) {
    let path = simplify_walk(walk);
    assert_eq!(path[0], a, "walk must start at {a}");
    assert_eq!(*path.last().unwrap(), b, "walk must end at {b}");
    let prev = paths.insert(pair_key(a, b), path);
    debug_assert!(prev.is_none(), "pair ({a},{b}) embedded twice");
}

/// The recursive construction. `verts` must induce a connected subgraph.
/// Returns the lane sequences (possibly with empty slots, filtered by the
/// caller) and records E1 paths.
fn solve(
    g: &Graph,
    rep: &IntervalRep,
    verts: &[VertexId],
    paths: &mut HashMap<PairKey, Vec<VertexId>>,
) -> Vec<Vec<VertexId>> {
    if verts.len() == 1 {
        return vec![vec![verts[0]]];
    }
    let k = restricted_width(rep, verts);
    assert!(k >= 2, "multi-vertex connected subgraphs have width >= 2");

    // v_st minimizes L, v_ed maximizes R.
    let vst = *verts
        .iter()
        .min_by_key(|&&v| (rep.interval(v).lo, v.0))
        .unwrap();
    let ved = *verts
        .iter()
        .max_by_key(|&&v| (rep.interval(v).hi, v.0))
        .unwrap();

    let allowed: HashSet<VertexId> = verts.iter().copied().collect();
    let p_path = if vst == ved {
        vec![vst]
    } else {
        path_within(g, &allowed, vst, ved)
    };
    let pos_in_p: HashMap<VertexId, usize> =
        p_path.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    // Skeleton sequence S (greedy maximal reach along P).
    let mut s_seq = vec![vst];
    let r_end = rep.interval(ved).hi;
    loop {
        let cur = *s_seq.last().unwrap();
        if rep.interval(cur).hi >= r_end {
            break;
        }
        let cur_pos = pos_in_p[&cur];
        let next = p_path[cur_pos + 1..]
            .iter()
            .filter(|&&u| rep.interval(u).overlaps(&rep.interval(cur)))
            .max_by_key(|&&u| (rep.interval(u).hi, u.0))
            .copied()
            .unwrap_or_else(|| panic!("P disconnected: no successor after {cur}"));
        // Observation 4.7: strict progress.
        assert!(rep.interval(next).hi > rep.interval(cur).hi);
        s_seq.push(next);
    }
    let s_set: HashSet<VertexId> = s_seq.iter().copied().collect();
    let s1: Vec<VertexId> = s_seq.iter().copied().step_by(2).collect();
    let s2: Vec<VertexId> = s_seq.iter().copied().skip(1).step_by(2).collect();
    let s1_set: HashSet<VertexId> = s1.iter().copied().collect();

    // Case 1 paths: consecutive pairs within S1 and S2 via subpaths of P.
    for side in [&s1, &s2] {
        for w in side.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (pa, pb) = (pos_in_p[&a], pos_in_p[&b]);
            let walk: Vec<VertexId> = if pa <= pb {
                p_path[pa..=pb].to_vec()
            } else {
                let mut seg = p_path[pb..=pa].to_vec();
                seg.reverse();
                seg
            };
            record_path(paths, a, b, walk);
        }
    }

    // Components of G − S.
    let rest: HashSet<VertexId> = allowed.difference(&s_set).copied().collect();
    let comps = components_within(g, &rest);

    // Hull interval of each component.
    let hull = |comp: &Vec<VertexId>| -> Interval {
        comp.iter()
            .map(|&v| rep.interval(v))
            .reduce(|a, b| a.hull(&b))
            .unwrap()
    };

    struct CompInfo {
        verts: Vec<VertexId>,
        hull: Interval,
        class: usize,
        side: usize,            // 1 or 2
        attach_inner: VertexId, // u*_C
        attach_s: VertexId,     // v*_C ∈ S_side
        lanes: Vec<Vec<VertexId>>,
    }

    // Lemma 4.10: first-fit classes of interval-disjoint components.
    let mut infos: Vec<CompInfo> = Vec::with_capacity(comps.len());
    {
        let mut comps_sorted = comps;
        comps_sorted.sort_by_key(|c| {
            let h = hull(c);
            (h.lo, h.hi)
        });
        let mut class_last_hi: Vec<u32> = Vec::new();
        for comp in comps_sorted {
            let h = hull(&comp);
            let class = match class_last_hi.iter().position(|&x| x < h.lo) {
                Some(c) => {
                    class_last_hi[c] = h.hi;
                    c
                }
                None => {
                    class_last_hi.push(h.hi);
                    class_last_hi.len() - 1
                }
            };
            // Side: 1 if C attaches to S1, else 2 (must attach to S2).
            let mut attach: Option<(VertexId, VertexId, usize)> = None;
            'search: for &u in &comp {
                for wv in g.neighbors(u) {
                    if s1_set.contains(&wv) {
                        attach = Some((u, wv, 1));
                        break 'search;
                    }
                }
            }
            if attach.is_none() {
                'search2: for &u in &comp {
                    for wv in g.neighbors(u) {
                        if s_set.contains(&wv) && !s1_set.contains(&wv) {
                            attach = Some((u, wv, 2));
                            break 'search2;
                        }
                    }
                }
            }
            let (attach_inner, attach_s, side) =
                attach.expect("connected G: every component attaches to S");
            infos.push(CompInfo {
                verts: comp,
                hull: h,
                class,
                side,
                attach_inner,
                attach_s,
                lanes: Vec::new(),
            });
        }
        assert!(
            class_last_hi.len() <= k.saturating_sub(1),
            "Lemma 4.10 violated: {} classes for width {k}",
            class_last_hi.len()
        );
    }

    // Recurse into each component (Lemma 4.11: width strictly drops).
    for info in &mut infos {
        let kc = restricted_width(rep, &info.verts);
        assert!(kc < k, "Lemma 4.11 violated: component width {kc} >= {k}");
        info.lanes = solve(g, rep, &info.verts, paths);
    }

    // Assemble lanes: S1, S2, then one lane per (class, side, sub-lane).
    let mut lanes: Vec<Vec<VertexId>> = vec![s1, s2];
    let num_classes = infos.iter().map(|i| i.class + 1).max().unwrap_or(0);
    for class in 0..num_classes {
        for side in [1usize, 2] {
            let mut group: Vec<&CompInfo> = infos
                .iter()
                .filter(|i| i.class == class && i.side == side)
                .collect();
            group.sort_by_key(|i| i.hull.lo);
            let max_sub = group.iter().map(|i| i.lanes.len()).max().unwrap_or(0);
            for sub in 0..max_sub {
                let mut lane: Vec<VertexId> = Vec::new();
                let mut prev_tail: Option<(&CompInfo, VertexId)> = None;
                for info in &group {
                    let Some(seg) = info.lanes.get(sub) else {
                        continue;
                    };
                    if seg.is_empty() {
                        continue;
                    }
                    if let Some((prev_info, x)) = prev_tail {
                        // Case 2.2: cross-component junction x → y.
                        let y = seg[0];
                        let set_prev: HashSet<VertexId> = prev_info.verts.iter().copied().collect();
                        let set_cur: HashSet<VertexId> = info.verts.iter().copied().collect();
                        let mut walk = path_within(g, &set_prev, x, prev_info.attach_inner);
                        // Hop to S, ride P, hop back.
                        let (pa, pb) = (pos_in_p[&prev_info.attach_s], pos_in_p[&info.attach_s]);
                        if pa <= pb {
                            walk.extend_from_slice(&p_path[pa..=pb]);
                        } else {
                            walk.extend(p_path[pb..=pa].iter().rev());
                        }
                        walk.extend(path_within(g, &set_cur, info.attach_inner, y));
                        record_path(paths, x, y, walk);
                    }
                    lane.extend_from_slice(seg);
                    prev_tail = Some((info, *seg.last().unwrap()));
                }
                lanes.push(lane);
            }
        }
    }
    lanes.into_iter().filter(|l| !l.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::Completion;
    use lanecert_graph::generators;
    use lanecert_pathwidth::solver;
    use rand::SeedableRng;

    /// Runs the full Proposition 4.6 statement on one graph and checks the
    /// three bounds.
    fn check(g: &Graph) {
        let (pw, pd) = solver::pathwidth_exact(g).unwrap();
        let rep = IntervalRep::from_decomposition(&pd, g.vertex_count());
        let k = rep.width();
        assert_eq!(k, pw + 1);
        let rl = recursive_partition(g, &rep);
        rl.partition.validate(&rep).unwrap();
        let w = rl.partition.lane_count();
        assert!(
            (w as u64) <= bounds::f(k),
            "lanes {w} > f({k}) = {}",
            bounds::f(k)
        );
        let completion = Completion::build(g, rl.partition.clone());
        let emb = embedding_from_paths(g, &completion, &rl.e1_paths);
        emb.validate(g, &completion);
        // Weak-completion congestion ≤ g(k).
        let e1_edges: Vec<_> = completion
            .virtual_edges()
            .filter(|e| completion.roles[e.index()].lane_step.is_some())
            .collect();
        let weak = emb.congestion_of(&completion_graph_base(g), &e1_edges);
        assert!(
            (weak as u64) <= bounds::g(k),
            "weak congestion {weak} > g({k}) = {}",
            bounds::g(k)
        );
        let full = emb.congestion(g);
        assert!(
            (full as u64) <= bounds::h(k),
            "congestion {full} > h({k}) = {}",
            bounds::h(k)
        );
    }

    // congestion_of takes the original graph; alias for readability.
    fn completion_graph_base(g: &Graph) -> Graph {
        g.clone()
    }

    #[test]
    fn single_vertex() {
        let g = Graph::new(1);
        let rep = IntervalRep::new(vec![Interval::new(0, 0)]);
        let rl = recursive_partition(&g, &rep);
        assert_eq!(rl.partition.lane_count(), 1);
        assert!(rl.e1_paths.is_empty());
    }

    #[test]
    fn paths_and_cycles() {
        check(&generators::path_graph(2));
        check(&generators::path_graph(9));
        check(&generators::cycle_graph(3));
        check(&generators::cycle_graph(12));
    }

    #[test]
    fn stars_caterpillars_ladders() {
        check(&generators::star(8));
        check(&generators::caterpillar(4, 2));
        check(&generators::ladder(6));
        check(&generators::grid(3, 4));
    }

    #[test]
    fn random_pathwidth_graphs_respect_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for k in 1..=3 {
            for _ in 0..8 {
                let (g, _) = generators::random_pathwidth_graph(14, k, 0.5, &mut rng);
                check(&g);
            }
        }
    }

    #[test]
    fn random_trees_respect_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        for _ in 0..10 {
            let g = generators::random_tree(15, &mut rng);
            check(&g);
        }
    }

    #[test]
    fn simplify_walk_removes_loops() {
        let w: Vec<VertexId> = [0, 1, 2, 1, 3].iter().map(|&i| VertexId(i)).collect();
        assert_eq!(
            simplify_walk(w),
            vec![VertexId(0), VertexId(1), VertexId(3)]
        );
        let w2: Vec<VertexId> = [5].iter().map(|&i| VertexId(i)).collect();
        assert_eq!(simplify_walk(w2), vec![VertexId(5)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "requires a connected graph")]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let rep = IntervalRep::new(vec![
            Interval::new(0, 1),
            Interval::new(1, 2),
            Interval::new(5, 6),
            Interval::new(6, 7),
        ]);
        let _ = recursive_partition(&g, &rep);
    }
}
