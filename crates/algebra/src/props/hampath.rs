//! The [`HamiltonianPath`] algebra — the open-path variant of the
//! Hamiltonian path-system DP.

use crate::property::glue_order;
use crate::{Property, Slot};

/// Existence of a Hamiltonian path in the marked subgraph.
#[derive(Clone, Debug, Default)]
pub struct HamiltonianPath;

/// Per-slot codes: degree-0, saturated interior, endpoint whose partner end
/// has retired, or endpoint partnered with a live slot.
const FREE: u8 = 0;
const DONE: u8 = 1;
const HALF: u8 = 2;
const PARTNER_BASE: u8 = 3;

/// One partial path system. `ends` counts retired path endpoints (a
/// Hamiltonian path has exactly two ends). Cycles are never allowed, so no
/// closure flag exists — closing transitions drop the profile.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Profile {
    code: Vec<u8>,
    ends: u8,
}

impl Profile {
    fn partner(&self, s: Slot) -> Option<Slot> {
        let c = self.code[s];
        (c >= PARTNER_BASE).then(|| (c - PARTNER_BASE) as Slot)
    }

    fn deg(&self, s: Slot) -> u8 {
        match self.code[s] {
            FREE => 0,
            DONE => 2,
            _ => 1, // HALF or PARTNER
        }
    }

    /// Uses the edge `{a, b}`, if legal (no cycles allowed).
    fn use_edge(&self, a: Slot, b: Slot) -> Option<Profile> {
        if self.deg(a) >= 2 || self.deg(b) >= 2 {
            return None;
        }
        let mut p = self.clone();
        match (p.code[a], p.code[b]) {
            (FREE, FREE) => {
                p.code[a] = PARTNER_BASE + b as u8;
                p.code[b] = PARTNER_BASE + a as u8;
            }
            (FREE, HALF) => {
                p.code[a] = HALF;
                p.code[b] = DONE;
            }
            (HALF, FREE) => {
                p.code[b] = HALF;
                p.code[a] = DONE;
            }
            (HALF, HALF) => {
                // Joins two half-open paths into one with both ends retired.
                if p.ends > 2 {
                    return None;
                }
                p.code[a] = DONE;
                p.code[b] = DONE;
            }
            (FREE, _) => {
                let y = p.partner(b).unwrap();
                p.code[a] = PARTNER_BASE + y as u8;
                p.code[y] = PARTNER_BASE + a as u8;
                p.code[b] = DONE;
            }
            (_, FREE) => {
                let x = p.partner(a).unwrap();
                p.code[b] = PARTNER_BASE + x as u8;
                p.code[x] = PARTNER_BASE + b as u8;
                p.code[a] = DONE;
            }
            (HALF, _) => {
                let y = p.partner(b).unwrap();
                p.code[a] = DONE;
                p.code[b] = DONE;
                p.code[y] = HALF;
            }
            (_, HALF) => {
                let x = p.partner(a).unwrap();
                p.code[a] = DONE;
                p.code[b] = DONE;
                p.code[x] = HALF;
            }
            (_, _) => {
                let x = p.partner(a).unwrap();
                let y = p.partner(b).unwrap();
                if x == b {
                    return None; // would close a cycle
                }
                p.code[a] = DONE;
                p.code[b] = DONE;
                p.code[x] = PARTNER_BASE + y as u8;
                p.code[y] = PARTNER_BASE + x as u8;
            }
        }
        Some(p)
    }

    /// Identifies slots `keep < drop`.
    fn glue(&self, keep: Slot, drop: Slot) -> Option<Profile> {
        if self.deg(keep) + self.deg(drop) > 2 {
            return None;
        }
        let mut p = self.clone();
        let merged = match (p.code[keep], p.code[drop]) {
            (FREE, FREE) => FREE,
            (FREE, DONE) | (DONE, FREE) => DONE,
            (FREE, HALF) | (HALF, FREE) => HALF,
            (HALF, HALF) => DONE, // one path, both outer ends retired
            (FREE, c) if c >= PARTNER_BASE => {
                let y = p.partner(drop).unwrap();
                p.code[y] = PARTNER_BASE + keep as u8;
                c
            }
            (c, FREE) if c >= PARTNER_BASE => c,
            (HALF, c) | (c, HALF) if c >= PARTNER_BASE => {
                let which = if p.code[keep] >= PARTNER_BASE {
                    keep
                } else {
                    drop
                };
                let y = p.partner(which).unwrap();
                p.code[y] = HALF;
                DONE
            }
            (ca, cb) if ca >= PARTNER_BASE && cb >= PARTNER_BASE => {
                let x = p.partner(keep).unwrap();
                if x == drop {
                    return None; // endpoints of one path: a cycle
                }
                let y = p.partner(drop).unwrap();
                p.code[x] = PARTNER_BASE + y as u8;
                p.code[y] = PARTNER_BASE + x as u8;
                DONE
            }
            _ => unreachable!("degree bound enforced above"),
        };
        p.code[keep] = merged;
        p.code.remove(drop);
        for c in p.code.iter_mut() {
            if *c >= PARTNER_BASE {
                let mut t = (*c - PARTNER_BASE) as Slot;
                if t == drop {
                    t = keep;
                }
                if t > drop {
                    t -= 1;
                }
                *c = PARTNER_BASE + t as u8;
            }
        }
        Some(p)
    }
}

/// State: total vertex count (only "exactly one vertex" matters for
/// acceptance; saturating far above any realistic slot count) plus the
/// reachable profiles.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HamPathState {
    total: u16,
    profiles: Vec<Profile>,
}

fn normalize(mut ps: Vec<Profile>) -> Vec<Profile> {
    ps.sort();
    ps.dedup();
    ps
}

impl Property for HamiltonianPath {
    type State = HamPathState;

    fn name(&self) -> String {
        "hamiltonian-path".into()
    }

    fn empty(&self) -> HamPathState {
        HamPathState {
            total: 0,
            profiles: vec![Profile {
                code: Vec::new(),
                ends: 0,
            }],
        }
    }

    fn add_vertex(&self, s: &HamPathState) -> HamPathState {
        let profiles = s
            .profiles
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.code.push(FREE);
                p
            })
            .collect();
        HamPathState {
            total: s.total.saturating_add(1),
            profiles: normalize(profiles),
        }
    }

    fn add_edge(&self, s: &HamPathState, a: Slot, b: Slot, marked: bool) -> HamPathState {
        if !marked {
            return s.clone();
        }
        let mut profiles = s.profiles.clone();
        for p in &s.profiles {
            if let Some(q) = p.use_edge(a, b) {
                profiles.push(q);
            }
        }
        HamPathState {
            total: s.total,
            profiles: normalize(profiles),
        }
    }

    fn glue(&self, s: &HamPathState, a: Slot, b: Slot) -> HamPathState {
        let (keep, drop) = glue_order(a, b);
        let profiles = s
            .profiles
            .iter()
            .filter_map(|p| p.glue(keep, drop))
            .collect();
        HamPathState {
            total: s.total.saturating_sub(1).max(1),
            profiles: normalize(profiles),
        }
    }

    fn forget(&self, s: &HamPathState, a: Slot) -> HamPathState {
        let profiles = s
            .profiles
            .iter()
            .filter_map(|p| {
                let mut ends = p.ends;
                let c = p.code[a];
                if c == HALF || c >= PARTNER_BASE {
                    // Retiring a live endpoint.
                    if ends >= 2 {
                        return None;
                    }
                    ends += 1;
                } else if c != DONE {
                    return None; // FREE: an uncoverable vertex
                }
                let mut q = p.clone();
                q.ends = ends;
                // A retired endpoint's live partner becomes HALF.
                if let Some(x) = q.partner(a) {
                    q.code[x] = HALF;
                }
                q.code.remove(a);
                for c in q.code.iter_mut() {
                    if *c >= PARTNER_BASE {
                        let t = (*c - PARTNER_BASE) as Slot;
                        debug_assert_ne!(t, a);
                        if t > a {
                            *c = PARTNER_BASE + (t - 1) as u8;
                        }
                    }
                }
                Some(q)
            })
            .collect();
        HamPathState {
            total: s.total,
            profiles: normalize(profiles),
        }
    }

    fn union(&self, s1: &HamPathState, s2: &HamPathState) -> HamPathState {
        let mut profiles = Vec::new();
        for p1 in &s1.profiles {
            for p2 in &s2.profiles {
                if p1.ends + p2.ends > 2 {
                    continue;
                }
                let offset = p1.code.len();
                let mut code = p1.code.clone();
                code.extend(p2.code.iter().map(|&c| {
                    if c >= PARTNER_BASE {
                        PARTNER_BASE + ((c - PARTNER_BASE) as usize + offset) as u8
                    } else {
                        c
                    }
                }));
                profiles.push(Profile {
                    code,
                    ends: p1.ends + p2.ends,
                });
            }
        }
        HamPathState {
            total: s1.total.saturating_add(s2.total),
            profiles: normalize(profiles),
        }
    }

    fn swap(&self, s: &HamPathState, a: Slot, b: Slot) -> HamPathState {
        let profiles = s
            .profiles
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.code.swap(a, b);
                for c in p.code.iter_mut() {
                    if *c >= PARTNER_BASE {
                        let t = (*c - PARTNER_BASE) as Slot;
                        if t == a {
                            *c = PARTNER_BASE + b as u8;
                        } else if t == b {
                            *c = PARTNER_BASE + a as u8;
                        }
                    }
                }
                p
            })
            .collect();
        HamPathState {
            total: s.total,
            profiles: normalize(profiles),
        }
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &HamPathState) -> bool {
        if s.total == 1 {
            return true; // K1: the trivial path
        }
        s.profiles.iter().any(|p| {
            let live_ends = p
                .code
                .iter()
                .filter(|&&c| c == HALF || c >= PARTNER_BASE)
                .count() as u8;
            p.code.iter().all(|&c| c != FREE) && p.ends + live_ends == 2
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::check_against_oracle;
    use crate::Algebra;
    use lanecert_graph::{Graph, VertexId};

    /// Brute-force Hamiltonian path (Held–Karp over all start vertices).
    fn oracle(g: &Graph) -> bool {
        let n = g.vertex_count();
        if n == 0 {
            return false;
        }
        if n == 1 {
            return true;
        }
        assert!(n <= 16, "oracle limit");
        let mut dp = vec![vec![false; n]; 1 << n];
        for v in 0..n {
            dp[1 << v][v] = true;
        }
        for mask in 1u32..(1 << n) {
            for v in 0..n {
                if !dp[mask as usize][v] {
                    continue;
                }
                for w in g.neighbors(VertexId::new(v)) {
                    let wb = 1u32 << w.index();
                    if mask & wb == 0 {
                        dp[(mask | wb) as usize][w.index()] = true;
                    }
                }
            }
        }
        let full = ((1u64 << n) - 1) as u32;
        (0..n).any(|v| dp[full as usize][v])
    }

    #[test]
    fn matches_oracle() {
        let alg = Algebra::new(HamiltonianPath);
        check_against_oracle(&alg, &oracle, 45, 100, 7);
    }

    #[test]
    fn path_yes_star_no() {
        let alg = Algebra::new(HamiltonianPath);
        // P5 has a Hamiltonian path; K_{1,3} does not.
        let mut s = alg.empty();
        for _ in 0..5 {
            s = alg.add_vertex(s);
        }
        for i in 0..4 {
            s = alg.add_edge(s, i, i + 1, true);
        }
        assert!(alg.accept(&s));
        let mut t = alg.empty();
        for _ in 0..4 {
            t = alg.add_vertex(t);
        }
        for leaf in 1..4 {
            t = alg.add_edge(t, 0, leaf, true);
        }
        assert!(!alg.accept(&t));
    }

    #[test]
    fn forgetting_endpoints_still_accepts() {
        let alg = Algebra::new(HamiltonianPath);
        // Build P4, retire both real endpoints, keep the middle slots.
        let mut s = alg.empty();
        for _ in 0..4 {
            s = alg.add_vertex(s);
        }
        for i in 0..3 {
            s = alg.add_edge(s, i, i + 1, true);
        }
        let s = alg.forget(s, 0); // retire left end
        let s = alg.forget(s, 2); // slot of old v3: retire right end
        assert!(alg.accept(&s));
    }

    #[test]
    fn cycle_is_not_a_path() {
        let alg = Algebra::new(HamiltonianPath);
        let mut s = alg.empty();
        for _ in 0..4 {
            s = alg.add_vertex(s);
        }
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            s = alg.add_edge(s, a, b, true);
        }
        let closed = alg.add_edge(s, 0, 3, true);
        // C4 *does* have a Hamiltonian path (drop one edge), so this must
        // still accept — the DP simply never uses all four edges.
        assert!(alg.accept(&closed));
    }
}
