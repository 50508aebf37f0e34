//! The [`HamiltonianCycle`] algebra — the classic path-system DP expressed
//! over the five primitives.

use crate::property::glue_order;
use crate::{Property, Slot};

/// Existence of a Hamiltonian cycle in the marked subgraph.
#[derive(Clone, Debug, Default)]
pub struct HamiltonianCycle;

/// Per-slot code in a profile: the vertex's role in the partial path
/// system.
///
/// * `FREE` — degree 0 so far,
/// * `DONE` — degree 2 (interior of a path or on the closed cycle),
/// * `PARTNER_BASE + p` — degree 1, endpoint of an open path whose other
///   endpoint is slot `p`.
const FREE: u8 = 0;
const DONE: u8 = 1;
const PARTNER_BASE: u8 = 2;

/// One partial path system: per-slot codes plus whether the single allowed
/// cycle has been closed.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Profile {
    code: Vec<u8>,
    closed: bool,
}

impl Profile {
    fn partner(&self, s: Slot) -> Option<Slot> {
        let c = self.code[s];
        (c >= PARTNER_BASE).then(|| (c - PARTNER_BASE) as Slot)
    }

    /// Uses the edge `{a, b}` in the path system, if legal.
    fn use_edge(&self, a: Slot, b: Slot) -> Option<Profile> {
        let mut p = self.clone();
        match (p.partner(a), p.code[a], p.partner(b), p.code[b]) {
            (_, DONE, _, _) | (_, _, _, DONE) => None,
            (None, _, None, _) => {
                // two fresh vertices become partners
                p.code[a] = PARTNER_BASE + b as u8;
                p.code[b] = PARTNER_BASE + a as u8;
                Some(p)
            }
            (None, _, Some(y), _) => {
                // a joins b's path; b becomes interior
                p.code[a] = PARTNER_BASE + y as u8;
                p.code[y] = PARTNER_BASE + a as u8;
                p.code[b] = DONE;
                Some(p)
            }
            (Some(x), _, None, _) => {
                p.code[b] = PARTNER_BASE + x as u8;
                p.code[x] = PARTNER_BASE + b as u8;
                p.code[a] = DONE;
                Some(p)
            }
            (Some(x), _, Some(y), _) => {
                if x == b {
                    // closing the cycle
                    debug_assert_eq!(y, a);
                    if p.closed {
                        return None;
                    }
                    p.code[a] = DONE;
                    p.code[b] = DONE;
                    p.closed = true;
                    Some(p)
                } else {
                    debug_assert_ne!(y, a);
                    p.code[a] = DONE;
                    p.code[b] = DONE;
                    p.code[x] = PARTNER_BASE + y as u8;
                    p.code[y] = PARTNER_BASE + x as u8;
                    Some(p)
                }
            }
        }
    }

    /// Identifies slots `keep < drop`; the merged vertex sits at `keep`.
    fn glue(&self, keep: Slot, drop: Slot) -> Option<Profile> {
        let mut p = self.clone();
        let (ca, cb) = (p.code[keep], p.code[drop]);
        let deg = |c: u8| -> u8 {
            match c {
                FREE => 0,
                DONE => 2,
                _ => 1,
            }
        };
        if deg(ca) + deg(cb) > 2 {
            return None;
        }
        let merged = match (p.partner(keep), p.partner(drop)) {
            (Some(x), Some(y)) => {
                if x == drop {
                    // gluing the two endpoints of one path closes a cycle
                    debug_assert_eq!(y, keep);
                    if p.closed {
                        return None;
                    }
                    p.closed = true;
                    DONE
                } else {
                    p.code[x] = PARTNER_BASE + y as u8;
                    p.code[y] = PARTNER_BASE + x as u8;
                    DONE
                }
            }
            (Some(x), None) if cb == FREE => {
                let _ = x;
                ca
            }
            (None, Some(y)) if ca == FREE => {
                // merged endpoint keeps drop's partner; retarget y to keep
                p.code[y] = PARTNER_BASE + keep as u8;
                PARTNER_BASE + y as u8
            }
            (None, None) => {
                // degrees 0/2 combinations without partners
                if ca == DONE || cb == DONE {
                    DONE
                } else {
                    FREE
                }
            }
            _ => unreachable!("degree bound already enforced"),
        };
        p.code[keep] = merged;
        // remove slot `drop`, remapping partner pointers
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

/// State: set of reachable profiles.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HamState {
    profiles: Vec<Profile>, // sorted, deduped
}

fn normalize(mut ps: Vec<Profile>) -> Vec<Profile> {
    ps.sort();
    ps.dedup();
    ps
}

impl Property for HamiltonianCycle {
    type State = HamState;

    fn name(&self) -> String {
        "hamiltonian-cycle".into()
    }

    fn empty(&self) -> HamState {
        HamState {
            profiles: vec![Profile {
                code: Vec::new(),
                closed: false,
            }],
        }
    }

    fn add_vertex(&self, s: &HamState) -> HamState {
        let profiles = s
            .profiles
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.code.push(FREE);
                p
            })
            .collect();
        HamState {
            profiles: normalize(profiles),
        }
    }

    fn add_edge(&self, s: &HamState, a: Slot, b: Slot, marked: bool) -> HamState {
        if !marked {
            return s.clone();
        }
        let mut profiles = s.profiles.clone();
        for p in &s.profiles {
            if let Some(q) = p.use_edge(a, b) {
                profiles.push(q);
            }
        }
        HamState {
            profiles: normalize(profiles),
        }
    }

    fn glue(&self, s: &HamState, a: Slot, b: Slot) -> HamState {
        let (keep, drop) = glue_order(a, b);
        let profiles = s
            .profiles
            .iter()
            .filter_map(|p| p.glue(keep, drop))
            .collect();
        HamState {
            profiles: normalize(profiles),
        }
    }

    fn forget(&self, s: &HamState, a: Slot) -> HamState {
        let profiles = s
            .profiles
            .iter()
            .filter(|p| p.code[a] == DONE)
            .map(|p| {
                let mut p = p.clone();
                p.code.remove(a);
                for c in p.code.iter_mut() {
                    if *c >= PARTNER_BASE {
                        let t = (*c - PARTNER_BASE) as Slot;
                        debug_assert_ne!(t, a, "partners cannot point at DONE slots");
                        if t > a {
                            *c = PARTNER_BASE + (t - 1) as u8;
                        }
                    }
                }
                p
            })
            .collect();
        HamState {
            profiles: normalize(profiles),
        }
    }

    fn union(&self, s1: &HamState, s2: &HamState) -> HamState {
        let mut profiles = Vec::new();
        for p1 in &s1.profiles {
            for p2 in &s2.profiles {
                if p1.closed && p2.closed {
                    continue; // two cycles can never merge into one
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
                    closed: p1.closed || p2.closed,
                });
            }
        }
        HamState {
            profiles: normalize(profiles),
        }
    }

    fn swap(&self, s: &HamState, a: Slot, b: Slot) -> HamState {
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
        HamState {
            profiles: normalize(profiles),
        }
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &HamState) -> bool {
        s.profiles
            .iter()
            .any(|p| p.closed && p.code.iter().all(|&c| c == DONE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::{check_against_oracle, oracles};
    use crate::Algebra;

    #[test]
    fn matches_oracle() {
        let alg = Algebra::new(HamiltonianCycle);
        check_against_oracle(&alg, &oracles::hamiltonian_cycle, 41, 100, 7);
    }

    #[test]
    fn cycle_yes_path_no() {
        let alg = Algebra::new(HamiltonianCycle);
        let build = |close: bool| {
            let mut s = alg.empty();
            for _ in 0..5 {
                s = alg.add_vertex(s);
            }
            for i in 0..4 {
                s = alg.add_edge(s, i, i + 1, true);
            }
            if close {
                s = alg.add_edge(s, 0, 4, true);
            }
            s
        };
        assert!(alg.accept(&build(true)));
        assert!(!alg.accept(&build(false)));
    }

    #[test]
    fn two_triangles_sharing_nothing_fail() {
        let alg = Algebra::new(HamiltonianCycle);
        let mut s = alg.empty();
        for _ in 0..6 {
            s = alg.add_vertex(s);
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            s = alg.add_edge(s, a, b, true);
        }
        assert!(!alg.accept(&s), "two disjoint triangles are not one cycle");
    }

    #[test]
    fn glue_can_complete_a_cycle() {
        // Path a-b-c; gluing a and c yields a triangle-like closed walk on
        // 2 edges? No — gluing non-adjacent path ends of P3 gives C2 (multi);
        // use P4: v0-v1-v2-v3, glue v0,v3 → C3.
        let alg = Algebra::new(HamiltonianCycle);
        let mut s = alg.empty();
        for _ in 0..4 {
            s = alg.add_vertex(s);
        }
        for i in 0..3 {
            s = alg.add_edge(s, i, i + 1, true);
        }
        let s = alg.glue(s, 0, 3);
        assert!(alg.accept(&s));
    }
}
