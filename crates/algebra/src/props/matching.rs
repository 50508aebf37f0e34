//! The [`PerfectMatching`] algebra.

use crate::property::glue_order;
use crate::{Property, Slot};

/// Existence of a perfect matching in the marked subgraph.
#[derive(Clone, Debug, Default)]
pub struct PerfectMatching;

/// State: the set of "which live slots are already matched" masks reachable
/// by matchings that saturate every retired vertex.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MatchState {
    slots: u8,
    masks: Vec<u32>, // sorted, deduped
}

fn normalize(mut masks: Vec<u32>) -> Vec<u32> {
    masks.sort_unstable();
    masks.dedup();
    masks
}

fn drop_bit(mask: u32, slot: Slot) -> u32 {
    let low = mask & ((1u32 << slot) - 1);
    let high = mask >> (slot + 1);
    low | (high << slot)
}

impl Property for PerfectMatching {
    type State = MatchState;

    fn name(&self) -> String {
        "perfect-matching".into()
    }

    fn empty(&self) -> MatchState {
        MatchState {
            slots: 0,
            masks: vec![0],
        }
    }

    fn add_vertex(&self, s: &MatchState) -> MatchState {
        assert!(s.slots < 31, "slot budget");
        MatchState {
            slots: s.slots + 1,
            masks: s.masks.clone(), // new slot enters unmatched (bit 0)
        }
    }

    fn add_edge(&self, s: &MatchState, a: Slot, b: Slot, marked: bool) -> MatchState {
        if !marked {
            return s.clone();
        }
        let mut masks = s.masks.clone();
        for &m in &s.masks {
            if m & (1 << a) == 0 && m & (1 << b) == 0 {
                masks.push(m | (1 << a) | (1 << b));
            }
        }
        MatchState {
            slots: s.slots,
            masks: normalize(masks),
        }
    }

    fn glue(&self, s: &MatchState, a: Slot, b: Slot) -> MatchState {
        let (keep, drop) = glue_order(a, b);
        let masks = s
            .masks
            .iter()
            .copied()
            .filter(|&m| !(m & (1 << keep) != 0 && m & (1 << drop) != 0)) // double-matched
            .map(|m| {
                let merged = m & (1 << keep) != 0 || m & (1 << drop) != 0;
                let m = drop_bit(m, drop);
                if merged {
                    m | (1 << keep)
                } else {
                    m & !(1 << keep)
                }
            })
            .collect();
        MatchState {
            slots: s.slots - 1,
            masks: normalize(masks),
        }
    }

    fn forget(&self, s: &MatchState, a: Slot) -> MatchState {
        // Retired vertices must already be matched.
        let masks = s
            .masks
            .iter()
            .copied()
            .filter(|&m| m & (1 << a) != 0)
            .map(|m| drop_bit(m, a))
            .collect();
        MatchState {
            slots: s.slots - 1,
            masks: normalize(masks),
        }
    }

    fn union(&self, s1: &MatchState, s2: &MatchState) -> MatchState {
        assert!(s1.slots + s2.slots <= 31, "slot budget");
        let masks = s1
            .masks
            .iter()
            .flat_map(|&m1| s2.masks.iter().map(move |&m2| m1 | (m2 << s1.slots)))
            .collect();
        MatchState {
            slots: s1.slots + s2.slots,
            masks: normalize(masks),
        }
    }

    fn swap(&self, s: &MatchState, a: Slot, b: Slot) -> MatchState {
        let masks = s
            .masks
            .iter()
            .map(|&m| {
                let (ba, bb) = (m >> a & 1, m >> b & 1);
                let mut m = m & !(1 << a) & !(1 << b);
                m |= bb << a;
                m |= ba << b;
                m
            })
            .collect();
        MatchState {
            slots: s.slots,
            masks: normalize(masks),
        }
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &MatchState) -> bool {
        let full = if s.slots == 0 {
            0
        } else {
            (1u32 << s.slots) - 1
        };
        s.masks.contains(&full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::{check_against_oracle, oracles};
    use crate::Algebra;

    #[test]
    fn matches_oracle() {
        let alg = Algebra::new(PerfectMatching);
        check_against_oracle(&alg, &oracles::perfect_matching, 31, 120, 8);
    }

    #[test]
    fn path_parity() {
        let alg = Algebra::new(PerfectMatching);
        // P4 has a perfect matching, P3 does not.
        for (n, want) in [(4usize, true), (3, false)] {
            let mut s = alg.empty();
            for _ in 0..n {
                s = alg.add_vertex(s);
            }
            for i in 0..n - 1 {
                s = alg.add_edge(s, i, i + 1, true);
            }
            assert_eq!(alg.accept(&s), want, "P{n}");
        }
    }

    #[test]
    fn drop_bit_shifts() {
        assert_eq!(drop_bit(0b101, 0), 0b10);
        assert_eq!(drop_bit(0b101, 1), 0b11);
        assert_eq!(drop_bit(0b101, 2), 0b01);
    }
}
