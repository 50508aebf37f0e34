//! Weighted-selection algebras: [`VertexCoverAtMost`],
//! [`IndependentSetAtLeast`], [`DominatingSetAtMost`].

use std::collections::BTreeMap;

use crate::property::glue_order;
use crate::{Property, Slot};

fn swap_bits(m: u32, a: Slot, b: Slot) -> u32 {
    let (ba, bb) = (m >> a & 1, m >> b & 1);
    let mut m = m & !(1 << a) & !(1 << b);
    m |= bb << a;
    m |= ba << b;
    m
}

fn drop_bit(mask: u32, slot: Slot) -> u32 {
    let low = mask & ((1u32 << slot) - 1);
    let high = mask >> (slot + 1);
    low | (high << slot)
}

// ---------------------------------------------------------------------------
// Vertex cover
// ---------------------------------------------------------------------------

/// Vertex cover of size at most `s` in the marked subgraph.
#[derive(Clone, Debug)]
pub struct VertexCoverAtMost {
    s: u16,
}

impl VertexCoverAtMost {
    /// Creates the algebra for budget `s`.
    pub fn new(s: usize) -> Self {
        Self { s: s as u16 }
    }
}

/// State: for each cover-membership mask of the live slots, the minimum
/// number of retired cover vertices (entries exceeding the budget pruned).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CoverState {
    slots: u8,
    table: Vec<(u32, u16)>, // sorted by mask
}

impl VertexCoverAtMost {
    fn rebuild(&self, slots: u8, entries: impl IntoIterator<Item = (u32, u16)>) -> CoverState {
        let mut best: BTreeMap<u32, u16> = BTreeMap::new();
        for (m, c) in entries {
            // Prune on the *retired* cost only: it can never shrink, while
            // the live-slot popcount can (glues merge cover slots).
            if c > self.s {
                continue;
            }
            let e = best.entry(m).or_insert(u16::MAX);
            *e = (*e).min(c);
        }
        CoverState {
            slots,
            table: best.into_iter().collect(),
        }
    }
}

impl Property for VertexCoverAtMost {
    type State = CoverState;

    fn name(&self) -> String {
        format!("vertex-cover<={}", self.s)
    }

    fn empty(&self) -> CoverState {
        CoverState {
            slots: 0,
            table: vec![(0, 0)],
        }
    }

    fn add_vertex(&self, s: &CoverState) -> CoverState {
        let slot = s.slots as usize;
        self.rebuild(
            s.slots + 1,
            s.table
                .iter()
                .flat_map(|&(m, c)| [(m, c), (m | (1 << slot), c)]),
        )
    }

    fn add_edge(&self, s: &CoverState, a: Slot, b: Slot, marked: bool) -> CoverState {
        if !marked {
            return s.clone();
        }
        self.rebuild(
            s.slots,
            s.table
                .iter()
                .copied()
                .filter(|&(m, _)| m & (1 << a) != 0 || m & (1 << b) != 0),
        )
    }

    fn glue(&self, s: &CoverState, a: Slot, b: Slot) -> CoverState {
        let (keep, drop) = glue_order(a, b);
        self.rebuild(
            s.slots - 1,
            s.table.iter().map(|&(m, c)| {
                let merged = m & (1 << keep) != 0 || m & (1 << drop) != 0;
                let m = drop_bit(m, drop);
                (
                    if merged {
                        m | (1 << keep)
                    } else {
                        m & !(1 << keep)
                    },
                    c,
                )
            }),
        )
    }

    fn forget(&self, s: &CoverState, a: Slot) -> CoverState {
        self.rebuild(
            s.slots - 1,
            s.table.iter().map(|&(m, c)| {
                let in_cover = m & (1 << a) != 0;
                (drop_bit(m, a), c + u16::from(in_cover))
            }),
        )
    }

    fn union(&self, s1: &CoverState, s2: &CoverState) -> CoverState {
        self.rebuild(
            s1.slots + s2.slots,
            s1.table.iter().flat_map(|&(m1, c1)| {
                s2.table
                    .iter()
                    .map(move |&(m2, c2)| (m1 | (m2 << s1.slots), c1 + c2))
            }),
        )
    }

    fn swap(&self, s: &CoverState, a: Slot, b: Slot) -> CoverState {
        self.rebuild(
            s.slots,
            s.table.iter().map(|&(m, c)| (swap_bits(m, a, b), c)),
        )
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &CoverState) -> bool {
        s.table
            .iter()
            .any(|&(m, c)| c as u32 + m.count_ones() <= self.s as u32)
    }
}

// ---------------------------------------------------------------------------
// Independent set
// ---------------------------------------------------------------------------

/// Independent set of size at least `s` in the marked subgraph.
#[derive(Clone, Debug)]
pub struct IndependentSetAtLeast {
    s: u16,
}

impl IndependentSetAtLeast {
    /// Creates the algebra for target size `s`.
    pub fn new(s: usize) -> Self {
        Self { s: s as u16 }
    }
}

/// State: for each independent-membership mask of live slots, the maximum
/// number of retired set members (capped at `s`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IndepState {
    slots: u8,
    table: Vec<(u32, u16)>,
}

impl IndependentSetAtLeast {
    fn rebuild(&self, slots: u8, entries: impl IntoIterator<Item = (u32, u16)>) -> IndepState {
        let mut best: BTreeMap<u32, u16> = BTreeMap::new();
        for (m, c) in entries {
            let c = c.min(self.s);
            let e = best.entry(m).or_insert(0);
            *e = (*e).max(c);
        }
        IndepState {
            slots,
            table: best.into_iter().collect(),
        }
    }
}

impl Property for IndependentSetAtLeast {
    type State = IndepState;

    fn name(&self) -> String {
        format!("independent-set>={}", self.s)
    }

    fn empty(&self) -> IndepState {
        IndepState {
            slots: 0,
            table: vec![(0, 0)],
        }
    }

    fn add_vertex(&self, s: &IndepState) -> IndepState {
        let slot = s.slots as usize;
        self.rebuild(
            s.slots + 1,
            s.table
                .iter()
                .flat_map(|&(m, c)| [(m, c), (m | (1 << slot), c)]),
        )
    }

    fn add_edge(&self, s: &IndepState, a: Slot, b: Slot, marked: bool) -> IndepState {
        if !marked {
            return s.clone();
        }
        self.rebuild(
            s.slots,
            s.table
                .iter()
                .copied()
                .filter(|&(m, _)| !(m & (1 << a) != 0 && m & (1 << b) != 0)),
        )
    }

    fn glue(&self, s: &IndepState, a: Slot, b: Slot) -> IndepState {
        let (keep, drop) = glue_order(a, b);
        self.rebuild(
            s.slots - 1,
            s.table.iter().map(|&(m, c)| {
                // The merged vertex is in the set only if both histories say
                // so (removing a vertex from an independent set is sound).
                let merged = m & (1 << keep) != 0 && m & (1 << drop) != 0;
                let m = drop_bit(m, drop);
                (
                    if merged {
                        m | (1 << keep)
                    } else {
                        m & !(1 << keep)
                    },
                    c,
                )
            }),
        )
    }

    fn forget(&self, s: &IndepState, a: Slot) -> IndepState {
        self.rebuild(
            s.slots - 1,
            s.table.iter().map(|&(m, c)| {
                let member = m & (1 << a) != 0;
                (drop_bit(m, a), c + u16::from(member))
            }),
        )
    }

    fn union(&self, s1: &IndepState, s2: &IndepState) -> IndepState {
        self.rebuild(
            s1.slots + s2.slots,
            s1.table.iter().flat_map(|&(m1, c1)| {
                s2.table
                    .iter()
                    .map(move |&(m2, c2)| (m1 | (m2 << s1.slots), c1 + c2))
            }),
        )
    }

    fn swap(&self, s: &IndepState, a: Slot, b: Slot) -> IndepState {
        self.rebuild(
            s.slots,
            s.table.iter().map(|&(m, c)| (swap_bits(m, a, b), c)),
        )
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &IndepState) -> bool {
        s.table
            .iter()
            .any(|&(m, c)| c as u32 + m.count_ones() >= self.s as u32)
    }
}

// ---------------------------------------------------------------------------
// Dominating set
// ---------------------------------------------------------------------------

/// Dominating set of size at most `s` in the marked subgraph.
#[derive(Clone, Debug)]
pub struct DominatingSetAtMost {
    s: u16,
}

impl DominatingSetAtMost {
    /// Creates the algebra for budget `s`.
    pub fn new(s: usize) -> Self {
        Self { s: s as u16 }
    }
}

/// Per-slot domination status.
const UNDOM: u8 = 0;
const DOM: u8 = 1;
const INSET: u8 = 2;

/// State: map from live-slot status vectors to the minimum number of
/// retired set members.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DomState {
    table: Vec<(Vec<u8>, u16)>, // sorted by status vector
}

impl DominatingSetAtMost {
    fn rebuild(&self, entries: impl IntoIterator<Item = (Vec<u8>, u16)>) -> DomState {
        let mut best: BTreeMap<Vec<u8>, u16> = BTreeMap::new();
        for (k, c) in entries {
            if c > self.s {
                continue;
            }
            let e = best.entry(k).or_insert(u16::MAX);
            *e = (*e).min(c);
        }
        DomState {
            table: best.into_iter().collect(),
        }
    }
}

impl Property for DominatingSetAtMost {
    type State = DomState;

    fn name(&self) -> String {
        format!("dominating-set<={}", self.s)
    }

    fn empty(&self) -> DomState {
        DomState {
            table: vec![(Vec::new(), 0)],
        }
    }

    fn add_vertex(&self, s: &DomState) -> DomState {
        self.rebuild(s.table.iter().flat_map(|(k, c)| {
            let mut a = k.clone();
            a.push(UNDOM);
            let mut b = k.clone();
            b.push(INSET);
            [(a, *c), (b, *c)]
        }))
    }

    fn add_edge(&self, s: &DomState, a: Slot, b: Slot, marked: bool) -> DomState {
        if !marked {
            return s.clone();
        }
        self.rebuild(s.table.iter().map(|(k, c)| {
            let mut k = k.clone();
            if k[a] == INSET && k[b] == UNDOM {
                k[b] = DOM;
            }
            if k[b] == INSET && k[a] == UNDOM {
                k[a] = DOM;
            }
            (k, *c)
        }))
    }

    fn glue(&self, s: &DomState, a: Slot, b: Slot) -> DomState {
        let (keep, drop) = glue_order(a, b);
        self.rebuild(s.table.iter().map(|(k, c)| {
            let mut k = k.clone();
            k[keep] = k[keep].max(k[drop]);
            k.remove(drop);
            (k, *c)
        }))
    }

    fn forget(&self, s: &DomState, a: Slot) -> DomState {
        self.rebuild(s.table.iter().filter_map(|(k, c)| {
            if k[a] == UNDOM {
                return None; // retired vertices can never become dominated
            }
            let cost = c + u16::from(k[a] == INSET);
            let mut k = k.clone();
            k.remove(a);
            Some((k, cost))
        }))
    }

    fn union(&self, s1: &DomState, s2: &DomState) -> DomState {
        self.rebuild(s1.table.iter().flat_map(|(k1, c1)| {
            s2.table.iter().map(move |(k2, c2)| {
                let mut k = k1.clone();
                k.extend_from_slice(k2);
                (k, c1 + c2)
            })
        }))
    }

    fn swap(&self, s: &DomState, a: Slot, b: Slot) -> DomState {
        self.rebuild(s.table.iter().map(|(k, c)| {
            let mut k = k.clone();
            k.swap(a, b);
            (k, *c)
        }))
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &DomState) -> bool {
        s.table.iter().any(|(k, c)| {
            k.iter().all(|&st| st != UNDOM)
                && *c as usize + k.iter().filter(|&&st| st == INSET).count() <= self.s as usize
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::{check_against_oracle, oracles};
    use crate::Algebra;

    #[test]
    fn vertex_cover_matches_oracle() {
        for s in [0usize, 1, 2, 3] {
            let alg = Algebra::new(VertexCoverAtMost::new(s));
            check_against_oracle(
                &alg,
                &move |g| oracles::vertex_cover_at_most(g, s),
                51,
                60,
                7,
            );
        }
    }

    #[test]
    fn independent_set_matches_oracle() {
        for s in [1usize, 2, 4] {
            let alg = Algebra::new(IndependentSetAtLeast::new(s));
            check_against_oracle(
                &alg,
                &move |g| oracles::independent_set_at_least(g, s),
                52,
                60,
                7,
            );
        }
    }

    #[test]
    fn dominating_set_matches_oracle() {
        for s in [1usize, 2, 3] {
            let alg = Algebra::new(DominatingSetAtMost::new(s));
            check_against_oracle(
                &alg,
                &move |g| oracles::dominating_set_at_most(g, s),
                53,
                60,
                7,
            );
        }
    }

    #[test]
    fn star_cover_and_domination() {
        // A star K_{1,4}: VC(1) yes, DS(1) yes, IS(4) yes.
        let vc = Algebra::new(VertexCoverAtMost::new(1));
        let ds = Algebra::new(DominatingSetAtMost::new(1));
        let is = Algebra::new(IndependentSetAtLeast::new(4));
        for alg in [&vc, &ds, &is] {
            let mut s = alg.empty();
            for _ in 0..5 {
                s = alg.add_vertex(s);
            }
            for leaf in 1..5 {
                s = alg.add_edge(s, 0, leaf, true);
            }
            assert!(alg.accept(&s), "{}", alg.name());
        }
    }
}
