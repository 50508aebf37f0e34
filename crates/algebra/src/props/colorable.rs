//! The [`Colorable`] algebra: proper `c`-colourability via feasible
//! terminal-colouring sets.

use crate::property::glue_order;
use crate::{Property, Slot};

/// Proper `c`-colourability of the marked subgraph (`2 ≤ c ≤ 4`, at most 15
/// live slots — plenty for the pipeline, which uses `≤ 2w` slots).
#[derive(Clone, Debug)]
pub struct Colorable {
    c: u32,
}

impl Colorable {
    /// Creates the algebra for `c` colours.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ c ≤ 4`.
    pub fn new(c: usize) -> Self {
        assert!((1..=4).contains(&c), "supported colour counts: 1..=4");
        Self { c: c as u32 }
    }
}

/// State: the set of colourings of the live slots extendable to a proper
/// colouring of everything retired so far. Each colouring packs 2 bits per
/// slot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ColorState {
    slots: u8,
    cols: Vec<u32>, // sorted, deduped
}

fn color_at(col: u32, slot: Slot) -> u32 {
    (col >> (2 * slot)) & 0b11
}

fn drop_slot(col: u32, slot: Slot) -> u32 {
    let low = col & ((1u32 << (2 * slot)) - 1);
    let high = col >> (2 * (slot + 1));
    low | (high << (2 * slot))
}

fn normalize(mut cols: Vec<u32>) -> Vec<u32> {
    cols.sort_unstable();
    cols.dedup();
    cols
}

impl Property for Colorable {
    type State = ColorState;

    fn name(&self) -> String {
        format!("{}-colorable", self.c)
    }

    fn empty(&self) -> ColorState {
        ColorState {
            slots: 0,
            cols: vec![0],
        }
    }

    fn add_vertex(&self, s: &ColorState) -> ColorState {
        assert!(s.slots < 15, "Colorable supports at most 15 slots");
        let slot = s.slots as usize;
        let cols = s
            .cols
            .iter()
            .flat_map(|&col| (0..self.c).map(move |color| col | (color << (2 * slot))))
            .collect();
        ColorState {
            slots: s.slots + 1,
            cols: normalize(cols),
        }
    }

    fn add_edge(&self, s: &ColorState, a: Slot, b: Slot, marked: bool) -> ColorState {
        if !marked {
            return s.clone();
        }
        ColorState {
            slots: s.slots,
            cols: s
                .cols
                .iter()
                .copied()
                .filter(|&col| color_at(col, a) != color_at(col, b))
                .collect(),
        }
    }

    fn glue(&self, s: &ColorState, a: Slot, b: Slot) -> ColorState {
        let (keep, drop) = glue_order(a, b);
        let cols = s
            .cols
            .iter()
            .copied()
            .filter(|&col| color_at(col, keep) == color_at(col, drop))
            .map(|col| drop_slot(col, drop))
            .collect();
        ColorState {
            slots: s.slots - 1,
            cols: normalize(cols),
        }
    }

    fn forget(&self, s: &ColorState, a: Slot) -> ColorState {
        let cols = s.cols.iter().map(|&col| drop_slot(col, a)).collect();
        ColorState {
            slots: s.slots - 1,
            cols: normalize(cols),
        }
    }

    fn union(&self, s1: &ColorState, s2: &ColorState) -> ColorState {
        assert!(s1.slots + s2.slots <= 15, "slot budget exceeded in union");
        let shift = 2 * s1.slots as usize;
        let cols = s1
            .cols
            .iter()
            .flat_map(|&c1| s2.cols.iter().map(move |&c2| c1 | (c2 << shift)))
            .collect();
        ColorState {
            slots: s1.slots + s2.slots,
            cols: normalize(cols),
        }
    }

    fn swap(&self, s: &ColorState, a: Slot, b: Slot) -> ColorState {
        let cols = s
            .cols
            .iter()
            .map(|&col| {
                let ca = color_at(col, a);
                let cb = color_at(col, b);
                let mut col = col & !(0b11 << (2 * a)) & !(0b11 << (2 * b));
                col |= cb << (2 * a);
                col |= ca << (2 * b);
                col
            })
            .collect();
        ColorState {
            slots: s.slots,
            cols: normalize(cols),
        }
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &ColorState) -> bool {
        !s.cols.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::{check_against_oracle, oracles};
    use crate::Algebra;

    #[test]
    fn two_colorable_matches_oracle() {
        let alg = Algebra::new(Colorable::new(2));
        check_against_oracle(&alg, &|g| oracles::colorable(g, 2), 21, 100, 7);
    }

    #[test]
    fn three_colorable_matches_oracle() {
        let alg = Algebra::new(Colorable::new(3));
        check_against_oracle(&alg, &|g| oracles::colorable(g, 3), 22, 80, 7);
    }

    #[test]
    fn triangle_needs_three_colors() {
        let alg2 = Algebra::new(Colorable::new(2));
        let alg3 = Algebra::new(Colorable::new(3));
        for (alg, want) in [(&alg2, false), (&alg3, true)] {
            let mut s = alg.empty();
            for _ in 0..3 {
                s = alg.add_vertex(s);
            }
            for (a, b) in [(0, 1), (1, 2), (0, 2)] {
                s = alg.add_edge(s, a, b, true);
            }
            assert_eq!(alg.accept(&s), want);
        }
    }

    #[test]
    fn drop_slot_packs_correctly() {
        // colouring [a=1, b=2, c=3] → drop b → [1, 3]
        let col = 0b11_10_01;
        assert_eq!(drop_slot(col, 1), 0b11_01);
        assert_eq!(drop_slot(col, 0), 0b11_10);
        assert_eq!(drop_slot(col, 2), 0b10_01);
    }
}
