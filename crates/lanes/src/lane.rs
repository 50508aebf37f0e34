//! Lane indices and small lane sets.

use std::fmt;

/// A lane index (`0`-based; the paper writes lanes `1..=k`).
pub type Lane = usize;

/// A set of lanes, stored as a 64-bit mask (the workspace never needs more
/// than 64 lanes: `f(4) = 110` exceeds it, but experiments cap the interval
/// width accordingly and the constructors panic loudly otherwise).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LaneSet(pub u64);

impl LaneSet {
    /// The empty set.
    pub const EMPTY: LaneSet = LaneSet(0);

    /// The most lanes a set holds.
    pub const CAPACITY: usize = 64;

    /// The singleton `{lane}`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn singleton(lane: Lane) -> Self {
        assert!(lane < 64, "lane {lane} out of range");
        LaneSet(1 << lane)
    }

    /// The set `{0, …, k-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `k > 64`.
    pub fn full(k: usize) -> Self {
        assert!(k <= 64, "at most 64 lanes supported");
        if k == 64 {
            LaneSet(u64::MAX)
        } else {
            LaneSet((1u64 << k) - 1)
        }
    }

    /// Inserts a lane.
    pub fn insert(&mut self, lane: Lane) {
        assert!(lane < 64, "lane {lane} out of range");
        self.0 |= 1 << lane;
    }

    /// Membership test.
    pub fn contains(&self, lane: Lane) -> bool {
        lane < 64 && self.0 & (1 << lane) != 0
    }

    /// Set union.
    pub fn union(&self, other: LaneSet) -> LaneSet {
        LaneSet(self.0 | other.0)
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset_of(&self, other: LaneSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Returns `true` if the sets share no lane.
    pub fn is_disjoint(&self, other: LaneSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Returns `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of lanes in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates lanes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Lane> + '_ {
        let mut mask = self.0;
        std::iter::from_fn(move || {
            if mask == 0 {
                None
            } else {
                let lane = mask.trailing_zeros() as Lane;
                mask &= mask - 1;
                Some(lane)
            }
        })
    }
}

impl FromIterator<Lane> for LaneSet {
    fn from_iter<T: IntoIterator<Item = Lane>>(iter: T) -> Self {
        let mut s = LaneSet::EMPTY;
        for lane in iter {
            s.insert(lane);
        }
        s
    }
}

impl fmt::Debug for LaneSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LaneSet{{")?;
        for (i, lane) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{lane}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for LaneSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra() {
        let a: LaneSet = [0, 2, 5].into_iter().collect();
        let b: LaneSet = [2, 3].into_iter().collect();
        assert_eq!(a.len(), 3);
        assert!(a.contains(2));
        assert!(!a.contains(1));
        assert_eq!(a.union(b), [0, 2, 3, 5].into_iter().collect());
        assert!(!a.is_disjoint(b));
        assert!(LaneSet::singleton(1).is_disjoint(a));
        assert!(b.is_subset_of(a.union(b)));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(LaneSet::full(3), [0, 1, 2].into_iter().collect());
        assert!(LaneSet::EMPTY.is_empty());
    }
}
