//! A fixed-inline-capacity vector for the certificate hot path.
//!
//! Labels and interface summaries are built out of many very short
//! sequences — lane/terminal pairs (≤ `max_lanes` entries, usually ≤ 4),
//! slot-id lists, per-lane path ids. Decoding and re-summarizing them
//! during verification is the memory-bound core of a shard, and a heap
//! allocation per two-entry `Vec` was most of its cost. [`InlineVec`]
//! stores the first `N` elements in the struct itself and only touches
//! the heap past that, so the common case decodes and clones with zero
//! allocations while arbitrarily long sequences still work.
//!
//! Only `Copy + Default` element types are supported — that keeps the
//! implementation entirely safe (no `MaybeUninit`), and every hot-path
//! element type (`(u8, u64)`, `(usize, u64)`, `u64`, `bool`) qualifies.

/// A vector with inline storage for up to `N` elements and heap spill
/// beyond. Derefs to a slice; equality/ordering/hashing follow the slice,
/// so whether a value has spilled is unobservable.
#[derive(Clone, Debug)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    /// Total number of elements.
    len: u32,
    /// First `len` elements when `spill` is empty.
    inline: [T; N],
    /// All `len` elements once the inline array has overflowed.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// The empty vector.
    pub fn new() -> Self {
        Self {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.spill
        }
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        let l = self.len as usize;
        if self.spill.is_empty() && l < N {
            self.inline[l] = value;
        } else {
            if self.spill.is_empty() {
                // First overflow: move the inline prefix to the heap.
                self.spill.reserve(l + 1);
                self.spill.extend_from_slice(&self.inline[..l]);
            }
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Inserts an element at `index`, shifting the tail right.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(index <= self.len as usize);
        self.push(value);
        self.as_mut_slice()[index..].rotate_right(1);
    }

    /// Removes and returns the element at `index`, shifting the tail left.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        let slice = self.as_mut_slice();
        let value = slice[index];
        slice[index..].rotate_left(1);
        self.spill.pop();
        self.len -= 1;
        value
    }

    /// Shortens the vector to its first `len` elements (no-op if it is
    /// not longer).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.spill.truncate(len);
            self.len = len as u32;
        }
    }

    /// Iterates the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + std::hash::Hash, const N: usize> std::hash::Hash for InlineVec<T, N> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Slice hashing (length-prefixed) so spill state is unobservable.
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        out.extend(iter);
        out
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(arr: [T; M]) -> Self {
        arr.into_iter().collect()
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(slice: &[T]) -> Self {
        slice.iter().copied().collect()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(vec: Vec<T>) -> Self {
        vec.into_iter().collect()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A scratch list with inline storage for up to `N` elements and heap
/// spill beyond, for element types that [`InlineVec`] cannot hold —
/// references and owning structs without `Copy + Default` (certificate
/// borrows, summaries). The inline slots are `Option<T>`, which keeps the
/// implementation entirely safe at the cost of contiguity: elements are
/// reached through [`ScratchBuf::get`]/[`ScratchBuf::iter`], not a slice.
///
/// Verification builds several such lists per vertex (incident
/// certificates, transit records, per-member groups); keeping the common
/// short case inline is what holds the verify path near the decode-side
/// allocation floor.
#[derive(Debug)]
pub struct ScratchBuf<T, const N: usize> {
    /// Total number of elements.
    len: usize,
    /// Slots `0..min(len, N)` are `Some`.
    inline: [Option<T>; N],
    /// Elements `N..len`, in order.
    spill: Vec<T>,
}

impl<T, const N: usize> ScratchBuf<T, N> {
    /// The empty list.
    pub fn new() -> Self {
        Self {
            len: 0,
            inline: std::array::from_fn(|_| None),
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an element. Allocation-free while `len < N`.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = Some(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Returns the element at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            None
        } else if index < N {
            self.inline[index].as_ref()
        } else {
            self.spill.get(index - N)
        }
    }

    /// The first element.
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// Iterates the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline
            .iter()
            .take(self.len.min(N))
            .flatten()
            .chain(self.spill.iter())
    }
}

impl<T, const N: usize> Default for ScratchBuf<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = InlineVec<u64, 4>;

    #[test]
    fn inline_then_spill() {
        let mut v = V::new();
        assert!(v.is_empty());
        for i in 0..10 {
            v.push(i);
            assert_eq!(v.len(), i as usize + 1);
        }
        assert_eq!(v.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
    }

    #[test]
    // Randomized hashing is the point here: equal values must hash equal
    // under any hasher, so a per-process random one is the strongest probe.
    #[allow(clippy::disallowed_types)]
    fn equality_ignores_spill_state() {
        use std::hash::{BuildHasher, RandomState};
        // Build [0..6) two ways: grown past the boundary, and shrunk back
        // under it (stays spilled).
        let grown: V = (0..6).collect();
        let mut shrunk: V = (0..8).collect();
        shrunk.remove(7);
        shrunk.remove(6);
        assert_eq!(grown, shrunk);
        let s = RandomState::new();
        assert_eq!(s.hash_one(&grown), s.hash_one(&shrunk));
    }

    #[test]
    fn insert_remove_both_sides_of_boundary() {
        let mut v: V = [1u64, 3].into();
        v.insert(1, 2); // inline
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        v.insert(3, 5);
        v.insert(3, 4); // spills
        assert_eq!(v.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(v.remove(0), 1);
        assert_eq!(v.as_slice(), &[2, 3, 4, 5]);
        let mut w: V = [7u64, 8].into();
        assert_eq!(w.remove(1), 8);
        assert_eq!(w.as_slice(), &[7]);
    }

    #[test]
    fn push_after_shrinking_spilled_vec() {
        let mut v: V = (0..5).collect();
        while !v.is_empty() {
            v.remove(0);
        }
        // Spill is drained; pushes go inline again and stay coherent.
        v.push(42);
        assert_eq!(v.as_slice(), &[42]);
    }

    #[test]
    fn slice_ops_via_deref() {
        let mut v: V = [9u64, 1, 5].into();
        v.sort_unstable();
        assert_eq!(v.binary_search(&5), Ok(1));
        v[0] = 0;
        assert_eq!(v.as_slice(), &[0, 5, 9]);
    }

    #[test]
    fn scratch_buf_inline_then_spill() {
        // Non-Copy, non-Default elements are the whole point.
        let mut b: ScratchBuf<String, 2> = ScratchBuf::new();
        assert!(b.is_empty());
        assert_eq!(b.first(), None);
        for i in 0..5 {
            b.push(i.to_string());
        }
        assert_eq!(b.len(), 5);
        assert_eq!(b.first().map(String::as_str), Some("0"));
        assert_eq!(b.get(1).map(String::as_str), Some("1"));
        assert_eq!(b.get(2).map(String::as_str), Some("2")); // first spilled
        assert_eq!(b.get(4).map(String::as_str), Some("4"));
        assert_eq!(b.get(5), None);
        let joined: Vec<&str> = b.iter().map(String::as_str).collect();
        assert_eq!(joined, ["0", "1", "2", "3", "4"]);
    }

    #[test]
    fn scratch_buf_holds_references() {
        let owned = [10u64, 20, 30];
        let mut b: ScratchBuf<&u64, 2> = ScratchBuf::new();
        for v in &owned {
            b.push(v);
        }
        assert_eq!(b.iter().map(|&&v| v).sum::<u64>(), 60);
        assert_eq!(b.get(2), Some(&&owned[2]));
    }
}
