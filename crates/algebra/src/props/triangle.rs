//! The [`TriangleFree`] algebra.
//!
//! Triangle detection under vertex retirement needs two kinds of memory
//! beyond the live adjacency matrix:
//!
//! * `common1[x][y]` — some **retired vertex** is adjacent to both live
//!   slots `x` and `y` (an edge `{x, y}` would close a triangle);
//! * `common2[x][y]` — some **retired edge** `{p, q}` has `p` adjacent to
//!   `x` and `q` adjacent to `y` (gluing `x` and `y` would close the
//!   triangle `m, p, q`).
//!
//! Both matrices are maintained at `forget` time and merged at `glue`.

use crate::property::glue_order;
use crate::{Property, Slot};

/// Triangle-freeness of the marked subgraph.
#[derive(Clone, Debug, Default)]
pub struct TriangleFree;

/// Symmetric bit matrix over live slots (row `i` = `u32` bitmask).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
struct BitMat {
    rows: Vec<u32>,
}

impl BitMat {
    fn get(&self, a: Slot, b: Slot) -> bool {
        self.rows[a] & (1 << b) != 0
    }
    fn set(&mut self, a: Slot, b: Slot) {
        self.rows[a] |= 1 << b;
        self.rows[b] |= 1 << a;
    }
    fn push(&mut self) {
        self.rows.push(0);
    }
    fn remove(&mut self, s: Slot) {
        self.rows.remove(s);
        for r in self.rows.iter_mut() {
            let low = *r & ((1u32 << s) - 1);
            let high = *r >> (s + 1);
            *r = low | (high << s);
        }
    }
    /// OR row `drop` into row `keep` (used before removing `drop`).
    fn merge_into(&mut self, keep: Slot, drop: Slot) {
        let merged = self.rows[keep] | self.rows[drop];
        self.rows[keep] = merged;
        // Update columns symmetrically.
        for (i, r) in self.rows.iter_mut().enumerate() {
            if *r & (1 << drop) != 0 {
                *r |= 1 << keep;
            }
            // keep the diagonal clean of self-loops
            if i == keep {
                *r &= !(1 << keep);
            }
        }
        self.rows[keep] &= !(1 << keep) & !(1 << drop);
    }
    fn swap(&mut self, a: Slot, b: Slot) {
        self.rows.swap(a, b);
        for r in self.rows.iter_mut() {
            let (ba, bb) = (*r >> a & 1, *r >> b & 1);
            *r = (*r & !(1 << a) & !(1 << b)) | (bb << a) | (ba << b);
        }
    }
    fn len(&self) -> usize {
        self.rows.len()
    }
    fn append(&mut self, other: &BitMat) {
        let offset = self.rows.len();
        for &r in &other.rows {
            self.rows
                .push((r as u64).wrapping_shl(offset as u32) as u32);
        }
    }
}

/// State of [`TriangleFree`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TriState {
    adj: BitMat,
    common1: BitMat,
    common2: BitMat,
    found: bool,
}

impl Property for TriangleFree {
    type State = TriState;

    fn name(&self) -> String {
        "triangle-free".into()
    }

    fn empty(&self) -> TriState {
        TriState {
            adj: BitMat::default(),
            common1: BitMat::default(),
            common2: BitMat::default(),
            found: false,
        }
    }

    fn add_vertex(&self, s: &TriState) -> TriState {
        let mut s = s.clone();
        s.adj.push();
        s.common1.push();
        s.common2.push();
        s
    }

    fn add_edge(&self, s: &TriState, a: Slot, b: Slot, marked: bool) -> TriState {
        let mut s = s.clone();
        if !marked || s.found {
            return s;
        }
        // A live common neighbour or a retired common neighbour closes a
        // triangle.
        if s.adj.rows[a] & s.adj.rows[b] != 0 || s.common1.get(a, b) {
            s.found = true;
        }
        s.adj.set(a, b);
        s
    }

    fn glue(&self, s: &TriState, a: Slot, b: Slot) -> TriState {
        let (keep, drop) = glue_order(a, b);
        let mut s = s.clone();
        if !s.found {
            // Both-live triangles through the merged vertex.
            let merged_adj = s.adj.rows[keep] | s.adj.rows[drop];
            for p in 0..s.adj.len() {
                if p == keep || p == drop {
                    continue;
                }
                if merged_adj & (1 << p) != 0 {
                    // live q adjacent to both merged and p?
                    if merged_adj & s.adj.rows[p] & !(1 << keep) & !(1 << drop) != 0 {
                        s.found = true;
                    }
                    // retired q: merged adj p, and a-or-b shares a retired
                    // neighbour with p.
                    if s.common1.get(keep, p) || s.common1.get(drop, p) {
                        s.found = true;
                    }
                }
            }
            // Both-retired triangles: a retired edge bridging a and b.
            if s.common2.get(keep, drop) {
                s.found = true;
            }
        }
        s.adj.merge_into(keep, drop);
        s.common1.merge_into(keep, drop);
        s.common2.merge_into(keep, drop);
        s.adj.remove(drop);
        s.common1.remove(drop);
        s.common2.remove(drop);
        s
    }

    fn forget(&self, s: &TriState, q: Slot) -> TriState {
        let mut s = s.clone();
        let n = s.adj.len();
        // Pairs of live slots adjacent to q gain a retired common neighbour.
        let nbrs = s.adj.rows[q];
        for x in 0..n {
            if x == q || nbrs & (1 << x) == 0 {
                continue;
            }
            for y in (x + 1)..n {
                if y == q || nbrs & (1 << y) == 0 {
                    continue;
                }
                s.common1.set(x, y);
            }
        }
        // Retired edges through q: q had a retired neighbour p with
        // p adj x (= common1[q][x]); pairing with q's live neighbours y
        // records the retired edge {p, q} bridging x and y.
        let c1q = s.common1.rows[q];
        for x in 0..n {
            if x == q || c1q & (1 << x) == 0 {
                continue;
            }
            for y in 0..n {
                if y == q || nbrs & (1 << y) == 0 || x == y {
                    continue;
                }
                s.common2.set(x, y);
            }
        }
        s.adj.remove(q);
        s.common1.remove(q);
        s.common2.remove(q);
        s
    }

    fn union(&self, s1: &TriState, s2: &TriState) -> TriState {
        let mut s = s1.clone();
        s.adj.append(&s2.adj);
        s.common1.append(&s2.common1);
        s.common2.append(&s2.common2);
        s.found = s1.found || s2.found;
        s
    }

    fn swap(&self, s: &TriState, a: Slot, b: Slot) -> TriState {
        let mut s = s.clone();
        s.adj.swap(a, b);
        s.common1.swap(a, b);
        s.common2.swap(a, b);
        s
    }

    /// Set/map-valued states explode combinatorially; run sealed (see
    /// [`Property::enumerable`]).
    fn enumerable(&self) -> bool {
        false
    }

    fn accept(&self, s: &TriState) -> bool {
        !s.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::check_against_oracle;
    use crate::Algebra;
    use lanecert_graph::{Graph, VertexId};

    fn oracle(g: &Graph) -> bool {
        for u in g.vertices() {
            for v in g.neighbors(u) {
                for w in g.neighbors(v) {
                    if w != u && g.has_edge(w, u) {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn matches_oracle() {
        let alg = Algebra::new(TriangleFree);
        check_against_oracle(&alg, &oracle, 91, 200, 8);
    }

    #[test]
    fn direct_triangle_detected() {
        let alg = Algebra::new(TriangleFree);
        let mut s = alg.empty();
        for _ in 0..3 {
            s = alg.add_vertex(s);
        }
        s = alg.add_edge(s, 0, 1, true);
        s = alg.add_edge(s, 1, 2, true);
        assert!(alg.accept(&s));
        s = alg.add_edge(s, 0, 2, true);
        assert!(!alg.accept(&s));
    }

    #[test]
    fn triangle_through_retired_apex() {
        let alg = Algebra::new(TriangleFree);
        let mut s = alg.empty();
        for _ in 0..3 {
            s = alg.add_vertex(s);
        }
        s = alg.add_edge(s, 0, 1, true);
        s = alg.add_edge(s, 0, 2, true);
        let s = alg.forget(s, 0); // retire the apex
        let closed = alg.add_edge(s, 0, 1, true); // former slots 1, 2
        assert!(!alg.accept(&closed));
    }

    #[test]
    fn triangle_closed_by_glue_via_retired_path() {
        // a—p, p—q, q—b with p, q retired; gluing a and b closes the
        // triangle (m, p, q) — the common2 case.
        let alg = Algebra::new(TriangleFree);
        let mut s = alg.empty();
        for _ in 0..4 {
            s = alg.add_vertex(s); // slots: a=0, p=1, q=2, b=3
        }
        s = alg.add_edge(s, 0, 1, true);
        s = alg.add_edge(s, 1, 2, true);
        s = alg.add_edge(s, 2, 3, true);
        let s = alg.forget(s, 1); // retire p → slots a=0, q=1, b=2
        let s = alg.forget(s, 1); // retire q → slots a=0, b=1
        let glued = alg.glue(s, 0, 1);
        assert!(!alg.accept(&glued));
    }

    #[test]
    fn square_stays_triangle_free() {
        let alg = Algebra::new(TriangleFree);
        let mut s = alg.empty();
        for _ in 0..4 {
            s = alg.add_vertex(s);
        }
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            s = alg.add_edge(s, a, b, true);
        }
        assert!(alg.accept(&s));
        let _ = VertexId(0); // silence unused import in some cfgs
    }
}
