//! Partition-state algebras: [`Forest`], [`Connected`], [`Bipartite`].

use crate::property::glue_order;
use crate::{Property, Slot};

/// Renumbers block ids by first occurrence (canonical form).
fn canon(blocks: &mut [u8]) {
    let mut map = [u8::MAX; 256];
    let mut next = 0u8;
    for b in blocks.iter_mut() {
        if map[*b as usize] == u8::MAX {
            map[*b as usize] = next;
            next += 1;
        }
        *b = map[*b as usize];
    }
}

fn merge_blocks(blocks: &mut [u8], keep: u8, drop: u8) {
    for b in blocks.iter_mut() {
        if *b == drop {
            *b = keep;
        }
    }
    canon(blocks);
}

// ---------------------------------------------------------------------------
// Forest
// ---------------------------------------------------------------------------

/// Acyclicity of the marked subgraph ("is a forest").
#[derive(Clone, Debug, Default)]
pub struct Forest;

/// State of [`Forest`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ForestState {
    part: Vec<u8>,
    cyclic: bool,
}

impl Property for Forest {
    type State = ForestState;

    fn name(&self) -> String {
        "forest".into()
    }

    fn empty(&self) -> ForestState {
        ForestState {
            part: Vec::new(),
            cyclic: false,
        }
    }

    fn add_vertex(&self, s: &ForestState) -> ForestState {
        let mut s = s.clone();
        let fresh = s.part.iter().copied().max().map_or(0, |m| m + 1);
        s.part.push(fresh);
        canon(&mut s.part);
        s
    }

    fn add_edge(&self, s: &ForestState, a: Slot, b: Slot, marked: bool) -> ForestState {
        let mut s = s.clone();
        if !marked || s.cyclic {
            return s;
        }
        if s.part[a] == s.part[b] {
            s.cyclic = true;
        } else {
            let (keep, drop) = (s.part[a].min(s.part[b]), s.part[a].max(s.part[b]));
            merge_blocks(&mut s.part, keep, drop);
        }
        s
    }

    fn glue(&self, s: &ForestState, a: Slot, b: Slot) -> ForestState {
        // Identifying two marked-connected vertices closes a cycle.
        let mut s = self.add_edge(s, a, b, true);
        let (_, drop) = glue_order(a, b);
        s.part.remove(drop);
        canon(&mut s.part);
        s
    }

    fn forget(&self, s: &ForestState, a: Slot) -> ForestState {
        let mut s = s.clone();
        s.part.remove(a);
        canon(&mut s.part);
        s
    }

    fn union(&self, s1: &ForestState, s2: &ForestState) -> ForestState {
        let offset = s1.part.iter().copied().max().map_or(0, |m| m + 1);
        let mut part = s1.part.clone();
        part.extend(s2.part.iter().map(|b| b + offset));
        canon(&mut part);
        ForestState {
            part,
            cyclic: s1.cyclic || s2.cyclic,
        }
    }

    fn swap(&self, s: &ForestState, a: Slot, b: Slot) -> ForestState {
        let mut s = s.clone();
        s.part.swap(a, b);
        canon(&mut s.part);
        s
    }

    fn accept(&self, s: &ForestState) -> bool {
        !s.cyclic
    }
}

// ---------------------------------------------------------------------------
// Connected
// ---------------------------------------------------------------------------

/// Connectivity of the marked subgraph over **all** vertices.
#[derive(Clone, Debug, Default)]
pub struct Connected;

/// State of [`Connected`]: live-slot partition plus the number of retired
/// components with no remaining slot (saturated at 2 — more than one dead
/// component can never reconnect).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ConnectedState {
    part: Vec<u8>,
    dead: u8,
}

impl Property for Connected {
    type State = ConnectedState;

    fn name(&self) -> String {
        "connected".into()
    }

    fn empty(&self) -> ConnectedState {
        ConnectedState {
            part: Vec::new(),
            dead: 0,
        }
    }

    fn add_vertex(&self, s: &ConnectedState) -> ConnectedState {
        let mut s = s.clone();
        let fresh = s.part.iter().copied().max().map_or(0, |m| m + 1);
        s.part.push(fresh);
        canon(&mut s.part);
        s
    }

    fn add_edge(&self, s: &ConnectedState, a: Slot, b: Slot, marked: bool) -> ConnectedState {
        let mut s = s.clone();
        if marked && s.part[a] != s.part[b] {
            let (keep, drop) = (s.part[a].min(s.part[b]), s.part[a].max(s.part[b]));
            merge_blocks(&mut s.part, keep, drop);
        }
        s
    }

    fn glue(&self, s: &ConnectedState, a: Slot, b: Slot) -> ConnectedState {
        let mut s = self.add_edge(s, a, b, true);
        let (_, drop) = glue_order(a, b);
        s.part.remove(drop);
        canon(&mut s.part);
        s
    }

    fn forget(&self, s: &ConnectedState, a: Slot) -> ConnectedState {
        let mut s = s.clone();
        let block = s.part[a];
        s.part.remove(a);
        if !s.part.contains(&block) {
            s.dead = (s.dead + 1).min(2);
        }
        canon(&mut s.part);
        s
    }

    fn union(&self, s1: &ConnectedState, s2: &ConnectedState) -> ConnectedState {
        let offset = s1.part.iter().copied().max().map_or(0, |m| m + 1);
        let mut part = s1.part.clone();
        part.extend(s2.part.iter().map(|b| b + offset));
        canon(&mut part);
        ConnectedState {
            part,
            dead: (s1.dead + s2.dead).min(2),
        }
    }

    fn swap(&self, s: &ConnectedState, a: Slot, b: Slot) -> ConnectedState {
        let mut s = s.clone();
        s.part.swap(a, b);
        canon(&mut s.part);
        s
    }

    fn accept(&self, s: &ConnectedState) -> bool {
        let live_blocks = s.part.iter().copied().max().map_or(0, |m| m as usize + 1);
        live_blocks + s.dead as usize <= 1
    }
}

// ---------------------------------------------------------------------------
// Bipartite
// ---------------------------------------------------------------------------

/// Bipartiteness (2-colourability) of the marked subgraph.
#[derive(Clone, Debug, Default)]
pub struct Bipartite;

/// State of [`Bipartite`]: partition with per-slot parity relative to the
/// block's first slot, plus a sticky odd-cycle flag.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BipartiteState {
    part: Vec<u8>,
    parity: Vec<bool>,
    odd: bool,
}

impl BipartiteState {
    fn canonize(&mut self) {
        canon(&mut self.part);
        // Normalize parity so each block's first slot has parity false.
        let mut first_parity = [None::<bool>; 256];
        let flips: Vec<bool> = self
            .part
            .iter()
            .zip(&self.parity)
            .map(|(&b, &p)| *first_parity[b as usize].get_or_insert(p))
            .collect();
        for (i, p) in self.parity.iter_mut().enumerate() {
            *p ^= flips[i];
        }
    }

    fn join(&mut self, a: Slot, b: Slot, want_diff: bool) {
        if self.odd {
            return;
        }
        if self.part[a] == self.part[b] {
            if (self.parity[a] != self.parity[b]) != want_diff {
                self.odd = true;
            }
            return;
        }
        // Merge b's block into a's, flipping parities so the constraint
        // parity(a) XOR parity(b) == want_diff holds.
        let flip = (self.parity[a] != self.parity[b]) != want_diff;
        let (from, to) = (self.part[b], self.part[a]);
        for i in 0..self.part.len() {
            if self.part[i] == from {
                self.part[i] = to;
                if flip {
                    self.parity[i] = !self.parity[i];
                }
            }
        }
        self.canonize();
    }
}

impl Property for Bipartite {
    type State = BipartiteState;

    fn name(&self) -> String {
        "bipartite".into()
    }

    fn empty(&self) -> BipartiteState {
        BipartiteState {
            part: Vec::new(),
            parity: Vec::new(),
            odd: false,
        }
    }

    fn add_vertex(&self, s: &BipartiteState) -> BipartiteState {
        let mut s = s.clone();
        let fresh = s.part.iter().copied().max().map_or(0, |m| m + 1);
        s.part.push(fresh);
        s.parity.push(false);
        s.canonize();
        s
    }

    fn add_edge(&self, s: &BipartiteState, a: Slot, b: Slot, marked: bool) -> BipartiteState {
        let mut s = s.clone();
        if marked {
            s.join(a, b, true);
        }
        s
    }

    fn glue(&self, s: &BipartiteState, a: Slot, b: Slot) -> BipartiteState {
        let mut s = s.clone();
        s.join(a, b, false); // same vertex: equal colours
        let (_, drop) = glue_order(a, b);
        s.part.remove(drop);
        s.parity.remove(drop);
        s.canonize();
        s
    }

    fn forget(&self, s: &BipartiteState, a: Slot) -> BipartiteState {
        let mut s = s.clone();
        s.part.remove(a);
        s.parity.remove(a);
        s.canonize();
        s
    }

    fn union(&self, s1: &BipartiteState, s2: &BipartiteState) -> BipartiteState {
        let offset = s1.part.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BipartiteState {
            part: s1.part.clone(),
            parity: s1.parity.clone(),
            odd: s1.odd || s2.odd,
        };
        s.part.extend(s2.part.iter().map(|b| b + offset));
        s.parity.extend(s2.parity.iter().copied());
        s.canonize();
        s
    }

    fn swap(&self, s: &BipartiteState, a: Slot, b: Slot) -> BipartiteState {
        let mut s = s.clone();
        s.part.swap(a, b);
        s.parity.swap(a, b);
        s.canonize();
        s
    }

    fn accept(&self, s: &BipartiteState) -> bool {
        !s.odd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::{check_against_oracle, oracles};
    use crate::Algebra;

    #[test]
    fn forest_matches_oracle() {
        let alg = Algebra::new(Forest);
        check_against_oracle(&alg, &oracles::forest, 11, 120, 8);
    }

    #[test]
    fn connected_matches_oracle() {
        let alg = Algebra::new(Connected);
        check_against_oracle(&alg, &oracles::connected, 12, 120, 8);
    }

    #[test]
    fn bipartite_matches_oracle() {
        let alg = Algebra::new(Bipartite);
        check_against_oracle(&alg, &oracles::bipartite, 13, 120, 8);
    }

    #[test]
    fn forest_detects_triangle() {
        let alg = Algebra::new(Forest);
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
    fn unmarked_edges_are_invisible() {
        let alg = Algebra::new(Connected);
        let mut s = alg.empty();
        s = alg.add_vertex(s);
        s = alg.add_vertex(s);
        s = alg.add_edge(s, 0, 1, false);
        assert!(!alg.accept(&s), "unmarked edge must not connect");
        s = alg.add_edge(s, 0, 1, true);
        assert!(alg.accept(&s));
    }

    #[test]
    fn bipartite_odd_cycle_via_glue() {
        // Path of 3 vertices, glue the two ends: C2... use 4 vertices for an
        // odd identification: path v0-v1-v2, glue v0,v1's... build P3 then
        // identify ends => C2 (even); build P4 and identify ends => C3 (odd).
        let alg = Algebra::new(Bipartite);
        let mut s = alg.empty();
        for _ in 0..4 {
            s = alg.add_vertex(s);
        }
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            s = alg.add_edge(s, a, b, true);
        }
        let odd = alg.glue(s, 0, 3); // C3
        assert!(!alg.accept(&odd));
    }
}
