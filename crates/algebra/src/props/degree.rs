//! Degree- and counting-based algebras: [`MaxDegreeAtMost`],
//! [`EvenDegrees`], [`EdgeCountMod`], [`VertexCountMod`].
//!
//! The counting properties are CMSO (counting MSO) extensions — Courcelle's
//! framework covers them, plain MSO₂ does not; they are flagged as
//! extensions in DESIGN.md.

use crate::property::glue_order;
use crate::{Property, Slot};

/// Maximum (multigraph) degree at most `d` in the marked subgraph.
#[derive(Clone, Debug)]
pub struct MaxDegreeAtMost {
    d: u8,
}

impl MaxDegreeAtMost {
    /// Creates the algebra for bound `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d > 250` (degree counters saturate at `d + 1`).
    pub fn new(d: usize) -> Self {
        assert!(d <= 250);
        Self { d: d as u8 }
    }
}

/// State of [`MaxDegreeAtMost`]: saturating per-slot degrees + violation
/// flag.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DegState {
    degs: Vec<u8>,
    bad: bool,
}

impl Property for MaxDegreeAtMost {
    type State = DegState;

    fn name(&self) -> String {
        format!("max-degree<={}", self.d)
    }

    fn empty(&self) -> DegState {
        DegState {
            degs: Vec::new(),
            bad: false,
        }
    }

    fn add_vertex(&self, s: &DegState) -> DegState {
        let mut s = s.clone();
        s.degs.push(0);
        s
    }

    fn add_edge(&self, s: &DegState, a: Slot, b: Slot, marked: bool) -> DegState {
        let mut s = s.clone();
        if marked {
            for x in [a, b] {
                s.degs[x] = s.degs[x].saturating_add(1).min(self.d + 1);
            }
            if s.degs[a] > self.d || s.degs[b] > self.d {
                s.bad = true;
            }
        }
        s
    }

    fn glue(&self, s: &DegState, a: Slot, b: Slot) -> DegState {
        let (keep, drop) = glue_order(a, b);
        let mut s = s.clone();
        s.degs[keep] = s.degs[keep].saturating_add(s.degs[drop]).min(self.d + 1);
        if s.degs[keep] > self.d {
            s.bad = true;
        }
        s.degs.remove(drop);
        s
    }

    fn forget(&self, s: &DegState, a: Slot) -> DegState {
        let mut s = s.clone();
        s.degs.remove(a);
        s
    }

    fn union(&self, s1: &DegState, s2: &DegState) -> DegState {
        let mut degs = s1.degs.clone();
        degs.extend_from_slice(&s2.degs);
        DegState {
            degs,
            bad: s1.bad || s2.bad,
        }
    }

    fn swap(&self, s: &DegState, a: Slot, b: Slot) -> DegState {
        let mut s = s.clone();
        s.degs.swap(a, b);
        s
    }

    fn accept(&self, s: &DegState) -> bool {
        !s.bad
    }
}

/// All (multigraph) degrees even in the marked subgraph — the degree half
/// of the Eulerian condition (CMSO extension).
#[derive(Clone, Debug, Default)]
pub struct EvenDegrees;

/// State of [`EvenDegrees`]: per-slot degree parity + violation flag set
/// when a vertex retires with odd degree.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ParityState {
    par: Vec<bool>,
    bad: bool,
}

impl Property for EvenDegrees {
    type State = ParityState;

    fn name(&self) -> String {
        "even-degrees".into()
    }

    fn empty(&self) -> ParityState {
        ParityState {
            par: Vec::new(),
            bad: false,
        }
    }

    fn add_vertex(&self, s: &ParityState) -> ParityState {
        let mut s = s.clone();
        s.par.push(false);
        s
    }

    fn add_edge(&self, s: &ParityState, a: Slot, b: Slot, marked: bool) -> ParityState {
        let mut s = s.clone();
        if marked {
            s.par[a] = !s.par[a];
            s.par[b] = !s.par[b];
        }
        s
    }

    fn glue(&self, s: &ParityState, a: Slot, b: Slot) -> ParityState {
        let (keep, drop) = glue_order(a, b);
        let mut s = s.clone();
        s.par[keep] ^= s.par[drop];
        s.par.remove(drop);
        s
    }

    fn forget(&self, s: &ParityState, a: Slot) -> ParityState {
        let mut s = s.clone();
        if s.par[a] {
            s.bad = true;
        }
        s.par.remove(a);
        s
    }

    fn union(&self, s1: &ParityState, s2: &ParityState) -> ParityState {
        let mut par = s1.par.clone();
        par.extend_from_slice(&s2.par);
        ParityState {
            par,
            bad: s1.bad || s2.bad,
        }
    }

    fn swap(&self, s: &ParityState, a: Slot, b: Slot) -> ParityState {
        let mut s = s.clone();
        s.par.swap(a, b);
        s
    }

    fn accept(&self, s: &ParityState) -> bool {
        !s.bad && s.par.iter().all(|&p| !p)
    }
}

/// `|E| ≡ r (mod m)` over marked edges (CMSO extension).
#[derive(Clone, Debug)]
pub struct EdgeCountMod {
    m: u32,
    r: u32,
}

impl EdgeCountMod {
    /// Creates the algebra for modulus `m` and residue `r`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `r >= m`.
    pub fn new(m: usize, r: usize) -> Self {
        assert!(m >= 1 && r < m);
        Self {
            m: m as u32,
            r: r as u32,
        }
    }
}

impl Property for EdgeCountMod {
    type State = u32;

    fn name(&self) -> String {
        format!("edges={} (mod {})", self.r, self.m)
    }

    fn empty(&self) -> u32 {
        0
    }

    fn add_vertex(&self, s: &u32) -> u32 {
        *s
    }

    fn add_edge(&self, s: &u32, _a: Slot, _b: Slot, marked: bool) -> u32 {
        if marked {
            (*s + 1) % self.m
        } else {
            *s
        }
    }

    fn glue(&self, s: &u32, _a: Slot, _b: Slot) -> u32 {
        *s
    }

    fn forget(&self, s: &u32, _a: Slot) -> u32 {
        *s
    }

    fn union(&self, s1: &u32, s2: &u32) -> u32 {
        (*s1 + *s2) % self.m
    }

    fn swap(&self, s: &u32, _a: Slot, _b: Slot) -> u32 {
        *s
    }

    fn accept(&self, s: &u32) -> bool {
        *s == self.r
    }
}

/// `|V| ≡ r (mod m)` (CMSO extension).
#[derive(Clone, Debug)]
pub struct VertexCountMod {
    m: u32,
    r: u32,
}

impl VertexCountMod {
    /// Creates the algebra for modulus `m` and residue `r`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `r >= m`.
    pub fn new(m: usize, r: usize) -> Self {
        assert!(m >= 1 && r < m);
        Self {
            m: m as u32,
            r: r as u32,
        }
    }
}

impl Property for VertexCountMod {
    type State = u32;

    fn name(&self) -> String {
        format!("vertices={} (mod {})", self.r, self.m)
    }

    fn empty(&self) -> u32 {
        0
    }

    fn add_vertex(&self, s: &u32) -> u32 {
        (*s + 1) % self.m
    }

    fn add_edge(&self, s: &u32, _a: Slot, _b: Slot, _marked: bool) -> u32 {
        *s
    }

    fn glue(&self, s: &u32, _a: Slot, _b: Slot) -> u32 {
        // Identification removes one vertex from the final count.
        (*s + self.m - 1) % self.m
    }

    fn forget(&self, s: &u32, _a: Slot) -> u32 {
        *s
    }

    fn union(&self, s1: &u32, s2: &u32) -> u32 {
        (*s1 + *s2) % self.m
    }

    fn swap(&self, s: &u32, _a: Slot, _b: Slot) -> u32 {
        *s
    }

    fn accept(&self, s: &u32) -> bool {
        *s == self.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::{check_against_oracle, oracles};
    use crate::Algebra;

    #[test]
    fn max_degree_matches_oracle() {
        for d in [0usize, 1, 2, 3] {
            let alg = Algebra::new(MaxDegreeAtMost::new(d));
            check_against_oracle(&alg, &move |g| oracles::max_degree_at_most(g, d), 61, 80, 8);
        }
    }

    #[test]
    fn even_degrees_matches_oracle() {
        let alg = Algebra::new(EvenDegrees);
        check_against_oracle(&alg, &oracles::even_degrees, 62, 120, 8);
    }

    #[test]
    fn edge_count_matches_oracle() {
        for (m, r) in [(2usize, 0usize), (2, 1), (3, 2)] {
            let alg = Algebra::new(EdgeCountMod::new(m, r));
            check_against_oracle(&alg, &move |g| oracles::edge_count_mod(g, m, r), 63, 80, 8);
        }
    }

    #[test]
    fn vertex_count_matches_oracle() {
        for (m, r) in [(2usize, 0usize), (3, 1)] {
            let alg = Algebra::new(VertexCountMod::new(m, r));
            check_against_oracle(
                &alg,
                &move |g| oracles::vertex_count_mod(g, m, r),
                64,
                80,
                8,
            );
        }
    }
}
