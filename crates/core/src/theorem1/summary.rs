//! Interface summaries and the class computer — the executable `f_B`/`f_P`
//! of Proposition 6.1.
//!
//! A [`Summary`] pairs a homomorphism class with the k-lane interface it
//! summarizes. Slot order inside a class is **canonical**: the live slots
//! are the interface's distinct terminal identifiers in ascending order, so
//! prover and verifier — who run the same deterministic recipes below —
//! always agree on interned class ids.

use lanecert_algebra::{Algebra, Class};
use lanecert_lanes::{Lane, LaneSet};

use super::labels::IfaceLbl;
use crate::inline::InlineVec;

/// Slot-id scratch: interfaces expose at most `2 · max_lanes` distinct
/// terminals, so eight inline slots cover every configuration the test
/// and benchmark corpora use without touching the heap.
pub type SlotIds = InlineVec<u64, 8>;

/// A lane-indexed terminal map: a `Vec<(Lane, u64)>` kept sorted by lane.
///
/// Interfaces have at most `max_lanes` (≤ 64, usually ≤ 4) entries and are
/// built, cloned, compared, and hashed on every frame of every vertex's
/// certificate — the per-vertex verification hot path. A sorted flat vec
/// keeps all of that one contiguous block — inline in the struct for the
/// common ≤ 4 lanes ([`InlineVec`]), so building, cloning, and dropping a
/// map is allocation-free — where a `BTreeMap` paid a node allocation per
/// operation.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LaneMap(InlineVec<(Lane, u64), 4>);

impl LaneMap {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Looks up a lane's terminal id.
    pub fn get(&self, lane: &Lane) -> Option<&u64> {
        self.0
            .binary_search_by_key(lane, |&(l, _)| l)
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// Inserts or replaces a lane's terminal id; returns the previous id.
    pub fn insert(&mut self, lane: Lane, id: u64) -> Option<u64> {
        match self.0.binary_search_by_key(&lane, |&(l, _)| l) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, id)),
            Err(i) => {
                self.0.insert(i, (lane, id));
                None
            }
        }
    }

    /// Iterates `(&lane, &id)` in ascending lane order.
    pub fn iter(&self) -> impl Iterator<Item = (&Lane, &u64)> {
        self.0.iter().map(|(l, v)| (l, v))
    }

    /// Iterates the terminal ids in ascending lane order.
    pub fn values(&self) -> impl Iterator<Item = &u64> {
        self.0.iter().map(|(_, v)| v)
    }
}

impl std::ops::Index<&Lane> for LaneMap {
    type Output = u64;
    fn index(&self, lane: &Lane) -> &u64 {
        // Every caller indexes only after a lane-membership check
        // (`lanes.contains`/`is_subset_of` plus `from_lbl`'s invariant
        // that a map covers exactly its lane set), so this is total on
        // verified inputs; `Index` cannot be fallible by signature.
        // lint: allow(no-panic) reason="guarded by callers' lane-membership checks; Index cannot return Result"
        self.get(lane).expect("lane not present")
    }
}

impl<const N: usize> From<[(Lane, u64); N]> for LaneMap {
    fn from(entries: [(Lane, u64); N]) -> Self {
        entries.into_iter().collect()
    }
}

impl FromIterator<(Lane, u64)> for LaneMap {
    fn from_iter<I: IntoIterator<Item = (Lane, u64)>>(iter: I) -> Self {
        let mut m = LaneMap::new();
        for (l, v) in iter {
            m.insert(l, v);
        }
        m
    }
}

impl Extend<(Lane, u64)> for LaneMap {
    fn extend<I: IntoIterator<Item = (Lane, u64)>>(&mut self, iter: I) {
        for (l, v) in iter {
            self.insert(l, v);
        }
    }
}

/// A k-lane interface with vertex identifiers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Iface {
    /// The lane set.
    pub lanes: LaneSet,
    /// In-terminal id per lane.
    pub tin: LaneMap,
    /// Out-terminal id per lane.
    pub tout: LaneMap,
}

impl Iface {
    /// The canonical slot list: distinct terminal ids, ascending.
    pub fn slot_ids(&self) -> SlotIds {
        let mut ids: SlotIds = self
            .tin
            .values()
            .chain(self.tout.values())
            .copied()
            .collect();
        ids.sort_unstable();
        // Slice-level dedup: drop trailing duplicates by `remove`.
        let mut w = 0;
        for r in 0..ids.len() {
            if r == 0 || ids[r] != ids[w - 1] {
                ids[w] = ids[r];
                w += 1;
            }
        }
        while ids.len() > w {
            ids.remove(ids.len() - 1);
        }
        ids
    }

    /// Wire form.
    pub fn to_lbl(&self) -> IfaceLbl {
        IfaceLbl {
            lanes: self.lanes.0,
            tin: self.tin.iter().map(|(&l, &v)| (l as u8, v)).collect(),
            tout: self.tout.iter().map(|(&l, &v)| (l as u8, v)).collect(),
        }
    }

    /// Parses and sanity-checks a wire interface.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn from_lbl(l: &IfaceLbl) -> Result<Iface, String> {
        let lanes = LaneSet(l.lanes);
        if lanes.is_empty() {
            return Err("empty lane set".into());
        }
        let parse = |pairs: &[(u8, u64)]| -> Result<LaneMap, String> {
            let mut map = LaneMap::new();
            for &(lane, id) in pairs {
                if !lanes.contains(lane as Lane) {
                    return Err(format!("terminal on unused lane {lane}"));
                }
                if map.insert(lane as Lane, id).is_some() {
                    return Err(format!("duplicate lane {lane}"));
                }
            }
            if map.len() != lanes.len() {
                return Err("missing terminal for some lane".into());
            }
            Ok(map)
        };
        let tin = parse(&l.tin)?;
        let tout = parse(&l.tout)?;
        // Injectivity per Definition 5.3 (maps hold ≤ 64 entries, so the
        // quadratic scan beats sorting a scratch vec).
        for map in [&tin, &tout] {
            for x in 0..map.0.len() {
                for y in (x + 1)..map.0.len() {
                    if map.0[x].1 == map.0[y].1 {
                        return Err("terminal assignment not injective".into());
                    }
                }
            }
        }
        Ok(Iface { lanes, tin, tout })
    }
}

/// A homomorphism class together with its interface.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Summary {
    /// The class value (slot order = `iface.slot_ids()`). A value, not a
    /// table index: prover and verifier compare classes structurally and
    /// only map through the canonical [`lanecert_algebra::FrozenAlgebra`]
    /// table at the wire boundary.
    pub class: Class,
    /// The interface.
    pub iface: Iface,
}

/// Sorts the slots of `state` (currently ordered as `slots`) into ascending
/// id order via selection sort of `swap`s.
fn sort_slots(alg: &Algebra, mut state: Class, slots: &mut [u64]) -> Class {
    for i in 0..slots.len() {
        let mut min = i;
        for j in (i + 1)..slots.len() {
            if slots[j] < slots[min] {
                min = j;
            }
        }
        if min != i {
            slots.swap(i, min);
            state = alg.swap(state, i, min);
        }
    }
    state
}

/// Builds the summary of a `V`-node: one vertex, one lane.
pub fn base_v(alg: &Algebra, lane: Lane, id: u64) -> Summary {
    let state = alg.add_vertex(alg.empty());
    Summary {
        class: state,
        iface: Iface {
            lanes: LaneSet::singleton(lane),
            tin: [(lane, id)].into(),
            tout: [(lane, id)].into(),
        },
    }
}

/// Builds the summary of an `E`-node: one edge, one lane.
pub fn base_e(
    alg: &Algebra,
    lane: Lane,
    tin: u64,
    tout: u64,
    marked: bool,
) -> Result<Summary, String> {
    if tin == tout {
        return Err("E-node terminals must differ".into());
    }
    let mut state = alg.add_vertex(alg.add_vertex(alg.empty()));
    state = alg.add_edge(state, 0, 1, marked);
    let mut slots = [tin, tout];
    state = sort_slots(alg, state, &mut slots);
    Ok(Summary {
        class: state,
        iface: Iface {
            lanes: LaneSet::singleton(lane),
            tin: [(lane, tin)].into(),
            tout: [(lane, tout)].into(),
        },
    })
}

/// Builds the summary of the `P`-node: a path over all lanes, with per-edge
/// marks.
pub fn base_p(alg: &Algebra, ids: &[u64], marks: &[bool]) -> Result<Summary, String> {
    if ids.is_empty() || marks.len() + 1 != ids.len() {
        return Err("malformed P-node".into());
    }
    {
        let mut sorted: SlotIds = ids.into();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err("P-node ids not distinct".into());
        }
    }
    let mut state = alg.empty();
    for _ in ids {
        state = alg.add_vertex(state);
    }
    for (pos, &m) in marks.iter().enumerate() {
        state = alg.add_edge(state, pos, pos + 1, m);
    }
    let mut slots: SlotIds = ids.into();
    state = sort_slots(alg, state, &mut slots);
    Ok(Summary {
        class: state,
        iface: Iface {
            lanes: LaneSet::full(ids.len()),
            tin: ids.iter().copied().enumerate().collect(),
            tout: ids.iter().copied().enumerate().collect(),
        },
    })
}

/// `f_B`: Bridge-merge of two summaries (Proposition 6.1).
pub fn bridge(
    alg: &Algebra,
    left: &Summary,
    right: &Summary,
    i: Lane,
    j: Lane,
    marked: bool,
) -> Result<Summary, String> {
    if !left.iface.lanes.is_disjoint(right.iface.lanes) {
        return Err("Bridge-merge: lanes not disjoint".into());
    }
    let (Some(&u), Some(&v)) = (left.iface.tout.get(&i), right.iface.tout.get(&j)) else {
        return Err("Bridge-merge: bridge lane missing".into());
    };
    let ls = left.iface.slot_ids();
    let rs = right.iface.slot_ids();
    // Vertex-disjointness of the sides.
    if ls.iter().any(|x| rs.binary_search(x).is_ok()) {
        return Err("Bridge-merge: sides share a vertex".into());
    }
    let mut state = alg.union(left.class.clone(), right.class.clone());
    let mut slots: SlotIds = ls.iter().chain(rs.iter()).copied().collect();
    let pa = slots
        .iter()
        .position(|&x| x == u)
        .ok_or("Bridge-merge: left bridge slot missing")?;
    let pb = slots
        .iter()
        .position(|&x| x == v)
        .ok_or("Bridge-merge: right bridge slot missing")?;
    state = alg.add_edge(state, pa, pb, marked);
    state = sort_slots(alg, state, &mut slots);
    let mut tin = left.iface.tin.clone();
    tin.extend(right.iface.tin.iter().map(|(&l, &x)| (l, x)));
    let mut tout = left.iface.tout.clone();
    tout.extend(right.iface.tout.iter().map(|(&l, &x)| (l, x)));
    Ok(Summary {
        class: state,
        iface: Iface {
            lanes: left.iface.lanes.union(right.iface.lanes),
            tin,
            tout,
        },
    })
}

/// `f_P`: Parent-merge of a child summary onto a parent summary
/// (Proposition 6.1): glue `τin_ℓ(child)` onto `τout_ℓ(parent)` for every
/// child lane, then retire vertices that are no longer terminals.
pub fn parent(alg: &Algebra, child: &Summary, par: &Summary) -> Result<Summary, String> {
    if !child.iface.lanes.is_subset_of(par.iface.lanes) {
        return Err("Parent-merge: child lanes not a subset".into());
    }
    let cs = child.iface.slot_ids();
    let ps = par.iface.slot_ids();
    let mut state = alg.union(child.class.clone(), par.class.clone());
    // (id, from_child) slot list.
    let mut slots: InlineVec<(u64, bool), 8> = cs
        .iter()
        .map(|&x| (x, true))
        .chain(ps.iter().map(|&x| (x, false)))
        .collect();
    for lane in child.iface.lanes.iter() {
        let x = child.iface.tin[&lane];
        let y = par.iface.tout[&lane];
        if x != y {
            return Err(format!("Parent-merge: junction mismatch on lane {lane}"));
        }
        let pa = slots
            .iter()
            .position(|&(id, c)| id == x && c)
            .ok_or("Parent-merge: child junction slot missing")?;
        let pb = slots
            .iter()
            .position(|&(id, c)| id == x && !c)
            .ok_or("Parent-merge: parent junction slot missing")?;
        let (keep, drop) = if pa < pb { (pa, pb) } else { (pb, pa) };
        state = alg.glue(state, keep, drop);
        slots.remove(drop);
    }
    // Resulting interface.
    let tin = par.iface.tin.clone();
    let mut tout = par.iface.tout.clone();
    for lane in child.iface.lanes.iter() {
        tout.insert(lane, child.iface.tout[&lane]);
    }
    let iface = Iface {
        lanes: par.iface.lanes,
        tin,
        tout,
    };
    let keep_ids = iface.slot_ids();
    // Retire slots that are no longer terminals (descending index).
    for idx in (0..slots.len()).rev() {
        if keep_ids.binary_search(&slots[idx].0).is_err() {
            state = alg.forget(state, idx);
            slots.remove(idx);
        }
    }
    // Duplicate ids should all be resolved by now.
    let mut plain: SlotIds = slots.iter().map(|&(id, _)| id).collect();
    {
        let mut sorted = plain.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err("Parent-merge: unresolved duplicate slots".into());
        }
    }
    state = sort_slots(alg, state, &mut plain);
    Ok(Summary {
        class: state,
        iface,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_algebra::props::{Connected, Forest};

    #[test]
    fn base_and_bridge_compose() {
        let alg = Algebra::new(Connected);
        // Two E-nodes on lanes 0 and 1, bridged: a path of 4 vertices.
        let l = base_e(&alg, 0, 10, 11, true).unwrap();
        let r = base_e(&alg, 1, 20, 21, true).unwrap();
        let b = bridge(&alg, &l, &r, 0, 1, true).unwrap();
        assert!(alg.accept(&b.class));
        assert_eq!(b.iface.slot_ids().as_slice(), &[10, 11, 20, 21]);
        // Unmarked bridge leaves the marked subgraph disconnected.
        let b2 = bridge(&alg, &l, &r, 0, 1, false).unwrap();
        assert!(!alg.accept(&b2.class));
    }

    #[test]
    fn parent_merge_glues_and_retires() {
        let alg = Algebra::new(Forest);
        // Parent: P-node path 1-2 (lanes 0,1); child: E-node on lane 0 with
        // tin 2 (the parent's tout in lane 0 is 1... use tin 1).
        let p = base_p(&alg, &[1, 2], &[true]).unwrap();
        let c = base_e(&alg, 0, 1, 30, true).unwrap();
        let m = parent(&alg, &c, &p).unwrap();
        assert!(alg.accept(&m.class)); // a path is a forest
        assert_eq!(m.iface.tout[&0], 30);
        assert_eq!(m.iface.tout[&1], 2);
        assert_eq!(m.iface.tin[&0], 1);
        // Gluing a cycle: child E-node from 1 to 2 on lane 0 plus an edge...
        // simpler: bridge the two ends then parent-merge to close a cycle is
        // covered by pipeline tests.
    }

    #[test]
    fn summaries_are_deterministic() {
        let alg = Algebra::new(Connected);
        let s1 = base_p(&alg, &[5, 9, 7], &[true, true]).unwrap();
        let s2 = base_p(&alg, &[5, 9, 7], &[true, true]).unwrap();
        assert_eq!(s1.class, s2.class);
        assert_eq!(s1, s2);
    }

    #[test]
    fn iface_roundtrip_and_validation() {
        let iface = Iface {
            lanes: [0usize, 2].into_iter().collect(),
            tin: [(0, 4), (2, 6)].into(),
            tout: [(0, 5), (2, 6)].into(),
        };
        let lbl = iface.to_lbl();
        assert_eq!(Iface::from_lbl(&lbl).unwrap(), iface);
        // Broken: terminal on unused lane.
        let mut bad = lbl.clone();
        bad.tin[0].0 = 1;
        assert!(Iface::from_lbl(&bad).is_err());
        // Broken: non-injective touts.
        let mut bad = lbl;
        bad.tout[0].1 = 6;
        assert!(Iface::from_lbl(&bad).is_err());
    }
}
