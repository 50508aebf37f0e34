//! Interface summaries and the class computer — the executable `f_B`/`f_P`
//! of Proposition 6.1.
//!
//! A [`Summary`] pairs a homomorphism class with the k-lane interface of
//! Definition 5.3 it summarizes. The interface is the wire type
//! [`IfaceLbl`] itself: the recipes below build and read it directly, the
//! prover copies it into a label unchanged, and the verifier compares a
//! recomputed summary with a claim by `==`. Lookups by lane are `Option`s,
//! so an interface missing a lane is an `Err`, never a panic. Slot order
//! inside a class is **canonical**: the live slots are the interface's
//! distinct terminal identifiers in ascending order, so prover and
//! verifier — who run the same deterministic recipes below — always agree
//! on interned class ids.

use lanecert_algebra::{Algebra, Class};
use lanecert_lanes::{Lane, LaneSet};

use super::labels::{IfaceLbl, SlotIds, Terminals};
use crate::inline::InlineVec;

/// A homomorphism class together with the interface it summarizes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Summary {
    /// The class value (slot order = `iface.slot_ids()`). A value, not a
    /// table index: prover and verifier compare classes structurally and
    /// only map through the canonical [`lanecert_algebra::FrozenAlgebra`]
    /// table at the wire boundary.
    pub class: Class,
    /// The interface, in the form the labels carry it.
    pub iface: IfaceLbl,
}

/// The one-lane interface of a `V`- or `E`-node.
fn one_lane(lane: Lane, tin: u64, tout: u64) -> IfaceLbl {
    IfaceLbl {
        lanes: LaneSet::singleton(lane),
        tin: [(lane as u8, tin)].into(),
        tout: [(lane as u8, tout)].into(),
    }
}

/// One interface side of two lane-disjoint ones, ascending by lane.
fn merged(a: &Terminals, b: &Terminals) -> Terminals {
    let mut out: Terminals = a.iter().chain(b.iter()).copied().collect();
    out.sort_unstable_by_key(|&(lane, _)| lane);
    out
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

/// Builds the summary of a `V`-node: one vertex, one lane (`lane < 64`).
pub fn base_v(alg: &Algebra, lane: Lane, id: u64) -> Summary {
    Summary {
        class: alg.add_vertex(alg.empty()),
        iface: one_lane(lane, id, id),
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
    if lane >= 64 {
        return Err("E-node lane out of range".into());
    }
    let mut state = alg.add_vertex(alg.add_vertex(alg.empty()));
    state = alg.add_edge(state, 0, 1, marked);
    let mut slots = [tin, tout];
    state = sort_slots(alg, state, &mut slots);
    Ok(Summary {
        class: state,
        iface: one_lane(lane, tin, tout),
    })
}

/// Builds the summary of the `P`-node: a path over all lanes, with per-edge
/// marks.
pub fn base_p(alg: &Algebra, ids: &[u64], marks: &[bool]) -> Result<Summary, String> {
    if ids.is_empty() || marks.len() + 1 != ids.len() {
        return Err("malformed P-node".into());
    }
    if ids.len() > 64 {
        return Err("P-node wider than 64 lanes".into());
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
    let path: Terminals = ids
        .iter()
        .enumerate()
        .map(|(lane, &id)| (lane as u8, id))
        .collect();
    Ok(Summary {
        class: state,
        iface: IfaceLbl {
            lanes: LaneSet::full(ids.len()),
            tin: path.clone(),
            tout: path,
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
    let (Some(u), Some(v)) = (left.iface.tout_at(i), right.iface.tout_at(j)) else {
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
    Ok(Summary {
        class: state,
        iface: IfaceLbl {
            lanes: left.iface.lanes.union(right.iface.lanes),
            tin: merged(&left.iface.tin, &right.iface.tin),
            tout: merged(&left.iface.tout, &right.iface.tout),
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
        let (Some(x), Some(y)) = (child.iface.tin_at(lane), par.iface.tout_at(lane)) else {
            return Err(format!("Parent-merge: no junction terminal on lane {lane}"));
        };
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
    // Resulting interface: the child's out-terminals replace the
    // parent's on the child's lanes.
    let mut iface = par.iface.clone();
    for (lane, id) in iface.tout.iter_mut() {
        if child.iface.lanes.contains(*lane as Lane) {
            *id = child
                .iface
                .tout_at(*lane as Lane)
                .ok_or("Parent-merge: child out-terminal missing")?;
        }
    }
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
        assert_eq!(m.iface.tout_at(0), Some(30));
        assert_eq!(m.iface.tout_at(1), Some(2));
        assert_eq!(m.iface.tin_at(0), Some(1));
        // Gluing a cycle: child E-node from 1 to 2 on lane 0 plus an edge...
        // simpler: bridge the two ends then parent-merge to close a cycle is
        // covered by pipeline tests.
    }

    #[test]
    fn lanes_past_the_lane_set_are_errors() {
        // Reachable from the wire when a scheme's lane bound exceeds 64.
        let alg = Algebra::new(Connected);
        assert!(base_e(&alg, 64, 1, 2, true).is_err());
        let ids: Vec<u64> = (0..65).collect();
        assert!(base_p(&alg, &ids, &[true; 64]).is_err());
    }

    #[test]
    fn summaries_are_deterministic() {
        let alg = Algebra::new(Connected);
        let s1 = base_p(&alg, &[5, 9, 7], &[true, true]).unwrap();
        let s2 = base_p(&alg, &[5, 9, 7], &[true, true]).unwrap();
        assert_eq!(s1.class, s2.class);
        assert_eq!(s1, s2);
    }
}
