//! Sections 4 and 5 of the paper: lane partitions, completions,
//! low-congestion embeddings, lanewidth constructions, and hierarchical
//! decompositions of bounded depth (whose nodes carry the k-lane
//! interfaces of Definition 5.3).
//!
//! The pipeline implemented here turns a connected graph `G` with an interval
//! representation `I` into the structures the certification algorithm
//! (crate `lanecert`) consumes:
//!
//! 1. a [`LanePartition`] of the intervals ([`partition::greedy_partition`]
//!    for the width-many-lanes variant, [`recursive::recursive_partition`]
//!    for the Proposition 4.6 variant with congestion guarantees);
//! 2. the [`Completion`] `G'` of `(G, I, P)` (Definition 4.4) together with an
//!    [`Embedding`] of the new edges back into `G`;
//! 3. a lanewidth [`Construction`] (`V-insert`/`E-insert` sequence,
//!    Definition 5.1 / Proposition 5.2);
//! 4. a [`Hierarchy`] — the bounded-depth hierarchical decomposition into
//!    `V/E/P/B/T` nodes (Section 5.3, Proposition 5.6, Observation 5.5).

mod lane;
pub use lane::{Lane, LaneSet};

pub mod bounds;

pub mod partition;
pub use partition::{LanePartition, LanePartitionError};

pub mod completion;
pub use completion::{Completion, EdgeRole};

pub mod embedding;
pub use embedding::Embedding;

pub mod recursive;

pub mod lanewidth;
pub use lanewidth::{BuiltConstruction, Construction, ConstructionError, Op};

pub mod hierarchy;
pub use hierarchy::{build_hierarchy, Hierarchy, HierarchyNode, NodeId, NodeKind};

pub mod pipeline;
pub use pipeline::{LaneStrategy, Layout};
