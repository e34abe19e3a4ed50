//! # tdn-graph
//!
//! Graph substrate for *Tracking Influential Nodes in Time-Decaying Dynamic
//! Interaction Networks* (Zhao et al., ICDE 2019).
//!
//! This crate provides the two graph flavors the paper's algorithms operate
//! on, plus the reachability machinery that implements the influence-spread
//! oracle of Definition 3:
//!
//! * [`traits::Graph`] — the one access trait (out- and in-adjacency, node
//!   bound, liveness) that both graphs implement and every traversal is
//!   generic over;
//! * [`adn::AdnGraph`] — the append-only (addition-only) network each
//!   SIEVEADN instance accumulates (Example 3);
//! * [`tdn::TdnGraph`] — the live time-decaying network `G_t` with
//!   lifetime-bucketed expiry (§II-B), used by the recompute baselines and
//!   by HISTAPPROX's instance-creation range queries;
//! * [`arena::AdjPool`] — paged CSR-style adjacency arena backing both
//!   graphs: every neighbor list is a power-of-two block inside one
//!   contiguous buffer, with per-size-class block recycling;
//! * [`bitset::NodeBitSet`] — dense `u64`-word node set backing
//!   [`reach::CoverSet`];
//! * [`reach`] — reachability on two kernels over one edge-orientation
//!   type: a scalar BFS with reusable scratch (pooled per worker for
//!   parallel callers) for single answers — spreads, pruned marginal gains
//!   against incremental cover sets, ancestor lists — and a 64/128/256-lane
//!   bit-parallel label sweep for lane batches
//!   ([`reach::reverse_reach_batch`], [`reach::reach_count_batch`]);
//! * [`sketch`] — reverse-reachable sketch pool: a bounded-error spread
//!   estimator with an explicit (ε, δ) budget, maintained deterministically
//!   under both edge inserts and time-decay expiry;
//! * [`publish`] — epoch-swapped `Arc` snapshot publication, the
//!   never-blocks-ingest read path of the serving layer;
//! * [`hash`] — in-tree Fx hashing so hot maps avoid SipHash;
//! * [`indexed_set::IndexedSet`] — O(1) sampleable live-node set;
//! * [`analysis`] — offline SCC condensation + exact all-node spreads
//!   (an independent oracle for tests and workload diagnostics).
//!
//! The checkpointed types each have exactly one serializer over the
//! `codec` byte format — the building blocks of the `tdn-persist`
//! checkpoint layer. The graphs ([`adn::AdnGraph`], [`tdn::TdnGraph`])
//! emit named sections (`write_sections`/`read_sections`), one per
//! adjacency chunk or expiry range, so delta checkpoints ref what did not
//! change; the parts inside them ([`indexed_set::IndexedSet`],
//! [`reach::CoverSet`], [`reach::SpreadMemo`], [`epoch::EpochSet`],
//! [`sketch::SketchPool`]) write raw word runs via
//! `write_snapshot`/`read_snapshot`. Order-sensitive structures (adjacency
//! lists, expiry buckets, the live-node set) serialize **verbatim** so a
//! restored tracker replays bit-identically; see
//! `DESIGN.md § Persistence & recovery`.

#![warn(missing_docs)]

pub mod adn;
pub mod analysis;
pub mod arena;
pub mod bitset;
pub mod epoch;
pub mod hash;
pub mod indexed_set;
pub mod node;
pub mod publish;
pub mod reach;
pub mod sketch;
pub mod tdn;
pub mod traits;

pub use adn::{AdnGraph, EdgeInsert};
pub use analysis::{condense, Condensation};
pub use arena::AdjPool;
pub use bitset::NodeBitSet;
pub use epoch::EpochSet;
pub use hash::{FxHashMap, FxHashSet};
pub use indexed_set::IndexedSet;
pub use node::{pack_pair, unpack_pair, Lifetime, NodeId, NodeInterner, Time};
pub use publish::Published;
pub use reach::{
    bottom_up_sweeps, lane_chunks, lane_width_for, marginal_gain, reach_collect, reach_count,
    reach_count_batch, reach_count_batch_wide, reverse_reach_batch, reverse_reach_batch_wide,
    reverse_reach_collect, reverse_reach_excluding, reverse_reach_union_ordered,
    reverse_reachable_within, CoverSet, ReachScratch, ScratchPool, SpreadMemo, SpreadStats,
    SpreadStatsSnapshot, SweepDirection, BATCH_LANES, MAX_BATCH_LANES,
};
pub use sketch::{SketchParams, SketchPool};
pub use tdn::{LiveEdge, TdnGraph};
pub use traits::Graph;
