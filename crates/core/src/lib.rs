//! # tdn-core
//!
//! The paper's contribution: streaming algorithms that track influential
//! nodes over time-decaying dynamic interaction networks (TDNs).
//!
//! | Algorithm | Paper | Guarantee | Type |
//! |-----------|-------|-----------|------|
//! | [`SieveAdnTracker`] | Alg. 1 | `1/2 − ε` | addition-only streams |
//! | [`BasicReduction`]  | Alg. 2 | `1/2 − ε` | general TDNs, `O(L)` instances |
//! | [`HistApprox`]      | Alg. 3 | `1/3 − ε` (`1/2 − ε` with refeed) | general TDNs, `O(ε⁻¹ log k)` instances |
//! | [`GreedyTracker`]   | §V-C  | `1 − 1/e` | per-step recompute baseline |
//! | [`RandomTracker`]   | §V-C  | — | quality floor |
//!
//! All trackers implement [`InfluenceTracker`]: one [`step`] per time tick
//! with the arriving edge batch, answering Problem 1 for the current graph.
//!
//! ```
//! use tdn_core::{HistApprox, InfluenceTracker, TrackerConfig};
//! use tdn_streams::TimedEdge;
//!
//! let mut tracker = HistApprox::new(&TrackerConfig::new(2, 0.1, 100));
//! // u1 influenced u2 (edge lives 3 steps), u1 influenced u3 (5 steps).
//! let sol = tracker.step(0, &[TimedEdge::new(1u32, 2u32, 3), TimedEdge::new(1u32, 3u32, 5)]);
//! assert_eq!(sol.value, 3); // u1 reaches {u1, u2, u3}
//! let sol = tracker.step(3, &[]); // the first edge expired
//! assert_eq!(sol.value, 2);
//! ```
//!
//! [`step`]: InfluenceTracker::step
//!
//! ## Checkpointing
//!
//! [`SieveAdnTracker`], [`BasicReduction`], [`HistApprox`], and
//! [`RandomTracker`] expose `write_snapshot`/`read_snapshot` methods
//! capturing their full live state (graphs, threshold ladders, sieve
//! slots, RNG words, oracle tallies). The `tdn-persist` crate wraps these
//! in a versioned file format with a bit-identical warm-restart
//! guarantee: restore + remaining stream ≡ never stopped, at any
//! `TDN_THREADS` setting.

#![warn(missing_docs)]

pub mod basic_reduction;
pub mod config;
pub mod engine;
pub mod greedy;
pub mod hist_approx;
pub mod influence;
mod instances;
pub mod metrics;
pub mod random;
pub mod sieve_adn;
pub mod tracker;

pub use basic_reduction::BasicReduction;
pub use config::TrackerConfig;
pub use engine::TrackerEngine;
pub use greedy::GreedyTracker;
pub use hist_approx::HistApprox;
pub use influence::InfluenceObjective;
pub use metrics::{jaccard, ChurnTracker};
pub use random::RandomTracker;
pub use sieve_adn::{SieveAdn, SieveAdnTracker, SpreadMode, TraversalKind};
pub use tracker::{InfluenceTracker, Solution};

// Re-exported so spread-engine consumers (benches, tests) need not depend
// on the graph crate directly.
pub use tdn_graph::{SpreadStats, SpreadStatsSnapshot, SweepDirection};
