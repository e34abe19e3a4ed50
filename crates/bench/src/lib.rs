//! # tdn-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§V), plus the ablations listed in DESIGN.md:
//!
//! | target | figure/table |
//! |--------|--------------|
//! | `experiments table1` | Table I |
//! | `experiments fig7`   | Fig. 7 (BasicReduction vs HistApprox) |
//! | `experiments fig8`   | Figs. 8–10 (quality & calls vs Greedy/Random) |
//! | `experiments fig11`  | Fig. 11 (sweep k) |
//! | `experiments fig12`  | Fig. 12 (sweep L) |
//! | `experiments fig13`  | Figs. 13–14 (RIS baselines, throughput) |
//! | `experiments ablations` | refeed / window / lazy / prune |
//! | `experiments throughput` | edges/sec vs `TDN_THREADS` (`BENCH_throughput.json`) |
//! | `experiments restore` | checkpoint/warm-restart cost vs full replay (`BENCH_restore.json`) |
//! | `experiments engine` | incremental vs full spread maintenance, lane-batching identity grid (`BENCH_engine.json`) |
//! | `experiments scale` | delta-checkpoint chains and the memory budget (`BENCH_scale.json`) |
//! | `experiments sketch` | RR-sketch spread estimator vs the exact oracle (`BENCH_sketch.json`) |
//! | `experiments chaos` | seeded fault storms against the serving layer (`BENCH_chaos.json`) |
//!
//! Run `cargo run --release -p tdn-bench --bin experiments -- all --full`
//! for paper-scale sweeps; the default `--quick` scale finishes in minutes.
//!
//! Every `BENCH_*.json` goes through one writer ([`report::write_bench`])
//! and every timed comparison through one repetition runner
//! ([`report::repeat`]). In-experiment invariants (determinism across
//! thread counts, spread-mode bit-identity, warm-restart equality) fail
//! the binary with a non-zero exit status — see [`checks`].

#![warn(missing_docs)]

pub mod checks;
pub mod driver;
pub mod experiments;
pub mod report;
pub mod scale;

pub use driver::{
    run_tracker, run_tracker_checkpointed, run_tracker_from, CheckpointRecord, PreparedStream,
    RunLog,
};
pub use scale::Scale;
