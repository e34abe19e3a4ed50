//! Experiment runners, one per table/figure of the paper plus ablations.
//! EXPERIMENTS.md maps each target to its figure and documents every
//! `BENCH_*.json` schema.

pub mod ablations;
pub mod chaos;
pub mod engine;
pub mod fig11_12;
pub mod fig13_14;
pub mod fig7;
pub mod fig8_10;
pub mod restore;
pub mod scale;
pub mod sketch;
pub mod table1;
pub mod throughput;
