//! Checkpoint/restore experiment: warm-restart cost versus full replay.
//!
//! The persistence layer's promise (see `tdn-persist`) is that a tracker
//! restored from a checkpoint at step `t` and fed the remaining stream is
//! **bit-identical** — solutions, spreads, oracle-call tallies — to one
//! that never stopped. This experiment runs HISTAPPROX over a prepared
//! stream with periodic checkpointing, then:
//!
//! 1. restores from the last checkpoint and replays the tail, asserting
//!    the bit-identical guarantee on the live workload;
//! 2. measures the warm-restart cost (load + decode) against the cost of
//!    rebuilding the same state by replaying the stream prefix from
//!    scratch — the whole point of checkpointing: restart cost becomes
//!    proportional to *state*, not *history*.
//!
//! Results land in `BENCH_restore.json` (schema documented in
//! `EXPERIMENTS.md`) so successive commits can track restore latency and
//! checkpoint sizes.

use super::throughput::workload;
use crate::checks::ensure;
use crate::driver::{run_tracker_checkpointed, run_tracker_from};
use crate::report::{f, in_scratch_dir, obj, print_table, write_bench, Json};
use crate::scale::Scale;
use std::path::Path;
use std::time::Instant;
use tdn_core::{HistApprox, InfluenceTracker};
use tdn_persist::load_checkpoint;

/// Runs the checkpoint/restore experiment and writes `BENCH_restore.json`.
///
/// A checkpoint is written after every eighth of the stream, so the
/// quick scale still exercises several snapshots. They land in the
/// scratch directory `<out>/checkpoints/`, which is removed once the run
/// succeeds.
pub fn run(out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    in_scratch_dir(&out_dir.join("checkpoints"), |ckpt_dir| {
        run_in(ckpt_dir, out_dir, scale)
    })
}

fn run_in(ckpt_dir: &Path, out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    let (stream, cfg, workload) = workload(scale);
    let every = (stream.len() / 8).max(1);

    // Uninterrupted run, checkpointing as it goes.
    let mut live = HistApprox::new(&cfg);
    let (full_log, checkpoints) =
        run_tracker_checkpointed(&mut live, &stream, &cfg, every, ckpt_dir)
            .map_err(|e| std::io::Error::other(format!("checkpointing failed: {e}")))?;

    // Warm restart from the last checkpoint; replay the tail.
    let last = checkpoints
        .last()
        .expect("an eighth-of-the-stream interval fires before the last step");
    let load_start = Instant::now();
    let (step, mut warm): (u64, HistApprox) = load_checkpoint(&last.path, &cfg)
        .map_err(|e| std::io::Error::other(format!("restore failed: {e}")))?;
    let load_secs = load_start.elapsed().as_secs_f64();
    ensure(step == last.step, "manifest stream position drifted")?;
    let resume_at = step as usize;
    let warm_log = run_tracker_from(&mut warm, &stream, resume_at);

    // The acceptance test: the warm tail must be bit-identical to the
    // uninterrupted run's tail — per-step values AND cumulative oracle
    // tallies (the restored counter resumes at the saved count).
    let deterministic = warm_log.values[..] == full_log.values[resume_at..]
        && warm_log.calls[..] == full_log.calls[resume_at..];
    ensure(
        deterministic,
        "restored HISTAPPROX diverged from the uninterrupted run",
    )?;

    // The alternative a deployment without checkpoints faces: rebuild the
    // same state by replaying the whole prefix from scratch.
    let replay_start = Instant::now();
    let mut cold = HistApprox::new(&cfg);
    for (t, batch) in &stream.steps[..resume_at] {
        cold.step(*t, batch);
    }
    let replay_secs = replay_start.elapsed().as_secs_f64();
    let speedup = if load_secs > 0.0 {
        replay_secs / load_secs
    } else {
        f64::INFINITY
    };

    let rows: Vec<Vec<String>> = checkpoints
        .iter()
        .map(|c| {
            vec![
                c.step.to_string(),
                format!("{:.1}", c.bytes as f64 / 1024.0),
                f(c.save_secs * 1e3),
            ]
        })
        .collect();
    print_table(
        "Periodic checkpoints (HISTAPPROX)",
        &["step", "KiB", "save ms"],
        &rows,
    );
    println!(
        "warm restart at step {}: load {:.1} ms vs replay {:.2} s ({:.0}x), tail bit-identical",
        last.step,
        load_secs * 1e3,
        replay_secs,
        speedup,
    );
    let saves: Vec<Json> = checkpoints
        .iter()
        .map(|c| {
            obj! {"step": c.step, "bytes": c.bytes, "save_ms": c.save_secs * 1e3}
        })
        .collect();
    let fields = obj! {
        "tracker": "HistApprox",
        "workload": workload,
        "checkpoint_every": every,
        "checkpoints": saves,
        "restore": obj! {"step": last.step, "checkpoint_bytes": last.bytes,
            "load_ms": load_secs * 1e3, "replay_secs": replay_secs,
            "speedup_vs_replay": speedup, "tail_steps": warm_log.values.len()},
        "deterministic": deterministic,
    };
    write_bench(out_dir, "restore", scale, fields)
}
