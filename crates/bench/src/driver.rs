//! Experiment driver: prepares lifetime-tagged streams once per workload so
//! every tracker replays the *same* edges and lifetimes, then runs trackers
//! recording per-step value, cumulative oracle calls, and wall time.

use std::path::{Path, PathBuf};
use std::time::Instant;
use tdn_core::{InfluenceTracker, TrackerConfig};
use tdn_graph::{Lifetime, Time};
use tdn_persist::{save_checkpoint, Persist, PersistError};
use tdn_streams::{
    Dataset, GeometricLifetime, Interaction, LifetimeAssigner, StepBatches, TimedEdge,
};

/// A fully materialized workload: per-step batches with assigned lifetimes.
pub struct PreparedStream {
    /// `(t, batch)` per time step, consecutive `t` starting at 0.
    pub steps: Vec<(Time, Vec<TimedEdge>)>,
    /// Total edges across all batches.
    pub edges: u64,
}

impl PreparedStream {
    /// Tags `steps` time steps of `dataset` (seeded) with truncated
    /// geometric lifetimes `Geo(p)` capped at `cap` — the experimental
    /// setting of §V-B.
    pub fn geometric(dataset: Dataset, seed: u64, p: f64, cap: Lifetime, steps: u64) -> Self {
        let assigner = GeometricLifetime::new(p, cap, seed ^ 0xA55A_F00D);
        Self::with_assigner(dataset.stream(seed), assigner, steps)
    }

    /// Tags a raw interaction stream with an arbitrary lifetime policy.
    pub fn with_assigner(
        stream: impl Iterator<Item = Interaction>,
        mut assigner: impl LifetimeAssigner,
        steps: u64,
    ) -> Self {
        let mut out = Vec::with_capacity(steps as usize);
        let mut edges = 0u64;
        for (t, batch) in StepBatches::new(stream).take(steps as usize) {
            let tagged: Vec<TimedEdge> = batch
                .iter()
                .map(|it| TimedEdge {
                    src: it.src,
                    dst: it.dst,
                    lifetime: assigner.assign(it),
                })
                .collect();
            edges += tagged.len() as u64;
            out.push((t, tagged));
        }
        PreparedStream { steps: out, edges }
    }

    /// Coalesces every `width` consecutive ticks into one batch stamped at
    /// the window's first tick (lifetimes are left untouched, so edges in a
    /// window share the window's arrival time). Synthetic streams emit only
    /// a few interactions per tick; batched arrival is how a high-traffic
    /// deployment would feed the trackers and is what gives the parallel
    /// phases enough independent work per step to amortize fan-out.
    pub fn coalesce(self, width: usize) -> Self {
        assert!(width >= 1, "coalesce width must be positive");
        let edges = self.edges;
        let steps = self
            .steps
            .chunks(width)
            .map(|window| {
                let t = window[0].0;
                let batch: Vec<TimedEdge> =
                    window.iter().flat_map(|(_, b)| b.iter().copied()).collect();
                (t, batch)
            })
            .collect();
        PreparedStream { steps, edges }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Per-run measurements.
pub struct RunLog {
    /// Tracker name.
    pub name: String,
    /// Solution value after each step.
    pub values: Vec<u64>,
    /// Cumulative oracle calls after each step.
    pub calls: Vec<u64>,
    /// Wall-clock seconds of each individual step (latency distribution).
    pub step_secs: Vec<f64>,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Edges processed.
    pub edges: u64,
}

impl RunLog {
    /// Mean solution value across steps.
    pub fn mean_value(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<u64>() as f64 / self.values.len() as f64
    }

    /// Total oracle calls.
    pub fn total_calls(&self) -> u64 {
        self.calls.last().copied().unwrap_or(0)
    }

    /// Stream processing speed in edges per second (Fig. 14's metric).
    pub fn throughput(&self) -> f64 {
        if self.wall_secs == 0.0 {
            return 0.0;
        }
        self.edges as f64 / self.wall_secs
    }

    /// Mean of `self.values[i] / other.values[i]` (solution-quality ratio,
    /// Figs. 9/11/12/13). Steps where the reference is 0 are skipped.
    pub fn mean_ratio_to(&self, other: &RunLog) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (a, b) in self.values.iter().zip(&other.values) {
            if *b > 0 {
                sum += *a as f64 / *b as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Runs a tracker over a prepared stream.
pub fn run_tracker(tracker: &mut dyn InfluenceTracker, stream: &PreparedStream) -> RunLog {
    run_tracker_from(tracker, stream, 0)
}

/// Runs a tracker over the tail of a prepared stream, starting at step
/// index `start` — the warm-restart entry point: restore a checkpoint whose
/// manifest says `step = start`, then feed `stream.steps[start..]`.
pub fn run_tracker_from(
    tracker: &mut dyn InfluenceTracker,
    stream: &PreparedStream,
    start: usize,
) -> RunLog {
    let tail = &stream.steps[start..];
    let mut values = Vec::with_capacity(tail.len());
    let mut calls = Vec::with_capacity(tail.len());
    let mut step_secs = Vec::with_capacity(tail.len());
    let edges = tail.iter().map(|(_, b)| b.len() as u64).sum();
    let start_clock = Instant::now();
    for (t, batch) in tail {
        let step_start = Instant::now();
        let sol = tracker.step(*t, batch);
        step_secs.push(step_start.elapsed().as_secs_f64());
        values.push(sol.value);
        calls.push(tracker.oracle_calls());
    }
    RunLog {
        name: tracker.name().to_string(),
        values,
        calls,
        step_secs,
        wall_secs: start_clock.elapsed().as_secs_f64(),
        edges,
    }
}

/// One checkpoint written by [`run_tracker_checkpointed`].
pub struct CheckpointRecord {
    /// Stream position recorded in the manifest: steps already processed
    /// (restore resumes feeding at this index).
    pub step: u64,
    /// Where the checkpoint file landed.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Wall-clock seconds the serialize-and-write took (the pause a live
    /// deployment would observe).
    pub save_secs: f64,
}

/// Runs a tracker over a prepared stream, writing a checkpoint into `dir`
/// every `every` processed steps (`ckpt_<step>.tdnc`). The returned log is
/// identical to [`run_tracker`]'s — checkpointing reads state but never
/// mutates it — plus the record of every checkpoint written.
pub fn run_tracker_checkpointed<T: InfluenceTracker + Persist>(
    tracker: &mut T,
    stream: &PreparedStream,
    cfg: &TrackerConfig,
    every: usize,
    dir: &Path,
) -> Result<(RunLog, Vec<CheckpointRecord>), PersistError> {
    assert!(every >= 1, "checkpoint interval must be positive");
    std::fs::create_dir_all(dir)?;
    let mut values = Vec::with_capacity(stream.len());
    let mut calls = Vec::with_capacity(stream.len());
    let mut step_secs = Vec::with_capacity(stream.len());
    let mut checkpoints = Vec::new();
    let start_clock = Instant::now();
    for (i, (t, batch)) in stream.steps.iter().enumerate() {
        let step_start = Instant::now();
        let sol = tracker.step(*t, batch);
        step_secs.push(step_start.elapsed().as_secs_f64());
        values.push(sol.value);
        calls.push(tracker.oracle_calls());
        let processed = i + 1;
        if processed % every == 0 && processed < stream.len() {
            let path = dir.join(format!("ckpt_{processed:08}.tdnc"));
            let save_start = Instant::now();
            save_checkpoint(&path, tracker, cfg, processed as u64)?;
            let save_secs = save_start.elapsed().as_secs_f64();
            let bytes = std::fs::metadata(&path)?.len();
            checkpoints.push(CheckpointRecord {
                step: processed as u64,
                path,
                bytes,
                save_secs,
            });
        }
    }
    let log = RunLog {
        name: tracker.name().to_string(),
        values,
        calls,
        step_secs,
        wall_secs: start_clock.elapsed().as_secs_f64(),
        edges: stream.edges,
    };
    Ok((log, checkpoints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::percentile;
    use tdn_core::{HistApprox, TrackerConfig};

    #[test]
    fn prepared_streams_are_reproducible() {
        let a = PreparedStream::geometric(Dataset::Brightkite, 1, 0.01, 100, 50);
        let b = PreparedStream::geometric(Dataset::Brightkite, 1, 0.01, 100, 50);
        assert_eq!(a.len(), 50);
        assert_eq!(a.edges, b.edges);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn coalesce_preserves_edges_and_monotone_times() {
        let fine = PreparedStream::geometric(Dataset::Brightkite, 3, 0.01, 100, 64);
        let coarse = PreparedStream::geometric(Dataset::Brightkite, 3, 0.01, 100, 64).coalesce(8);
        assert_eq!(coarse.len(), 8);
        assert_eq!(coarse.edges, fine.edges);
        let fine_total: usize = fine.steps.iter().map(|(_, b)| b.len()).sum();
        let coarse_total: usize = coarse.steps.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(fine_total, coarse_total);
        for pair in coarse.steps.windows(2) {
            assert!(pair[0].0 < pair[1].0, "times stay strictly increasing");
        }
    }

    #[test]
    fn run_log_metrics() {
        let stream = PreparedStream::geometric(Dataset::Brightkite, 2, 0.01, 100, 60);
        let mut tr = HistApprox::new(&TrackerConfig::new(5, 0.2, 100));
        let log = run_tracker(&mut tr, &stream);
        assert_eq!(log.values.len(), 60);
        assert!(log.total_calls() > 0);
        assert!(log.throughput() > 0.0);
        assert!(log.mean_value() > 0.0);
        let ratio = log.mean_ratio_to(&log);
        assert!((ratio - 1.0).abs() < 1e-12);
        // Per-step latency: one sample per step, percentiles ordered, and
        // the samples must sum to (at most) the whole-run wall time.
        assert_eq!(log.step_secs.len(), 60);
        let (p50, p99) = (
            percentile(&log.step_secs, 0.5),
            percentile(&log.step_secs, 0.99),
        );
        assert!(p50 > 0.0 && p50 <= p99);
        assert!(log.step_secs.iter().sum::<f64>() <= log.wall_secs);
    }
}
