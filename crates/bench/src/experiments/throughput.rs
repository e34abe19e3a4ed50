//! Parallel-scaling experiment: HISTAPPROX stream-processing throughput
//! (edges/sec) versus execution-engine thread count on one fixed workload.
//!
//! This is the perf-trajectory anchor for the parallel execution engine:
//! every run replays the *identical* prepared stream at each thread count
//! ([`REPS`] interleaved rounds through [`repeat`]), asserts the
//! determinism invariant (bit-identical per-step values and oracle-call
//! tallies in every run), and emits machine-readable
//! `BENCH_throughput.json` next to the CSVs so successive commits can be
//! compared. Speedup is physically bounded by the host's core count — on a
//! single-core container every setting clusters around 1×, which the JSON
//! records honestly via `host_cores`.

use crate::checks::ensure;
use crate::driver::{run_tracker, PreparedStream};
use crate::report::{
    f, host_cores, latency_cells_ms, obj, percentile, print_table, repeat, write_bench, Json, REPS,
};
use crate::scale::Scale;
use std::path::Path;
use tdn_core::{HistApprox, TrackerConfig};
use tdn_streams::Dataset;

const EPS: f64 = 0.3;
const P: f64 = 0.001;
const K: usize = 10;
const L: u32 = 10_000;
/// Ticks coalesced per arrival batch: synthetic streams emit only a few
/// interactions per tick, while the parallel phases feed on batch-sized
/// independent work — batched arrival is the serving-scale shape.
const BATCH_TICKS: usize = 16;

/// The HISTAPPROX stream and tracker config this target times and
/// `restore` checkpoints, plus the stream's `workload` record.
pub(crate) fn workload(scale: &Scale) -> (PreparedStream, TrackerConfig, Json) {
    let stream =
        PreparedStream::geometric(Dataset::TwitterHiggs, scale.seed, P, L, scale.steps_main)
            .coalesce(BATCH_TICKS);
    let record = obj! {"dataset": Dataset::TwitterHiggs.slug(), "steps": stream.len(),
    "edges": stream.edges, "k": K, "eps": EPS, "max_lifetime": L, "geo_p": P};
    (stream, TrackerConfig::new(K, EPS, L), record)
}

/// Thread counts swept (1 must come first: it is the speedup baseline).
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Speedup floor the best thread count must clear when the gate enforces.
pub const MIN_SPEEDUP: f64 = 1.5;

/// Decision of the throughput speedup gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpeedupGate {
    /// Assert the [`MIN_SPEEDUP`] floor.
    Enforce,
    /// Skip the assertion, loudly, with this machine-readable reason.
    Skip(String),
}

/// Decides whether the >= [`MIN_SPEEDUP`] assertion runs.
///
/// Pure so the policy is unit-testable: hosts with >= 4 visible cores
/// always enforce; smaller hosts skip unless `force` (the
/// `TDN_BENCH_FORCE_SPEEDUP_CHECK=1` env override) insists — e.g. a CI
/// runner whose cgroup hides cores from `available_parallelism` but can
/// still physically scale.
pub fn speedup_gate(cores: usize, force: bool) -> SpeedupGate {
    if cores >= 4 || force {
        SpeedupGate::Enforce
    } else {
        SpeedupGate::Skip(format!(
            "speedup assertion skipped: host has {cores} core(s), needs >= 4 \
             to make >= {MIN_SPEEDUP}x physically satisfiable \
             (set TDN_BENCH_FORCE_SPEEDUP_CHECK=1 to enforce anyway)"
        ))
    }
}

/// Runs the scaling sweep, checks determinism, writes
/// `BENCH_throughput.json`, and prints the summary table.
pub fn run(out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    let (stream, cfg, workload) = workload(scale);
    let arms = repeat(&THREAD_COUNTS, |&threads| {
        exec::with_threads(threads, || {
            let mut tracker = HistApprox::new(&cfg);
            run_tracker(&mut tracker, &stream)
        })
    });
    let base = &arms[0].outs[0];
    // The determinism invariant is part of the experiment: a speedup that
    // changes answers would be measuring a different algorithm.
    let deterministic = arms
        .iter()
        .flat_map(|arm| &arm.outs)
        .all(|log| log.values == base.values && log.total_calls() == base.total_calls());
    ensure(
        deterministic,
        "parallel HISTAPPROX diverged from the serial run",
    )?;
    let edges_per_sec: Vec<f64> = arms
        .iter()
        .map(|arm| stream.edges as f64 / arm.spread().median_s.max(1e-9))
        .collect();
    let best_speedup = edges_per_sec
        .iter()
        .map(|tp| tp / edges_per_sec[0])
        .fold(f64::NAN, f64::max);
    let cores = host_cores();
    // Enforce the scaling half of the acceptance criterion wherever it is
    // physically satisfiable: a host with >= 4 cores must show >= 1.5x at
    // the best thread count, or parallel scaling has regressed. Smaller
    // hosts (e.g. 1-core CI containers) can only verify determinism — but
    // the skip must be loud and machine-readable, not silent: a reader of
    // BENCH_throughput.json has to be able to tell "passed" from "never
    // checked". `TDN_BENCH_FORCE_SPEEDUP_CHECK=1` overrides the core
    // heuristic for hosts that under-report parallelism (cgroup limits,
    // VMs), so the assertion itself stays exercisable everywhere.
    let force = std::env::var("TDN_BENCH_FORCE_SPEEDUP_CHECK").is_ok_and(|v| v == "1");
    let skipped_reason = match speedup_gate(cores, force) {
        SpeedupGate::Enforce => {
            ensure(
                best_speedup >= MIN_SPEEDUP,
                format!(
                    "parallel scaling regressed: best speedup {best_speedup:.2}x on a {cores}-core host"
                ),
            )?;
            None
        }
        SpeedupGate::Skip(reason) => {
            eprintln!("warning: {reason}");
            Some(reason)
        }
    };

    // One row per thread count; step latencies pool every repetition.
    let (mut runs, mut rows) = (Vec::new(), Vec::new());
    for ((&threads, arm), &tp) in THREAD_COUNTS.iter().zip(&arms).zip(&edges_per_sec) {
        let steps: Vec<f64> = arm.outs.iter().flat_map(|l| l.step_secs.clone()).collect();
        let run = obj! {
            "threads": threads, "edges_per_sec": tp, "wall": arm.spread(),
            "p50_step_ms": percentile(&steps, 0.5) * 1e3,
            "p99_step_ms": percentile(&steps, 0.99) * 1e3,
            "oracle_calls": base.total_calls(), "mean_value": base.mean_value(),
        };
        runs.push(run);
        let [p50, p99] = latency_cells_ms(&steps);
        rows.push(vec![
            threads.to_string(),
            format!("{tp:.0}"),
            f(tp / edges_per_sec[0]),
            p50,
            p99,
            base.total_calls().to_string(),
        ]);
    }
    print_table(
        &format!(
            "Throughput scaling on {cores}-core host (HISTAPPROX, median of {REPS}, \
             identical answers)"
        ),
        &[
            "threads",
            "edges/s",
            "speedup",
            "p50 ms",
            "p99 ms",
            "oracle calls",
        ],
        &rows,
    );
    let fields = obj! {
        "tracker": "HistApprox",
        "workload": workload,
        "reps": REPS,
        "deterministic": deterministic,
        "best_speedup": best_speedup,
        "skipped_reason": skipped_reason,
        "runs": runs,
    };
    write_bench(out_dir, "throughput", scale, fields)
}

#[cfg(test)]
mod tests {
    use super::{speedup_gate, SpeedupGate};

    #[test]
    fn big_hosts_always_enforce() {
        assert_eq!(speedup_gate(4, false), SpeedupGate::Enforce);
        assert_eq!(speedup_gate(64, false), SpeedupGate::Enforce);
        // The override is a no-op where the gate already enforces.
        assert_eq!(speedup_gate(4, true), SpeedupGate::Enforce);
    }

    #[test]
    fn force_override_enforces_on_small_hosts() {
        assert_eq!(speedup_gate(1, true), SpeedupGate::Enforce);
        assert_eq!(speedup_gate(2, true), SpeedupGate::Enforce);
    }

    #[test]
    fn small_host_skip_is_loud_and_names_the_override() {
        for cores in [1usize, 2, 3] {
            match speedup_gate(cores, false) {
                SpeedupGate::Skip(reason) => {
                    assert!(reason.contains(&format!("{cores} core")), "{reason}");
                    assert!(reason.contains("TDN_BENCH_FORCE_SPEEDUP_CHECK"), "{reason}");
                }
                SpeedupGate::Enforce => panic!("{cores}-core host must skip without the override"),
            }
        }
    }
}
