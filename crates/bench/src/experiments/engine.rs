//! Engine experiment: the production spread engine
//! ([`SpreadMode::Incremental`] on the adaptive [`TraversalKind::Wide`]
//! kernels) timed against the [`SpreadMode::FullRecompute`] reference.
//!
//! Every workload replays one prepared stream through both modes in
//! [`REPS`] interleaved rounds (full, incremental, full, …, through
//! [`repeat`]) and reports the min, median and max wall time per mode.
//! Speedups are reported unfiltered, including workloads where the
//! engine loses.
//!
//! The run **fails with a non-zero exit** on any correctness miss; there
//! is no wall-clock bar:
//!
//! * every run of both modes, at 1 and 4 threads, must reproduce the
//!   single-threaded full-recompute run's per-step solution values and
//!   oracle tallies;
//! * on the SieveADN streams, so must every pinned lane batching —
//!   [`TraversalKind::Fixed`] with {64, 128, 256} lanes × {top-down, auto}
//!   reverse sweeps, at 1 and 4 threads — with engine tallies equal to
//!   `Wide`'s;
//! * the rebuild-heavy stream's `Wide` run must take at least one
//!   bottom-up sweep (observed via [`tdn_graph::bottom_up_sweeps`]), or
//!   the direction grid would be vacuous. Only the reverse sweeps of
//!   phases 3 and 3b have a direction; phase-4a forward counting runs on
//!   the cone's SCC condensation and never sweeps.
//!
//! Results land in `BENCH_engine.json` (see EXPERIMENTS.md for the
//! schema and the reading).

use crate::checks::ensure;
use crate::driver::{run_tracker, PreparedStream, RunLog};
use crate::report::{f, host_cores, obj, print_table, repeat, write_bench, Json, Spread, REPS};
use crate::scale::Scale;
use std::path::Path;
use tdn_core::{
    HistApprox, SieveAdnTracker, SpreadMode, SpreadStatsSnapshot, SweepDirection, TrackerConfig,
    TraversalKind,
};
use tdn_streams::Dataset;

const EPS: f64 = 0.3;
const P: f64 = 0.001;
const K: usize = 10;

/// Which tracker a workload measures.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Tracker {
    /// SIEVEADN over the addition-only view: phases 3–4 of
    /// `SieveAdn::feed` (the traversal kernels) dominate.
    SieveAdn,
    /// HISTAPPROX end to end: adds instance management and expiry.
    HistApprox,
}

impl Tracker {
    fn name(self) -> &'static str {
        match self {
            Tracker::SieveAdn => "SieveADN",
            Tracker::HistApprox => "HistApprox",
        }
    }
}

/// One measured stream.
struct Workload {
    name: &'static str,
    tracker: Tracker,
    dataset: Dataset,
    /// Ticks coalesced per arrival batch.
    batch_ticks: usize,
    /// Lifetime cap `L` (the decay window).
    max_lifetime: u32,
    /// Stream length in multiples of `scale.steps_main` ticks.
    steps_factor: u64,
    /// Whether the `Wide` run must take a bottom-up sweep.
    bottom_up: bool,
}

/// The measured streams. Small cascade batches leave about half of `V̄_t`
/// clean, so the memo patch path serves it; coarse cascade batches
/// dirty most of `V̄_t`, so the cost model rebuilds with full 256-lane
/// condensation counts, and their phase-3 reverse marking sweeps are wide
/// enough to go bottom-up. The two SieveADN streams therefore cover both
/// phase-4a paths, and carry the lane grid. HistApprox runs with a long window (nothing expires)
/// and a short one (constant expiry churn, the engine's worst case). The
/// Brightkite bipartite stream is the control: its spreads are already
/// cheap, so the engine has nothing to save there.
const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sieve_small_batch",
        tracker: Tracker::SieveAdn,
        dataset: Dataset::TwitterHk,
        batch_ticks: 4,
        max_lifetime: 10_000,
        steps_factor: 3,
        bottom_up: false,
    },
    Workload {
        name: "sieve_coarse_batch",
        tracker: Tracker::SieveAdn,
        dataset: Dataset::TwitterHk,
        batch_ticks: 256,
        max_lifetime: 10_000,
        steps_factor: 16,
        bottom_up: true,
    },
    Workload {
        name: "hist_long_decay",
        tracker: Tracker::HistApprox,
        dataset: Dataset::TwitterHk,
        batch_ticks: 8,
        max_lifetime: 10_000,
        steps_factor: 8,
        bottom_up: false,
    },
    Workload {
        name: "hist_short_decay",
        tracker: Tracker::HistApprox,
        dataset: Dataset::TwitterHiggs,
        batch_ticks: 4,
        max_lifetime: 64,
        steps_factor: 4,
        bottom_up: false,
    },
    Workload {
        name: "bipartite_control",
        tracker: Tracker::HistApprox,
        dataset: Dataset::Brightkite,
        batch_ticks: 4,
        max_lifetime: 10_000,
        steps_factor: 4,
        bottom_up: false,
    },
];

/// Replays `stream` through a fresh tracker at `threads` workers.
fn run_mode(
    w: &Workload,
    stream: &PreparedStream,
    mode: SpreadMode,
    traversal: TraversalKind,
    threads: usize,
) -> (RunLog, SpreadStatsSnapshot) {
    let cfg = TrackerConfig::new(K, EPS, w.max_lifetime);
    exec::with_threads(threads, || match w.tracker {
        Tracker::SieveAdn => {
            let mut tracker = SieveAdnTracker::new(&cfg)
                .with_spread_mode(mode)
                .with_traversal(traversal);
            let log = run_tracker(&mut tracker, stream);
            (log, tracker.spread_stats())
        }
        Tracker::HistApprox => {
            let mut tracker = HistApprox::new(&cfg)
                .with_spread_mode(mode)
                .with_traversal(traversal);
            let log = run_tracker(&mut tracker, stream);
            (log, tracker.spread_stats())
        }
    })
}

/// Whether two runs agree on every per-step value and oracle tally.
fn identical(a: &RunLog, b: &RunLog) -> bool {
    a.values == b.values && a.calls == b.calls
}

/// One workload's measurements.
struct Point {
    w: &'static Workload,
    steps: usize,
    edges: u64,
    oracle_calls: u64,
    full: Spread,
    incr: Spread,
    engine: SpreadStatsSnapshot,
    grid_cells: usize,
    bottom_up_sweeps: u64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.full.median_s / self.incr.median_s.max(1e-9)
    }
}

fn measure(w: &'static Workload, scale: &Scale) -> std::io::Result<Point> {
    let stream = PreparedStream::geometric(
        w.dataset,
        scale.seed,
        P,
        w.max_lifetime,
        scale.steps_main * w.steps_factor,
    )
    .coalesce(w.batch_ticks);
    let arms = repeat(
        &[SpreadMode::FullRecompute, SpreadMode::Incremental],
        |&mode| {
            let before = tdn_graph::bottom_up_sweeps();
            let (log, stats) = run_mode(w, &stream, mode, TraversalKind::Wide, 1);
            (log, stats, tdn_graph::bottom_up_sweeps() - before)
        },
    );
    let (full, incr) = (arms[0].spread(), arms[1].spread());
    let (_, engine, bottom_up_sweeps) = &arms[1].outs[0];
    let (engine, bottom_up_sweeps) = (engine.clone(), *bottom_up_sweeps);
    ensure(
        arms[1].outs.iter().all(|(_, stats, _)| *stats == engine),
        format!("[{}] engine tallies vary between repetitions", w.name),
    )?;
    let mut logs: Vec<RunLog> = arms
        .into_iter()
        .flat_map(|arm| arm.outs.into_iter().map(|(log, _, _)| log))
        .collect();
    for mode in [SpreadMode::FullRecompute, SpreadMode::Incremental] {
        let (log, stats) = run_mode(w, &stream, mode, TraversalKind::Wide, 4);
        ensure(
            mode == SpreadMode::FullRecompute || stats == engine,
            format!("[{}] engine tallies depend on the thread count", w.name),
        )?;
        logs.push(log);
    }
    // The first single-threaded full-recompute run is the reference.
    let reference = &logs[0];
    ensure(
        logs.iter().all(|log| identical(log, reference)),
        format!(
            "[{}] a run diverged from the full-recompute reference (modes x threads)",
            w.name
        ),
    )?;
    let mut grid_cells = 0;
    if w.tracker == Tracker::SieveAdn {
        for lanes in [64, 128, 256] {
            for direction in [SweepDirection::TopDown, SweepDirection::Auto] {
                for threads in [1, 4] {
                    let traversal = TraversalKind::Fixed { lanes, direction };
                    let (log, stats) =
                        run_mode(w, &stream, SpreadMode::Incremental, traversal, threads);
                    ensure(
                        identical(&log, reference) && stats == engine,
                        format!(
                            "[{}] grid cell lanes={lanes} direction={direction:?} \
                             threads={threads} diverged",
                            w.name
                        ),
                    )?;
                    grid_cells += 1;
                }
            }
        }
    }
    ensure(
        !w.bottom_up || bottom_up_sweeps > 0,
        format!(
            "[{}] no traversal switched to a bottom-up sweep; the direction grid is vacuous",
            w.name
        ),
    )?;
    Ok(Point {
        w,
        steps: stream.len(),
        edges: stream.edges,
        oracle_calls: reference.total_calls(),
        full,
        incr,
        engine,
        grid_cells,
        bottom_up_sweeps,
    })
}

/// Runs every workload, enforces the correctness gates, writes
/// `BENCH_engine.json`, and prints the summary table.
pub fn run(out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    let points = WORKLOADS
        .iter()
        .map(|w| measure(w, scale))
        .collect::<std::io::Result<Vec<Point>>>()?;
    let bottom_up_sweeps: u64 = points.iter().map(|p| p.bottom_up_sweeps).sum();

    let share =
        |part: u64, rest: u64| format!("{:.0}%", 100.0 * part as f64 / (part + rest).max(1) as f64);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.w.name.to_string(),
                p.w.tracker.name().to_string(),
                p.w.batch_ticks.to_string(),
                f(p.full.median_s),
                f(p.incr.median_s),
                format!("{:.2}x", p.speedup()),
                share(p.engine.cache_hits, p.engine.cache_misses),
                share(p.engine.rebuilt_batches, p.engine.patched_batches),
                p.bottom_up_sweeps.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Spread engine: incremental vs full recompute, median of {REPS} \
             (identical answers, {} cores)",
            host_cores()
        ),
        &[
            "workload",
            "tracker",
            "batch",
            "full s",
            "incr s",
            "speedup",
            "memo hits",
            "rebuilds",
            "bottom-up",
        ],
        &rows,
    );
    let workloads: Vec<Json> = points
        .iter()
        .map(|p| {
            let e = &p.engine;
            obj! {
                "name": p.w.name, "tracker": p.w.tracker.name(), "dataset": p.w.dataset.slug(),
                "batch_ticks": p.w.batch_ticks, "max_lifetime": p.w.max_lifetime,
                "steps": p.steps, "edges": p.edges,
                "full": p.full, "incremental": p.incr, "speedup": p.speedup(),
                "oracle_calls": p.oracle_calls, "grid_cells": p.grid_cells,
                "bottom_up_sweeps": p.bottom_up_sweeps,
                "engine": obj! {"redundant_edges": e.redundant_edges,
                    "sink_delta_edges": e.sink_delta_edges, "novel_edges": e.novel_edges,
                    "cache_hits": e.cache_hits, "cache_misses": e.cache_misses,
                    "patched_batches": e.patched_batches, "rebuilt_batches": e.rebuilt_batches},
            }
        })
        .collect();
    let fields = obj! {
        "config": obj! {"k": K, "eps": EPS, "geo_p": P},
        "reps": REPS,
        "identical_all": true,
        "identical_grid": true,
        "bottom_up_sweeps": bottom_up_sweeps,
        "workloads": workloads,
    };
    write_bench(out_dir, "engine", scale, fields)
}
