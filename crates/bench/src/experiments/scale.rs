//! Scale experiment: delta-checkpoint chains and the memory budget under a
//! growing, community-structured SIEVEADN workload.
//!
//! Three acceptance criteria from the scale-ready persistence stack are
//! asserted while the experiment runs (see DESIGN.md "Scale-ready
//! persistence" and "Memory budget"):
//!
//! 1. **Delta economy** — every delta save written by a
//!    [`CheckpointChain`] must cost < 25 % of a full snapshot taken at the
//!    same step (the contemporaneous `checkpoint_to_vec` bytes, measured
//!    in memory, not against the — much smaller — base written earlier).
//! 2. **Chain restore fidelity** — restoring through the *entire* delta
//!    chain and replaying the stream tail is bit-identical (per-step
//!    solutions and cumulative oracle tallies) to the uninterrupted run,
//!    at `TDN_THREADS` 1 and 4.
//! 3. **Budget ceiling** — a run under a memory budget completes with its
//!    post-step footprint never above the ceiling, with the *same*
//!    answers, while the unconstrained control run exceeds that ceiling.
//!
//! The workload is deterministic (no RNG): each step one fresh window of
//! `WINDOW` nodes arrives, wired into dense `GROUP`-node communities
//! (`OUT_DEG` out-edges per node). The window width equals the graph's
//! snapshot-chunk width, so a step dirties exactly one adjacency chunk per
//! direction and everything older rides along as cheap section references
//! — the shape delta checkpoints are built for — while reachability stays
//! bounded by the community size, keeping the oracle cheap at any scale.
//!
//! Results land in `BENCH_scale.json` (schema documented in
//! EXPERIMENTS.md).

use crate::checks::ensure;
use crate::report::{in_scratch_dir, obj, print_table, write_bench, Json};
use crate::scale::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tdn_core::{InfluenceTracker, SieveAdnTracker, Solution, TrackerConfig};
use tdn_graph::Time;
use tdn_persist::{
    checkpoint_to_vec, load_checkpoint, CheckpointChain, CompactionPolicy, SnapshotKind,
};
use tdn_streams::TimedEdge;

const K: usize = 10;
const EPS: f64 = 0.25;
const L: u32 = 10_000;
/// Nodes arriving per step. Equal to the graph's adjacency snapshot-chunk
/// width, so each step's arrivals land in exactly one fresh chunk.
const WINDOW: usize = 1024;
/// Community size: reachability (and so oracle cost) is capped at this.
const GROUP: usize = 16;
/// Out-edges per node, all within its community.
const OUT_DEG: usize = 8;
/// A checkpoint is saved every this many steps once saving starts.
const SAVE_EVERY: u64 = 2;
/// The acceptance ceiling on `delta bytes / contemporaneous full bytes`.
const MAX_DELTA_RATIO: f64 = 0.25;
/// Thread counts the chain-restore replay is verified at.
const RESTORE_THREADS: [usize; 2] = [1, 4];

/// One chain save, with the contemporaneous full-snapshot cost measured
/// alongside for the delta-economy ratio.
struct SavePoint {
    step: u64,
    kind: SnapshotKind,
    bytes: u64,
    full_bytes: u64,
    fresh_sections: usize,
    ref_sections: usize,
    save_ms: f64,
    path: PathBuf,
}

impl SavePoint {
    fn ratio(&self) -> f64 {
        self.bytes as f64 / self.full_bytes as f64
    }
}

/// Builds the deterministic community stream: step `s` introduces nodes
/// `[s·WINDOW, (s+1)·WINDOW)` wired as dense GROUP-node communities.
fn community_stream(steps: u64) -> Vec<(Time, Vec<TimedEdge>)> {
    (0..steps)
        .map(|s| {
            let base = s as usize * WINDOW;
            let mut batch = Vec::with_capacity(WINDOW * OUT_DEG);
            for group in (0..WINDOW).step_by(GROUP) {
                for j in 0..GROUP {
                    let src = (base + group + j) as u32;
                    for d in 1..=OUT_DEG {
                        let dst = (base + group + (j + d) % GROUP) as u32;
                        batch.push(TimedEdge::new(src, dst, L));
                    }
                }
            }
            (s as Time, batch)
        })
        .collect()
}

/// Replays the whole stream on a fresh tracker under an optional budget,
/// sampling the post-step footprint. Returns the peak footprint, every
/// per-step solution, the final oracle tally, and the shed counters.
fn replay_budgeted(
    stream: &[(Time, Vec<TimedEdge>)],
    cfg: &TrackerConfig,
    budget: Option<usize>,
) -> (usize, Vec<Solution>, u64, tdn_core::SpreadStatsSnapshot) {
    let cfg = match budget {
        Some(b) => cfg.clone().with_memory_budget(b),
        None => cfg.clone(),
    };
    let mut tracker = SieveAdnTracker::new(&cfg);
    let mut peak = 0usize;
    let sols = stream
        .iter()
        .map(|(t, batch)| {
            let sol = tracker.step(*t, batch);
            peak = peak.max(tracker.approx_bytes());
            sol
        })
        .collect();
    (peak, sols, tracker.oracle_calls(), tracker.spread_stats())
}

fn persist_err(e: tdn_persist::PersistError) -> std::io::Error {
    std::io::Error::other(format!("persistence failed: {e}"))
}

/// Runs the scale experiment, asserts the three acceptance criteria, and
/// writes `BENCH_scale.json`. The chain lives in the scratch directory
/// `<out>/scale_chain/`, which is removed once the run succeeds.
pub fn run(out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    in_scratch_dir(&out_dir.join("scale_chain"), |chain_dir| {
        run_in(chain_dir, out_dir, scale)
    })
}

fn run_in(chain_dir: &Path, out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    let steps = scale.steps_persist;
    ensure(steps >= 8, "scale experiment needs at least 8 steps")?;
    let stream = community_stream(steps);
    let edges: u64 = stream.iter().map(|(_, b)| b.len() as u64).sum();
    let cfg = TrackerConfig::new(K, EPS, L);

    // Saving spans the middle half of the stream — the base lands once the
    // state is non-trivial, and a quarter of the stream remains after the
    // chain tip so the restore replay has a real tail to verify against.
    let save_start = steps / 4;
    let cut = steps * 3 / 4;

    // Compaction is disabled on purpose: the experiment measures a pure
    // base + delta-chain, so a forced re-base mid-run would contaminate
    // both the ratio and the restore-latency curve.
    let mut chain = CheckpointChain::new(chain_dir, "scale").with_policy(CompactionPolicy {
        max_chain_len: usize::MAX,
        max_delta_ratio: f64::INFINITY,
    });

    // Phase 1: uninterrupted reference run, checkpointing as it goes and
    // sampling the post-step footprint (the budget phase's control run).
    let mut live = SieveAdnTracker::new(&cfg);
    let mut reference: Vec<Solution> = Vec::with_capacity(stream.len());
    let mut control_peak = 0usize;
    let mut saves: Vec<SavePoint> = Vec::new();
    for (t, batch) in &stream {
        reference.push(live.step(*t, batch));
        control_peak = control_peak.max(live.approx_bytes());
        let done = t + 1;
        if done >= save_start && done <= cut && (done - save_start).is_multiple_of(SAVE_EVERY) {
            let t0 = Instant::now();
            let receipt = chain.save(&live, &cfg, done).map_err(persist_err)?;
            let save_ms = t0.elapsed().as_secs_f64() * 1e3;
            let full_bytes = checkpoint_to_vec(&live, &cfg, done).len() as u64;
            saves.push(SavePoint {
                step: done,
                kind: receipt.kind,
                bytes: receipt.bytes,
                full_bytes,
                fresh_sections: receipt.fresh_sections,
                ref_sections: receipt.ref_sections,
                save_ms,
                path: receipt.path,
            });
        }
    }
    let final_calls = live.oracle_calls();
    ensure(saves.len() >= 3, "too few checkpoints to form a chain")?;
    ensure(
        saves[0].kind == SnapshotKind::Base
            && saves[1..].iter().all(|s| s.kind == SnapshotKind::Delta),
        "chain shape drifted: expected one base followed by deltas only",
    )?;

    // Criterion 1: every delta costs < 25 % of a full snapshot at the same
    // step.
    let deltas = &saves[1..];
    let max_ratio = deltas.iter().map(SavePoint::ratio).fold(0.0, f64::max);
    let mean_ratio = deltas.iter().map(SavePoint::ratio).sum::<f64>() / deltas.len() as f64;
    ensure(
        max_ratio < MAX_DELTA_RATIO,
        format!(
            "delta economy regressed: worst delta is {:.1}% of a contemporaneous full \
             snapshot (limit {:.0}%)",
            max_ratio * 100.0,
            MAX_DELTA_RATIO * 100.0
        ),
    )?;

    // Phase 2: restore latency versus chain length — every save point is a
    // valid restore target; the i-th resolves an (i+1)-link chain.
    let mut restores: Vec<(usize, u64, f64)> = Vec::with_capacity(saves.len());
    for (i, sp) in saves.iter().enumerate() {
        let t0 = Instant::now();
        let (at, _warm): (u64, SieveAdnTracker) =
            load_checkpoint(&sp.path, &cfg).map_err(persist_err)?;
        let load_ms = t0.elapsed().as_secs_f64() * 1e3;
        ensure(at == sp.step, "manifest stream position drifted")?;
        restores.push((i + 1, sp.step, load_ms));
    }

    // Criterion 2: restoring through the full chain and replaying the tail
    // is bit-identical to the uninterrupted run, at 1 and 4 threads.
    let tip = saves.last().expect("non-empty");
    for threads in RESTORE_THREADS {
        let (at, mut warm): (u64, SieveAdnTracker) =
            load_checkpoint(&tip.path, &cfg).map_err(persist_err)?;
        let tail = &stream[at as usize..];
        let sols: Vec<Solution> = exec::with_threads(threads, || {
            tail.iter().map(|(t, b)| warm.step(*t, b)).collect()
        });
        ensure(
            sols == reference[at as usize..],
            format!("chain restore diverged from the uninterrupted run at {threads} thread(s)"),
        )?;
        ensure(
            warm.oracle_calls() == final_calls,
            format!("oracle tallies diverged after chain restore at {threads} thread(s)"),
        )?;
    }

    // Phase 3 / criterion 3: the memory budget. A floor probe (1-byte
    // budget, sheds every step) bounds the irreducible footprint; the
    // ceiling is set halfway between floor and control peak, so the
    // control provably exceeds it and shedding provably gets under it —
    // with bit-identical answers in both budgeted runs.
    let (floor_peak, floor_sols, floor_calls, floor_stats) =
        replay_budgeted(&stream, &cfg, Some(1));
    ensure(
        floor_sols == reference && floor_calls == final_calls,
        "floor-budget shedding changed answers",
    )?;
    ensure(
        floor_stats.shed_fallback > 0,
        "floor-budget run never reached the fallback shedding level",
    )?;
    ensure(
        control_peak as f64 >= floor_peak as f64 * 1.05,
        format!(
            "workload cannot demonstrate the budget: control peak {control_peak} is within \
             5% of the shed floor {floor_peak}"
        ),
    )?;
    let ceiling = floor_peak + (control_peak - floor_peak) / 2;
    let (constrained_peak, constrained_sols, constrained_calls, constrained_stats) =
        replay_budgeted(&stream, &cfg, Some(ceiling));
    ensure(
        constrained_peak <= ceiling,
        format!("budgeted run exceeded its ceiling: post-step peak {constrained_peak} > {ceiling}"),
    )?;
    ensure(
        constrained_sols == reference && constrained_calls == final_calls,
        "budget shedding changed answers",
    )?;
    ensure(
        constrained_stats.shed_memo > 0,
        "budgeted run finished under the ceiling without shedding — ceiling not binding",
    )?;

    // Human-readable summaries.
    let rows: Vec<Vec<String>> = saves
        .iter()
        .map(|sp| {
            vec![
                sp.step.to_string(),
                format!("{:?}", sp.kind),
                sp.bytes.to_string(),
                sp.full_bytes.to_string(),
                format!("{:.1}%", sp.ratio() * 100.0),
                format!("{}/{}", sp.fresh_sections, sp.ref_sections),
                format!("{:.2}", sp.save_ms),
            ]
        })
        .collect();
    print_table(
        "Delta chain saves (SIEVEADN, community stream)",
        &[
            "step",
            "kind",
            "bytes",
            "full bytes",
            "ratio",
            "fresh/ref",
            "save ms",
        ],
        &rows,
    );
    let rows: Vec<Vec<String>> = restores
        .iter()
        .map(|(chain_len, step, load_ms)| {
            vec![
                chain_len.to_string(),
                step.to_string(),
                format!("{load_ms:.2}"),
            ]
        })
        .collect();
    print_table(
        "Chain restore latency vs chain length",
        &["links", "step", "load ms"],
        &rows,
    );
    println!(
        "memory budget: control peak {control_peak} B, shed floor {floor_peak} B, \
         ceiling {ceiling} B, constrained peak {constrained_peak} B (sheds: memo {}, \
         arena {}, fallback {})",
        constrained_stats.shed_memo, constrained_stats.shed_arena, constrained_stats.shed_fallback,
    );
    let snapshots: Vec<Json> = saves
        .iter()
        .map(|sp| {
            obj! {
                "step": sp.step, "kind": format!("{:?}", sp.kind), "bytes": sp.bytes,
                "full_bytes": sp.full_bytes, "ratio": sp.ratio(),
                "fresh_sections": sp.fresh_sections, "ref_sections": sp.ref_sections,
                "save_ms": sp.save_ms,
            }
        })
        .collect();
    let restore_rows: Vec<Json> = restores
        .iter()
        .map(|&(chain_len, step, load_ms)| {
            obj! {"chain_len": chain_len, "step": step, "load_ms": load_ms}
        })
        .collect();
    let fields = obj! {
        "tracker": "SieveADN",
        "workload": obj! {"steps": steps, "edges": edges, "nodes": steps as usize * WINDOW,
            "window": WINDOW, "group": GROUP, "out_deg": OUT_DEG, "k": K, "eps": EPS},
        "snapshots": snapshots,
        "max_delta_ratio": max_ratio,
        "mean_delta_ratio": mean_ratio,
        "restores": restore_rows,
        "bit_identical": true,
        "restore_threads": RESTORE_THREADS.map(Json::from).to_vec(),
        "budget": obj! {"control_peak_bytes": control_peak, "floor_peak_bytes": floor_peak,
            "ceiling_bytes": ceiling, "constrained_peak_bytes": constrained_peak,
            "within_ceiling": true, "control_exceeds": true,
            "sheds": obj! {"memo": constrained_stats.shed_memo,
                "arena": constrained_stats.shed_arena,
                "fallback": constrained_stats.shed_fallback}},
    };
    write_bench(out_dir, "scale", scale, fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_stream_is_deterministic_and_chunk_aligned() {
        let a = community_stream(3);
        let b = community_stream(3);
        assert_eq!(a.len(), 3);
        for ((ta, ba), (tb, bb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ba, bb);
            assert_eq!(ba.len(), WINDOW * OUT_DEG);
        }
        // Step s touches only nodes in window s: one snapshot chunk.
        for (s, (_, batch)) in a.iter().enumerate() {
            let lo = (s * WINDOW) as u32;
            let hi = ((s + 1) * WINDOW) as u32;
            assert!(batch
                .iter()
                .all(|e| (lo..hi).contains(&e.src.0) && (lo..hi).contains(&e.dst.0)));
        }
    }
}
