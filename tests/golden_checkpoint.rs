//! Golden checkpoint fixtures: format-4 `.tdnc` base snapshots committed
//! to the repo must keep restoring cleanly, and the restored tracker must
//! continue the stream bit-identically to an uninterrupted run of today's
//! code.
//!
//! This pins the *byte format* across internal data-structure changes:
//! adjacency arenas, cover-set backends, and traversal strategies may all
//! change, but the trackers' `write_sections`/`read_sections` must keep
//! speaking the exact serialized shape (order-sensitive structures
//! verbatim) that the committed checkpoints use.
//!
//! The bytes themselves are pinned too: a fresh save of the same run must
//! equal the committed fixture byte for byte.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -q golden_checkpoint` —
//! only legitimate when the checkpoint format version itself is bumped.

use std::path::PathBuf;
use tdn::prelude::*;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Deterministic mini-stream: bursty batches over a small node universe
/// with short mixed lifetimes, so expiry, re-activation, redundant edges,
/// and new-sink deltas all occur before and after the cut.
fn batch_at(t: Time) -> Vec<TimedEdge> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (t.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut rnd = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    (0..2 + rnd(5))
        .map(|_| TimedEdge::new(rnd(14) as u32, rnd(14) as u32, 1 + rnd(9) as Lifetime))
        .filter(|e| e.src != e.dst)
        .collect()
}

const CUT: Time = 9;
const HORIZON: Time = 17;

fn cfg() -> TrackerConfig {
    TrackerConfig::new(3, 0.2, 8)
}

fn run_tail<T: InfluenceTracker>(tracker: &mut T, from: Time) -> (Vec<Solution>, u64) {
    let mut sols = Vec::new();
    for t in from..=HORIZON {
        sols.push(tracker.step(t, &batch_at(t)));
    }
    (sols, tracker.oracle_calls())
}

fn check_fixture<T, F>(name: &str, make: F)
where
    T: InfluenceTracker + Persist,
    F: Fn() -> T,
{
    let path = fixture_path(name);
    let mut live = make();
    for t in 0..CUT {
        live.step(t, &batch_at(t));
    }
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        save_checkpoint(&path, &live, &cfg(), CUT).expect("write fixture");
        eprintln!("regenerated {}", path.display());
    }
    let committed = std::fs::read(&path).expect("fixture readable");
    assert!(
        checkpoint_to_vec(&live, &cfg(), CUT) == committed,
        "{name}: a fresh save differs from the committed {} bytes",
        committed.len()
    );
    let manifest = read_manifest(&path).expect("fixture manifest readable");
    assert_eq!(manifest.step, CUT, "{name}: fixture cut drifted");
    let (resume, mut warm): (u64, T) =
        load_checkpoint(&path, &cfg()).expect("committed checkpoint restores");
    assert_eq!(resume, CUT);
    // Continue the stream on the restored tracker and on a fresh
    // uninterrupted run; they must agree on every solution and on the
    // final oracle tally.
    let warm_result = run_tail(&mut warm, CUT);
    let fresh_result = run_tail(&mut live, CUT);
    assert_eq!(warm_result, fresh_result, "{name}: warm tail diverged");
}

#[test]
fn sieve_adn_incremental_fixture_restores() {
    check_fixture("checkpoint_sieve_adn_incremental.tdnc", || {
        SieveAdnTracker::new(&cfg())
    });
}

#[test]
fn hist_approx_incremental_fixture_restores() {
    check_fixture("checkpoint_hist_approx_incremental.tdnc", || {
        HistApprox::new(&cfg())
    });
}

#[test]
fn hist_approx_full_recompute_fixture_restores() {
    check_fixture("checkpoint_hist_approx_full.tdnc", || {
        HistApprox::new(&cfg()).with_spread_mode(SpreadMode::FullRecompute)
    });
}

#[test]
fn basic_reduction_incremental_fixture_restores() {
    check_fixture("checkpoint_basic_reduction_incremental.tdnc", || {
        BasicReduction::new(&cfg())
    });
}
