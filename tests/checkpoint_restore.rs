//! Round-trip property suite for the checkpoint/restore subsystem
//! (`tdn-persist`): checkpoint at step `t`, restore, feed the remaining
//! stream — the result must be **bit-identical** (per-step solutions *and*
//! final oracle-call tallies) to the uninterrupted run, on randomized
//! schedules and at `TDN_THREADS` ∈ {1, 4}. Corrupt inputs — a mismatched
//! config, a truncated file, flipped bytes, the wrong tracker kind — must
//! yield typed errors, never panics.
//!
//! This is the streaming-oracle acceptance style of Yang et al.
//! (arXiv:1602.04490) applied to persistence: a warm-restarted tracker is
//! indistinguishable from one that never stopped.

use proptest::prelude::*;
use tdn::prelude::*;

/// One scheduled edge: (step, src, dst, lifetime).
type Ev = (u8, u8, u8, u8);

fn schedule() -> impl Strategy<Value = Vec<Ev>> {
    prop::collection::vec((0u8..16, 0u8..12, 0u8..12, 1u8..10), 1..70)
}

fn batch_at(evs: &[Ev], t: Time) -> Vec<TimedEdge> {
    evs.iter()
        .filter(|e| e.0 as Time == t && e.1 != e.2)
        .map(|e| TimedEdge::new(e.1 as u32, e.2 as u32, e.3 as Lifetime))
        .collect()
}

fn horizon(evs: &[Ev]) -> Time {
    evs.iter().map(|e| e.0).max().unwrap_or(0) as Time
}

/// Uninterrupted reference run: per-step solutions and final tally.
fn run_straight<T: InfluenceTracker>(mut tracker: T, evs: &[Ev]) -> (Vec<Solution>, u64) {
    let mut sols = Vec::new();
    for t in 0..=horizon(evs) {
        sols.push(tracker.step(t, &batch_at(evs, t)));
    }
    let calls = tracker.oracle_calls();
    (sols, calls)
}

/// Interrupted run: process steps `0..cut`, checkpoint through the full
/// byte format (manifest + checksum), drop the live tracker, restore, and
/// process the remaining steps on the restored instance.
fn run_interrupted<T: InfluenceTracker + Persist>(
    mut tracker: T,
    evs: &[Ev],
    cfg: &TrackerConfig,
    cut: Time,
) -> Result<(Vec<Solution>, u64), TestCaseError> {
    let mut sols = Vec::new();
    for t in 0..cut {
        sols.push(tracker.step(t, &batch_at(evs, t)));
    }
    let bytes = checkpoint_to_vec(&tracker, cfg, cut);
    drop(tracker);
    let (resume, mut warm): (u64, T) = match restore_from_slice(&bytes, cfg) {
        Ok(ok) => ok,
        Err(e) => return Err(TestCaseError::fail(format!("restore failed: {e}"))),
    };
    prop_assert_eq!(resume, cut, "manifest stream position drifted");
    for t in cut..=horizon(evs) {
        sols.push(warm.step(t, &batch_at(evs, t)));
    }
    let calls = warm.oracle_calls();
    Ok((sols, calls))
}

/// Asserts the warm-restart invariant for one tracker constructor at every
/// cut point, at 1 and 4 engine threads.
fn assert_restart_invariant<T: InfluenceTracker + Persist>(
    mk: impl Fn() -> T,
    evs: &[Ev],
    cfg: &TrackerConfig,
    cut: Time,
) -> Result<(), TestCaseError> {
    // `cut == horizon + 1` checkpoints after the final step (empty tail).
    let cut = cut.min(horizon(evs) + 1);
    for threads in [1usize, 4] {
        let (reference, warm) = exec::with_threads(threads, || {
            let reference = run_straight(mk(), evs);
            let warm = run_interrupted(mk(), evs, cfg, cut);
            (reference, warm)
        });
        let (warm_sols, warm_calls) = warm?;
        prop_assert_eq!(
            &warm_sols,
            &reference.0,
            "solutions diverged after restart at step {} with {} threads",
            cut,
            threads
        );
        prop_assert_eq!(
            warm_calls,
            reference.1,
            "oracle tally diverged after restart at step {} with {} threads",
            cut,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sieve_adn_warm_restart_is_bit_identical(evs in schedule(), cut in 0u64..17) {
        let cfg = TrackerConfig::new(3, 0.2, 8);
        assert_restart_invariant(|| SieveAdnTracker::new(&cfg), &evs, &cfg, cut)?;
    }

    #[test]
    fn basic_reduction_warm_restart_is_bit_identical(evs in schedule(), cut in 0u64..17) {
        let cfg = TrackerConfig::new(3, 0.2, 8);
        assert_restart_invariant(|| BasicReduction::new(&cfg), &evs, &cfg, cut)?;
    }

    #[test]
    fn hist_approx_warm_restart_is_bit_identical(evs in schedule(), cut in 0u64..17) {
        let cfg = TrackerConfig::new(3, 0.2, 8);
        assert_restart_invariant(|| HistApprox::new(&cfg), &evs, &cfg, cut)?;
    }

    #[test]
    fn hist_approx_refeed_warm_restart_is_bit_identical(evs in schedule(), cut in 0u64..17) {
        let cfg = TrackerConfig::new(2, 0.15, 10);
        assert_restart_invariant(|| HistApprox::new(&cfg).with_refeed(), &evs, &cfg, cut)?;
    }

    #[test]
    fn random_tracker_warm_restart_resumes_the_rng_stream(evs in schedule(), cut in 0u64..17) {
        // The Random baseline draws from its generator every step, so a
        // restart that lost RNG state would diverge immediately.
        let cfg = TrackerConfig::new(3, 0.2, 8);
        assert_restart_invariant(|| RandomTracker::new(&cfg, 0xFEED), &evs, &cfg, cut)?;
    }

    /// Double interruption: checkpoint, restore, continue, checkpoint
    /// again, restore again. State must survive arbitrarily many
    /// generations of warm restarts.
    #[test]
    fn restart_composes(evs in schedule(), cut1 in 0u64..9, gap in 0u64..9) {
        let cfg = TrackerConfig::new(3, 0.2, 8);
        let reference = run_straight(HistApprox::new(&cfg), &evs);
        let cut2 = cut1 + gap;
        let mut sols = Vec::new();
        let mut tracker = HistApprox::new(&cfg);
        for t in 0..cut1 {
            sols.push(tracker.step(t, &batch_at(&evs, t)));
        }
        let bytes = checkpoint_to_vec(&tracker, &cfg, cut1);
        let (_, mut tracker): (u64, HistApprox) =
            restore_from_slice(&bytes, &cfg).expect("first restore");
        for t in cut1..cut2 {
            sols.push(tracker.step(t, &batch_at(&evs, t)));
        }
        let bytes = checkpoint_to_vec(&tracker, &cfg, cut2);
        let (_, mut tracker): (u64, HistApprox) =
            restore_from_slice(&bytes, &cfg).expect("second restore");
        for t in cut2..=horizon(&evs) {
            sols.push(tracker.step(t, &batch_at(&evs, t)));
        }
        prop_assert_eq!(&sols[..reference.0.len()], &reference.0[..]);
        prop_assert_eq!(tracker.oracle_calls(), reference.1);
    }

    /// Corruption sweep: every truncation of a valid checkpoint, and a
    /// byte flip at a random offset, must return an error — never panic,
    /// never restore silently wrong state.
    #[test]
    fn corrupt_checkpoints_fail_loudly(evs in schedule(), flip in 0usize..10_000) {
        let cfg = TrackerConfig::new(3, 0.2, 8);
        let mut tracker = HistApprox::new(&cfg);
        for t in 0..=horizon(&evs) {
            tracker.step(t, &batch_at(&evs, t));
        }
        let bytes = checkpoint_to_vec(&tracker, &cfg, horizon(&evs) + 1);
        // Truncations (sampled: every 7th prefix, plus the empty file).
        for cut in (0..bytes.len()).step_by(7) {
            prop_assert!(
                restore_from_slice::<HistApprox>(&bytes[..cut], &cfg).is_err(),
                "prefix of {} bytes restored", cut
            );
        }
        // One byte flipped somewhere.
        let mut flipped = bytes.clone();
        let at = flip % flipped.len();
        flipped[at] ^= 0x5A;
        prop_assert!(restore_from_slice::<HistApprox>(&flipped, &cfg).is_err());
    }
}

/// Mismatched configuration: restoring under different `k`, `ε`, `L`, or
/// pruning flag is a typed [`PersistError::ConfigMismatch`].
#[test]
fn config_mismatch_is_a_typed_error() {
    let cfg = TrackerConfig::new(3, 0.2, 8);
    let mut tracker = HistApprox::new(&cfg);
    tracker.step(0, &[TimedEdge::new(0u32, 1u32, 3)]);
    let bytes = checkpoint_to_vec(&tracker, &cfg, 1);
    for other in [
        TrackerConfig::new(4, 0.2, 8),
        TrackerConfig::new(3, 0.25, 8),
        TrackerConfig::new(3, 0.2, 9),
        TrackerConfig::new(3, 0.2, 8).without_singleton_prune(),
    ] {
        match restore_from_slice::<HistApprox>(&bytes, &other) {
            Err(PersistError::ConfigMismatch { .. }) => {}
            Err(e) => panic!("expected ConfigMismatch, got {e}"),
            Ok(_) => panic!("restore accepted a mismatched config"),
        }
    }
    // The matching config still restores.
    assert!(restore_from_slice::<HistApprox>(&bytes, &cfg).is_ok());
}

/// Cross-kind restores are rejected by the manifest tag before any payload
/// decoding is attempted.
#[test]
fn wrong_tracker_kind_is_a_typed_error() {
    let cfg = TrackerConfig::new(3, 0.2, 8);
    let mut tracker = SieveAdnTracker::new(&cfg);
    tracker.step(0, &[TimedEdge::new(0u32, 1u32, 3)]);
    let bytes = checkpoint_to_vec(&tracker, &cfg, 1);
    match restore_from_slice::<BasicReduction>(&bytes, &cfg) {
        Err(PersistError::WrongTracker { expected, found }) => {
            assert_eq!(expected, TrackerKind::BasicReduction);
            assert_eq!(found, TrackerKind::SieveAdn as u8);
        }
        Err(e) => panic!("expected WrongTracker, got {e}"),
        Ok(_) => panic!("restore accepted the wrong tracker kind"),
    }
}

/// File round trip through `save_checkpoint`/`load_checkpoint`, plus the
/// cheap manifest peek (`read_manifest`).
#[test]
fn file_round_trip_and_manifest_peek() {
    let cfg = TrackerConfig::new(2, 0.1, 20);
    let mut live = HistApprox::new(&cfg);
    for t in 0..6u64 {
        live.step(
            t,
            &[
                TimedEdge::new(t as u32, (t + 30) as u32, 4),
                TimedEdge::new(1u32, (t + 60) as u32, 12),
            ],
        );
    }
    let dir = std::env::temp_dir().join(format!("tdn_ckpt_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hist.tdnc");
    save_checkpoint(&path, &live, &cfg, 6).unwrap();
    let manifest = read_manifest(&path).unwrap();
    assert_eq!(manifest.kind, TrackerKind::HistApprox);
    assert_eq!(manifest.step, 6);
    let (step, mut warm): (u64, HistApprox) = load_checkpoint(&path, &cfg).unwrap();
    assert_eq!(step, 6);
    for t in 6..12u64 {
        let batch = [TimedEdge::new((t % 5) as u32, (t + 40) as u32, 3)];
        assert_eq!(warm.step(t, &batch), live.step(t, &batch), "t={t}");
        assert_eq!(warm.oracle_calls(), live.oracle_calls(), "t={t}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The spread-maintenance mode is part of the snapshot: a tracker running
/// the full-recompute reference path restores *as* the reference path and
/// continues bit-identically (a silent mode flip would change the work
/// profile — and, if the memo were stale, the answers).
#[test]
fn full_recompute_mode_round_trips() {
    let cfg = TrackerConfig::new(3, 0.2, 8);
    let mk = || HistApprox::new(&cfg).with_spread_mode(SpreadMode::FullRecompute);
    let mut live = mk();
    for t in 0..6u64 {
        live.step(
            t,
            &[
                TimedEdge::new(t as u32, (t + 9) as u32, 3),
                TimedEdge::new(2u32, (t + 20) as u32, 6),
            ],
        );
    }
    let bytes = checkpoint_to_vec(&live, &cfg, 6);
    let (_, mut warm): (u64, HistApprox) = restore_from_slice(&bytes, &cfg).expect("restores");
    assert_eq!(warm.spread_mode(), SpreadMode::FullRecompute);
    for t in 6..12u64 {
        let batch = [TimedEdge::new((t % 4) as u32, (t + 30) as u32, 4)];
        assert_eq!(warm.step(t, &batch), live.step(t, &batch), "t={t}");
        assert_eq!(warm.oracle_calls(), live.oracle_calls());
    }
    assert_eq!(
        warm.spread_stats(),
        SpreadStatsSnapshot::default(),
        "the reference path must never touch the engine"
    );
}

/// The incremental engine's own per-node state — memoised spreads, the
/// adaptive probe gate, and the shared engine tallies — survives a warm
/// restart: an interrupted run and an uninterrupted one end with identical
/// solutions, oracle tallies, AND engine work profiles.
#[test]
fn spread_engine_state_survives_restore() {
    let cfg = TrackerConfig::new(3, 0.2, 10);
    let mut state = 0xE961_E500_u64;
    let mut rnd = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) % m
    };
    let mut evs: Vec<Ev> = Vec::new();
    for t in 0..18u8 {
        for _ in 0..(2 + rnd(6)) {
            evs.push((t, rnd(16) as u8, rnd(28) as u8, 1 + rnd(8) as u8));
        }
    }
    let mut straight = HistApprox::new(&cfg);
    for t in 0..=horizon(&evs) {
        straight.step(t, &batch_at(&evs, t));
    }
    let reference_stats = straight.spread_stats();
    assert!(
        reference_stats.cache_hits > 0 && reference_stats.sink_delta_edges > 0,
        "workload must exercise the engine: {reference_stats:?}"
    );
    let cut: Time = 7;
    let mut warm = HistApprox::new(&cfg);
    for t in 0..cut {
        warm.step(t, &batch_at(&evs, t));
    }
    let bytes = checkpoint_to_vec(&warm, &cfg, cut);
    drop(warm);
    let (_, mut warm): (u64, HistApprox) = restore_from_slice(&bytes, &cfg).expect("restores");
    for t in cut..=horizon(&evs) {
        warm.step(t, &batch_at(&evs, t));
    }
    assert_eq!(warm.oracle_calls(), straight.oracle_calls());
    assert_eq!(
        warm.spread_stats(),
        reference_stats,
        "engine tallies and probe decisions must resume exactly"
    );
}

/// Targeted corruption of the new engine fields: the payload region
/// holding the spread mode, engine tallies, and memo is covered by the
/// checksum and by semantic validation, so flipped bytes there are typed
/// errors — never panics, never silently-wrong caches (a wrong memo value
/// would change future answers, since served values are trusted as exact).
#[test]
fn spread_engine_field_corruption_is_typed() {
    let cfg = TrackerConfig::new(2, 0.2, 8);
    let mut tracker = SieveAdnTracker::new(&cfg);
    for t in 0..6u64 {
        tracker.step(
            t,
            &[
                TimedEdge::new(t as u32, (t + 7) as u32, 3),
                TimedEdge::new(0u32, (t + 14) as u32, 5),
            ],
        );
    }
    let bytes = checkpoint_to_vec(&tracker, &cfg, 6);
    // The sectioned payload holds the tracker meta (oracle tally + engine
    // tallies), the instance meta (mode byte first), the graph chunks, the
    // sieve and the memo — walk a stride of offsets across all of it.
    for at in (tdn::persist::manifest::PAYLOAD_OFFSET..bytes.len()).step_by(5) {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x3C;
        if corrupt == bytes {
            continue;
        }
        assert!(
            restore_from_slice::<SieveAdnTracker>(&corrupt, &cfg).is_err(),
            "flip at {at} restored silently"
        );
    }
}

/// A checkpoint written at one thread count must restore and continue
/// bit-identically at another: snapshots carry no thread-dependent state.
#[test]
fn checkpoints_are_thread_count_portable() {
    let cfg = TrackerConfig::new(4, 0.2, 10);
    let mut state = 0xC0FF_EE00_u64;
    let mut rnd = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) % m
    };
    let mut evs: Vec<Ev> = Vec::new();
    for t in 0..20u8 {
        for _ in 0..(3 + rnd(8)) {
            evs.push((t, rnd(25) as u8, rnd(25) as u8, 1 + rnd(9) as u8));
        }
    }
    let reference = exec::with_threads(1, || run_straight(HistApprox::new(&cfg), &evs));
    // Run the prefix at 4 threads, checkpoint, restore, finish at 1 — and
    // the other way around.
    for (first, second) in [(4usize, 1usize), (1, 4)] {
        let cut: Time = 9;
        let (bytes, mut sols) = exec::with_threads(first, || {
            let mut tracker = HistApprox::new(&cfg);
            let mut sols = Vec::new();
            for t in 0..cut {
                sols.push(tracker.step(t, &batch_at(&evs, t)));
            }
            (checkpoint_to_vec(&tracker, &cfg, cut), sols)
        });
        let calls = exec::with_threads(second, || {
            let (_, mut warm): (u64, HistApprox) =
                restore_from_slice(&bytes, &cfg).expect("portable checkpoint");
            for t in cut..=horizon(&evs) {
                sols.push(warm.step(t, &batch_at(&evs, t)));
            }
            warm.oracle_calls()
        });
        assert_eq!(sols, reference.0, "{first} -> {second} threads diverged");
        assert_eq!(calls, reference.1, "{first} -> {second} tally diverged");
    }
}

/// Standing answers survive a restore: at every cut of a fixed stream, the
/// restored tracker's `TrackerEngine::query()` equals the uninterrupted
/// tracker's. For BasicReduction the answering instance is already gone
/// after a step, so the answer lives only in the checkpointed cache.
#[test]
fn restored_standing_answers_match_uninterrupted() {
    fn check<T: TrackerEngine + Persist>(
        mut live: T,
        cfg: &TrackerConfig,
        evs: &[Ev],
        label: &str,
    ) {
        for cut in 0..=horizon(evs) + 1 {
            let bytes = checkpoint_to_vec(&live, cfg, cut);
            let (_, warm): (u64, T) = restore_from_slice(&bytes, cfg).expect("restores");
            assert_eq!(warm.query(), live.query(), "{label}: cut {cut}");
            if cut <= horizon(evs) {
                live.step(cut, &batch_at(evs, cut));
            }
        }
    }

    let cfg = TrackerConfig::new(3, 0.2, 8);
    let mut state = 0x5A7E_0001_u64;
    let mut rnd = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) % m
    };
    let mut evs: Vec<Ev> = Vec::new();
    for t in 0..14u8 {
        for _ in 0..(1 + rnd(6)) {
            evs.push((t, rnd(14) as u8, rnd(14) as u8, 1 + rnd(8) as u8));
        }
    }
    check(SieveAdnTracker::new(&cfg), &cfg, &evs, "SieveADN");
    check(HistApprox::new(&cfg), &cfg, &evs, "HistApprox");
    let mut basic = BasicReduction::new(&cfg);
    let mut head_differs = 0;
    for t in 0..=horizon(&evs) {
        basic.step(t, &batch_at(&evs, t));
        let head = basic.instances().next().map(|inst| inst.query());
        head_differs += usize::from(head.as_ref() != Some(&basic.query()));
    }
    assert!(
        head_differs > 0,
        "the window head must disagree with the last answer somewhere, or the \
         BasicReduction case is vacuous"
    );
    check(BasicReduction::new(&cfg), &cfg, &evs, "BasicReduction");
}
