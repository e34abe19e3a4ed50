//! Delta-chain acceptance suite for the sectioned checkpoints.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Bit-identical chain restore.** Restoring from a base + delta +
//!    delta chain must equal both a direct (single base) save/restore and
//!    an uninterrupted run — per-step solutions *and* oracle-call tallies
//!    — for every tracker family, on randomized schedules and cut points.
//!    SIEVEADN runs the full `SpreadMode` × `TraversalKind` ×
//!    `TDN_THREADS` ∈ {1, 4} matrix; BasicReduction, HistApprox (plain and
//!    refeed) and the Random baseline run at `TDN_THREADS` ∈ {1, 4}.
//!    Restores always come back on the default `Wide` batching, so a
//!    checkpoint written by a pinned `Fixed` tracker must continue
//!    identically on the default.
//! 2. **Actionable corruption reports.** A bit flip inside any section of
//!    a sectioned payload surfaces as
//!    `PersistError::ChecksumMismatch { section: Some(name) }` naming that
//!    exact section, for every section kind the trackers write (tracker
//!    meta, instance meta, graph chunks, sieve, memo, sketch pool,
//!    per-deadline instances, the live TDN). Ref sections in a delta
//!    verify the *resolved* parent payload against their recorded
//!    contract. Truncations of any link are errors, never panics.
//! 3. **Name reuse is sound.** HistApprox can drop a deadline and later
//!    re-create it under the same `inst.{deadline}.` name; a delta across
//!    that reuse must still restore bit-identically, because a section
//!    becomes a ref only when its bytes match the parent's.
//! 4. **Only the current format is read.** The committed golden fixtures
//!    are format-4 bases; format-2 and format-3 headers are rejected as
//!    `UnsupportedVersion` (full restore coverage of the fixtures lives in
//!    `golden_checkpoint.rs`).

use proptest::prelude::*;
use tdn::algorithms::{SweepDirection, TraversalKind};
use tdn::persist::manifest::PAYLOAD_OFFSET;
use tdn::persist::FORMAT_VERSION;
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

fn cfg() -> TrackerConfig {
    TrackerConfig::new(3, 0.2, 8)
}

fn make_sieve(mode: SpreadMode, traversal: TraversalKind) -> SieveAdnTracker {
    SieveAdnTracker::new(&cfg())
        .with_spread_mode(mode)
        .with_traversal(traversal)
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

/// Runs to `cut3` saving a base at `cut1` and deltas at `cut2`/`cut3`,
/// then restores from the three-link chain and finishes the stream.
fn run_chained<T: InfluenceTracker + Persist>(
    mut tracker: T,
    evs: &[Ev],
    cuts: (Time, Time, Time),
) -> Result<(Vec<Solution>, u64), TestCaseError> {
    let (cut1, cut2, cut3) = cuts;
    let mut sols = Vec::new();
    for t in 0..cut1 {
        sols.push(tracker.step(t, &batch_at(evs, t)));
    }
    let (base, idx, base_id) = checkpoint_base_to_vec(&tracker, &cfg(), cut1);
    for t in cut1..cut2 {
        sols.push(tracker.step(t, &batch_at(evs, t)));
    }
    let (d1, idx, d1_id) = checkpoint_delta_to_vec(&tracker, &cfg(), cut2, &idx, base_id);
    for t in cut2..cut3 {
        sols.push(tracker.step(t, &batch_at(evs, t)));
    }
    let (d2, _, _) = checkpoint_delta_to_vec(&tracker, &cfg(), cut3, &idx, d1_id);
    drop(tracker);
    let (resume, mut warm): (u64, T) = match restore_from_chain(&[&d2, &d1, &base], &cfg()) {
        Ok(ok) => ok,
        Err(e) => return Err(TestCaseError::fail(format!("chain restore failed: {e}"))),
    };
    prop_assert_eq!(resume, cut3, "chain tip stream position drifted");
    for t in cut3..=horizon(evs) {
        sols.push(warm.step(t, &batch_at(evs, t)));
    }
    let calls = warm.oracle_calls();
    Ok((sols, calls))
}

/// Runs to `cut`, saves one self-contained base, restores it directly,
/// and finishes the stream.
fn run_direct<T: InfluenceTracker + Persist>(
    mut tracker: T,
    evs: &[Ev],
    cut: Time,
) -> Result<(Vec<Solution>, u64), TestCaseError> {
    let mut sols = Vec::new();
    for t in 0..cut {
        sols.push(tracker.step(t, &batch_at(evs, t)));
    }
    let bytes = checkpoint_to_vec(&tracker, &cfg(), cut);
    drop(tracker);
    let (resume, mut warm): (u64, T) = match restore_from_slice(&bytes, &cfg()) {
        Ok(ok) => ok,
        Err(e) => return Err(TestCaseError::fail(format!("direct restore failed: {e}"))),
    };
    prop_assert_eq!(resume, cut);
    for t in cut..=horizon(evs) {
        sols.push(warm.step(t, &batch_at(evs, t)));
    }
    let calls = warm.oracle_calls();
    Ok((sols, calls))
}

/// Chain ≡ direct ≡ uninterrupted for one tracker constructor at one
/// thread count.
fn assert_chain_identity<T: InfluenceTracker + Persist>(
    mk: impl Fn() -> T,
    evs: &[Ev],
    cuts: (Time, Time, Time),
    threads: usize,
    label: &str,
) -> Result<(), TestCaseError> {
    let (reference, chained, direct) = exec::with_threads(threads, || {
        let reference = run_straight(mk(), evs);
        let chained = run_chained(mk(), evs, cuts);
        let direct = run_direct(mk(), evs, cuts.2);
        (reference, chained, direct)
    });
    prop_assert_eq!(
        &chained?,
        &reference,
        "chain diverged (solutions or oracle tally): {}, {} threads, cuts {:?}",
        label,
        threads,
        cuts
    );
    prop_assert_eq!(&direct?, &reference, "direct diverged: {}", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chain restore ≡ direct restore ≡ uninterrupted run for every
    /// tracker family, across SIEVEADN's full configuration matrix.
    #[test]
    fn chain_restore_is_bit_identical_across_mode_traversal_threads(
        evs in schedule(), a in 0u64..17, b in 0u64..17, c in 0u64..17
    ) {
        let mut cuts = [a, b, c];
        cuts.sort_unstable();
        let h = horizon(&evs) + 1;
        let cuts = (cuts[0].min(h), cuts[1].min(h), cuts[2].min(h));
        for threads in [1usize, 4] {
            for mode in [SpreadMode::Incremental, SpreadMode::FullRecompute] {
                for traversal in [
                    TraversalKind::Wide,
                    TraversalKind::Fixed { lanes: 64, direction: SweepDirection::TopDown },
                ] {
                    let label = format!("SieveADN {mode:?} {traversal:?}");
                    assert_chain_identity(|| make_sieve(mode, traversal), &evs, cuts, threads, &label)?;
                }
            }
            assert_chain_identity(|| BasicReduction::new(&cfg()), &evs, cuts, threads, "BasicReduction")?;
            assert_chain_identity(|| HistApprox::new(&cfg()), &evs, cuts, threads, "HistApprox")?;
            assert_chain_identity(
                || HistApprox::new(&cfg()).with_refeed(),
                &evs,
                cuts,
                threads,
                "HistApprox refeed",
            )?;
            assert_chain_identity(|| RandomTracker::new(&cfg(), 0xFEED), &evs, cuts, threads, "Random")?;
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption sweeps
// ---------------------------------------------------------------------------

/// Six steps of a deterministic stream: enough edges that every section
/// kind (graph chunks in both directions, sieve ladder, memo, expiry
/// buckets) is present and non-empty.
fn feed_six_steps<T: InfluenceTracker>(t: &mut T) {
    for step in 0u64..6 {
        let batch: Vec<TimedEdge> = (0..8)
            .map(|i| {
                TimedEdge::new(
                    ((step * 3 + i) % 11) as u32,
                    ((step * 5 + i * 7 + 1) % 11) as u32,
                    (1 + (step + i) % 7) as Lifetime,
                )
            })
            .filter(|e| e.src != e.dst)
            .collect();
        t.step(step, &batch);
    }
}

/// A small but non-trivial SIEVEADN state.
fn seeded_tracker() -> SieveAdnTracker {
    let mut t = SieveAdnTracker::new(&cfg());
    feed_six_steps(&mut t);
    t
}

/// Same state, tracked in sketch mode — adds the `adn.sketch` section
/// (the serialized RR-sketch pool) to the checkpoint.
fn seeded_sketch_tracker() -> SieveAdnTracker {
    let mut t = SieveAdnTracker::new(&cfg())
        .with_spread_mode(SpreadMode::Sketch(SketchParams::new(0.2, 0.1, 0xDEC0)));
    feed_six_steps(&mut t);
    t
}

/// Rewrites the trailing envelope checksum so targeted *payload*
/// corruption reaches the per-section verification instead of being
/// caught by the whole-file checksum first.
fn fix_envelope_checksum(bytes: &mut [u8]) {
    let len = bytes.len();
    let sum = codec::fnv1a64(&bytes[..len - 8]);
    bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
}

fn sectioned_payload(bytes: &[u8]) -> &[u8] {
    let m = tdn_persist::peek_manifest(bytes).expect("manifest parses");
    assert_eq!(m.format_version, FORMAT_VERSION);
    &bytes[PAYLOAD_OFFSET..PAYLOAD_OFFSET + m.payload_len as usize]
}

/// Flips one byte in the middle of every non-empty inline section and
/// asserts each corruption surfaces as a `ChecksumMismatch` blaming that
/// exact section. `required` guards against renames silently shrinking
/// the sweep: every listed name (or, ending in `.`, name prefix) must
/// actually be present.
fn sweep_section_bit_flips<T: Persist>(bytes: &[u8], required: &[&str]) {
    let toc = codec::SectionReader::parse(sectioned_payload(bytes))
        .expect("container parses")
        .toc()
        .clone();
    let names: Vec<String> = toc.entries().iter().map(|e| e.name.clone()).collect();
    for expected in required {
        let present = if expected.ends_with('.') {
            names.iter().any(|n| n.starts_with(expected))
        } else {
            names.iter().any(|n| n == expected)
        };
        assert!(
            present,
            "section {expected:?} missing from the base: {names:?}"
        );
    }
    for entry in toc.entries() {
        assert!(!entry.is_ref, "base checkpoints are self-contained");
        if entry.len == 0 {
            continue;
        }
        let mut corrupt = bytes.to_vec();
        let at = PAYLOAD_OFFSET + entry.offset as usize + (entry.len as usize) / 2;
        corrupt[at] ^= 0x5A;
        fix_envelope_checksum(&mut corrupt);
        match restore_from_slice::<T>(&corrupt, &cfg()) {
            Err(PersistError::ChecksumMismatch {
                section: Some(name),
            }) => {
                assert_eq!(name, entry.name, "wrong section blamed");
            }
            Err(e) => panic!(
                "section {:?}: expected a named ChecksumMismatch, got {e}",
                entry.name
            ),
            Ok(_) => panic!("section {:?}: corrupt payload restored", entry.name),
        }
    }
}

/// Every inline section kind the trackers write reports *its own name*
/// when its payload is corrupted — SIEVEADN's meta, instance meta, graph
/// chunks, sieve and memo, BasicReduction's per-deadline instances, and
/// HistApprox's instances and live-TDN sections.
#[test]
fn section_bit_flips_name_the_failing_section() {
    let tracker = seeded_tracker();
    let bytes = checkpoint_to_vec(&tracker, &cfg(), 6);
    sweep_section_bit_flips::<SieveAdnTracker>(
        &bytes,
        &[
            "meta",
            "adn.meta",
            "adn.graph.out.0",
            "adn.graph.inc.0",
            "adn.sieve",
            "adn.memo",
        ],
    );
    let mut basic = BasicReduction::new(&cfg());
    feed_six_steps(&mut basic);
    let bytes = checkpoint_to_vec(&basic, &cfg(), 6);
    sweep_section_bit_flips::<BasicReduction>(
        &bytes,
        &["meta", "inst.6.meta", "inst.6.graph.out.0", "inst.6.sieve"],
    );
    let mut hist = HistApprox::new(&cfg());
    feed_six_steps(&mut hist);
    let bytes = checkpoint_to_vec(&hist, &cfg(), 6);
    sweep_section_bit_flips::<HistApprox>(
        &bytes,
        &[
            "meta",
            "inst.",
            "g.core",
            "g.adj.out.0",
            "g.adj.inc.0",
            "g.buckets.0",
        ],
    );
}

/// Sketch-mode checkpoints add the serialized RR-sketch pool as its own
/// section — a bit flip inside it must blame `adn.sketch` by name, same
/// as every other section kind.
#[test]
fn sketch_pool_bit_flips_name_the_sketch_section() {
    let tracker = seeded_sketch_tracker();
    assert!(
        tracker
            .instance()
            .sketch_pool()
            .is_some_and(|p| p.universe_len() > 0),
        "seed stream must leave a non-empty pool or the sweep is vacuous"
    );
    let bytes = checkpoint_to_vec(&tracker, &cfg(), 6);
    sweep_section_bit_flips::<SieveAdnTracker>(
        &bytes,
        &[
            "meta",
            "adn.meta",
            "adn.graph.out.0",
            "adn.graph.inc.0",
            "adn.sieve",
            "adn.memo",
            "adn.sketch",
        ],
    );
}

/// A delta's ref sections demand the parent's payload hash to their
/// recorded contract: corrupting the *base* (with its own envelope
/// checksum fixed up) fails the chain restore with a named section.
#[test]
fn ref_sections_verify_resolved_parent_payloads() {
    let mut tracker = seeded_tracker();
    let (base, idx, base_id) = checkpoint_base_to_vec(&tracker, &cfg(), 6);
    tracker.step(6, &[TimedEdge::new(0u32, 7u32, 3)]);
    let (delta, _, _) = checkpoint_delta_to_vec(&tracker, &cfg(), 7, &idx, base_id);

    // The delta must actually contain refs for this to test anything.
    let delta_toc = codec::SectionReader::parse(sectioned_payload(&delta))
        .expect("delta container parses")
        .toc()
        .clone();
    let ref_names: Vec<&str> = delta_toc
        .entries()
        .iter()
        .filter(|e| e.is_ref)
        .map(|e| e.name.as_str())
        .collect();
    assert!(
        !ref_names.is_empty(),
        "a one-edge step should leave at least one section unchanged"
    );

    // Corrupt each referenced section's payload inside the base.
    let base_toc = codec::SectionReader::parse(sectioned_payload(&base))
        .expect("base container parses")
        .toc()
        .clone();
    for name in ref_names {
        let entry = base_toc.entry(name).expect("ref names a base section");
        if entry.len == 0 {
            continue;
        }
        let mut bad_base = base.clone();
        let at = PAYLOAD_OFFSET + entry.offset as usize + (entry.len as usize) / 2;
        bad_base[at] ^= 0x5A;
        fix_envelope_checksum(&mut bad_base);
        match restore_from_chain::<SieveAdnTracker>(&[&delta, &bad_base], &cfg()) {
            Err(PersistError::ChecksumMismatch { section: Some(n) }) => {
                assert_eq!(n, name, "wrong section blamed through the chain");
            }
            Err(e) => panic!("ref {name:?}: expected a named ChecksumMismatch, got {e}"),
            Ok(_) => panic!("ref {name:?}: corrupt parent payload resolved"),
        }
    }
}

/// Every truncation of every link — the base and a delta — is a typed
/// error, never a panic, whether restored alone or through the chain.
#[test]
fn truncating_any_link_is_an_error() {
    let mut tracker = seeded_tracker();
    let (base, idx, base_id) = checkpoint_base_to_vec(&tracker, &cfg(), 6);
    tracker.step(6, &[TimedEdge::new(0u32, 7u32, 3)]);
    let (delta, _, _) = checkpoint_delta_to_vec(&tracker, &cfg(), 7, &idx, base_id);

    for cut in (0..base.len()).step_by(7) {
        assert!(
            restore_from_chain::<SieveAdnTracker>(&[&delta, &base[..cut]], &cfg()).is_err(),
            "truncated base ({cut} bytes) resolved"
        );
    }
    for cut in (0..delta.len()).step_by(7) {
        assert!(
            restore_from_chain::<SieveAdnTracker>(&[&delta[..cut], &base], &cfg()).is_err(),
            "truncated delta ({cut} bytes) resolved"
        );
        assert!(
            restore_from_slice::<SieveAdnTracker>(&delta[..cut], &cfg()).is_err(),
            "truncated lone delta ({cut} bytes) restored"
        );
    }
    // The intact chain still restores (the sweep above would pass
    // vacuously if the fixtures themselves were broken).
    assert!(restore_from_chain::<SieveAdnTracker>(&[&delta, &base], &cfg()).is_ok());
}

// ---------------------------------------------------------------------------
// Section-name reuse
// ---------------------------------------------------------------------------

/// A HistApprox stream (`k = 2`, `ε = 0.2`, `L = 12`) in which
/// `ReduceRedundancy` drops deadline 7 at `t = 2` and the lifetime-3 group
/// at `t = 4` re-creates it, so `inst.7.` names different instances
/// before and after.
const REUSE_STREAM: [&[(u32, u32, u32)]; 8] = [
    &[(4, 7, 5), (5, 1, 9), (5, 4, 4), (3, 2, 7)],
    &[(8, 9, 2)],
    &[(4, 1, 2), (8, 3, 10), (4, 8, 12)],
    &[(8, 3, 11), (7, 9, 1), (2, 1, 6)],
    &[(3, 5, 7), (9, 3, 3)],
    &[(7, 9, 8), (0, 9, 6), (9, 3, 11)],
    &[(3, 1, 4), (2, 5, 9), (4, 5, 3), (1, 9, 8)],
    &[(9, 3, 1), (3, 1, 12)],
];

/// A delta saved across a pruned-and-re-created deadline restores and
/// continues bit-identically: the re-created instance's sections reuse
/// the parent's names with new bytes, so they must go inline.
#[test]
fn hist_approx_deadline_reuse_restores_bit_identically() {
    let cfg = TrackerConfig::new(2, 0.2, 12);
    let batch = |t: usize| -> Vec<TimedEdge> {
        REUSE_STREAM[t]
            .iter()
            .map(|&(u, v, l)| TimedEdge::new(u, v, l))
            .collect()
    };
    let has_seven = |h: &HistApprox| h.instances().any(|(d, _)| d == 7);
    let mut live = HistApprox::new(&cfg);
    for t in 0..2 {
        live.step(t as Time, &batch(t));
    }
    assert!(has_seven(&live), "deadline 7 must exist at the base save");
    let (base, idx, base_id) = checkpoint_base_to_vec(&live, &cfg, 2);
    let mut pruned = false;
    for t in 2..5 {
        live.step(t as Time, &batch(t));
        pruned |= !has_seven(&live);
    }
    assert!(pruned, "deadline 7 must be dropped between the saves");
    assert!(
        has_seven(&live),
        "deadline 7 must be re-created by the delta save"
    );
    let (delta, _, _) = checkpoint_delta_to_vec(&live, &cfg, 5, &idx, base_id);
    let toc = codec::SectionReader::parse(sectioned_payload(&delta))
        .expect("delta parses")
        .toc()
        .clone();
    assert!(
        !toc.entry("inst.7.sieve")
            .expect("re-created instance saved")
            .is_ref,
        "new bytes under a reused name must be inline"
    );
    let (resume, mut warm): (u64, HistApprox) =
        restore_from_chain(&[&delta, &base], &cfg).expect("chain restores");
    assert_eq!(resume, 5);
    assert_eq!(warm.query(), live.query());
    for t in 5..REUSE_STREAM.len() {
        assert_eq!(
            warm.step(t as Time, &batch(t)),
            live.step(t as Time, &batch(t)),
            "t={t}"
        );
        assert_eq!(warm.oracle_calls(), live.oracle_calls(), "t={t}");
    }
    assert_eq!(warm.spread_stats(), live.spread_stats());
}

/// The committed golden fixtures are format-4 base snapshots (their full
/// restore-and-continue coverage lives in `golden_checkpoint.rs`), and a
/// format-2 or format-3 header is `UnsupportedVersion`, never a decode
/// attempt.
#[test]
fn golden_v2_fixtures_parse_as_implicit_bases() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("golden fixture dir exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("tdnc") {
            continue;
        }
        let m = read_manifest(&path).expect("fixture manifest parses");
        assert_eq!(m.format_version, 4, "{path:?}");
        assert_eq!(m.snapshot_kind, SnapshotKind::Base);
        assert_ne!(m.snapshot_id, 0);
        assert_eq!(m.parent_id, 0);
        let bytes = std::fs::read(&path).unwrap();
        for old in [2u32, 3] {
            let mut legacy = bytes.clone();
            legacy[8..12].copy_from_slice(&old.to_le_bytes());
            match tdn_persist::peek_manifest(&legacy) {
                Err(PersistError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (old, FORMAT_VERSION));
                }
                other => panic!("{path:?} as format {old}: {other:?}"),
            }
        }
        seen += 1;
    }
    assert_eq!(seen, 4, "expected the four committed fixtures");
}
