//! Property suite for the flat graph core: epoch wrap-around in the
//! stamped scratch structures, adjacency-arena block reuse under
//! same-bucket expiry storms, and lane-batching bit-identity against the
//! full-recompute reference at `TDN_THREADS` ∈ {1, 4}.

use proptest::prelude::*;
use tdn::graph::{
    reach_count, reach_count_batch_wide, AdjPool, EpochSet, NodeId as GNodeId, ReachScratch,
    TdnGraph,
};
use tdn::prelude::*;
use tdn_core::{SweepDirection, TraversalKind};

/// One scheduled edge: (step, src, dst, lifetime).
type Ev = (u8, u8, u8, u8);

/// Storm-shaped schedules: many edges share one lifetime class, so whole
/// adjacency lists die in the same expiry bucket and the arena's
/// shrink-and-recycle path runs constantly.
fn storm_schedule() -> impl Strategy<Value = Vec<Ev>> {
    prop::collection::vec(
        (
            0u8..12,
            0u8..10,
            0u8..10,
            (0u8..4).prop_map(|x| if x == 3 { 4 } else { 1 }),
        ),
        1..80,
    )
}

fn batch_at(evs: &[Ev], t: Time) -> Vec<TimedEdge> {
    evs.iter()
        .filter(|e| e.0 as Time == t && e.1 != e.2)
        .map(|e| TimedEdge::new(e.1 as u32, e.2 as u32, e.3 as Lifetime))
        .collect()
}

fn run_hist(
    evs: &[Ev],
    mode: SpreadMode,
    traversal: TraversalKind,
    threads: usize,
) -> (Vec<Solution>, u64) {
    tdn::parallel::with_threads(threads, || {
        let mut tracker = HistApprox::new(&TrackerConfig::new(2, 0.2, 6))
            .with_spread_mode(mode)
            .with_traversal(traversal);
        let horizon = evs.iter().map(|e| e.0).max().unwrap_or(0) as Time;
        let mut sols = Vec::new();
        for t in 0..=horizon {
            sols.push(tracker.step(t, &batch_at(evs, t)));
        }
        (sols, tracker.oracle_calls())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under expiry storms, full recompute at 4 threads and the incremental
    /// engine on the adaptive `Wide` default at 1 and 4 threads must
    /// reproduce the single-threaded full-recompute reference's solutions
    /// and oracle tallies — the engine and the thread count change how
    /// answers are computed, never what they are.
    #[test]
    fn storm_streams_are_backend_and_thread_invariant(evs in storm_schedule()) {
        let reference = run_hist(&evs, SpreadMode::FullRecompute, TraversalKind::Wide, 1);
        let full = run_hist(&evs, SpreadMode::FullRecompute, TraversalKind::Wide, 4);
        prop_assert_eq!(&full, &reference, "full recompute at 4 threads");
        for threads in [1usize, 4] {
            let got = run_hist(&evs, SpreadMode::Incremental, TraversalKind::Wide, threads);
            prop_assert_eq!(&got, &reference, "incremental Wide threads {}", threads);
        }
    }

    /// The incremental engine's full pinned grid — every shipped label
    /// width crossed with both sweep policies, at 1 and 4 threads — must
    /// be bit-identical to the same single-threaded full-recompute
    /// reference on the same storm streams.
    #[test]
    fn storm_streams_are_width_and_direction_invariant(evs in storm_schedule()) {
        let reference = run_hist(&evs, SpreadMode::FullRecompute, TraversalKind::Wide, 1);
        let mut grid = Vec::new();
        for lanes in [64usize, 128, 256] {
            for direction in [SweepDirection::TopDown, SweepDirection::Auto] {
                grid.push(TraversalKind::Fixed { lanes, direction });
            }
        }
        for traversal in grid {
            for threads in [1usize, 4] {
                let got = run_hist(&evs, SpreadMode::Incremental, traversal, threads);
                prop_assert_eq!(
                    &got, &reference,
                    "traversal {:?} threads {}", traversal, threads
                );
            }
        }
    }

    /// Forced epoch wrap-around in `ReachScratch` (both the plain visited
    /// epoch and the bit-parallel worklist epoch) must not alias marks at
    /// any label width: traversals right after a wrap agree with a fresh
    /// scratch.
    #[test]
    fn reach_scratch_epoch_wrap_is_transparent(
        edges in prop::collection::vec((0u32..24, 0u32..24), 1..60),
    ) {
        let mut g = tdn::graph::AdnGraph::new();
        for &(u, v) in &edges {
            if u != v {
                g.add_edge(GNodeId(u), GNodeId(v));
            }
        }
        let sources: Vec<GNodeId> = (0..24).map(GNodeId).collect();
        let mut fresh = ReachScratch::new();
        let expect: Vec<u64> = sources.iter().map(|&n| reach_count(&g, n, &mut fresh)).collect();
        for words in [1usize, 2, 4] {
            let mut wrapped = ReachScratch::new();
            wrapped.force_epochs_near_wrap();
            for round in 0..4 {
                for (&n, &want) in sources.iter().zip(&expect) {
                    prop_assert_eq!(
                        reach_count(&g, n, &mut wrapped), want,
                        "round {} node {:?}", round, n
                    );
                }
                let mut batch_counts = vec![0u64; 24];
                reach_count_batch_wide(&g, &sources, words, &mut wrapped, &mut batch_counts);
                prop_assert_eq!(
                    &batch_counts, &expect,
                    "round {} words {}", round, words
                );
            }
        }
    }

    /// `EpochSet` clears spanning the wrap boundary never resurrect or
    /// lose members.
    #[test]
    fn epoch_set_wrap_round_trips(members in prop::collection::vec(0u32..50, 0..30)) {
        let mut set = EpochSet::new();
        // Park the epoch near the wrap by churning clears.
        for m in &members {
            set.insert(GNodeId(*m));
        }
        for _ in 0..3 {
            set.clear();
            prop_assert!(set.is_empty());
            let mut expect: Vec<u32> = Vec::new();
            for m in &members {
                if set.insert(GNodeId(*m)) {
                    expect.push(*m);
                }
            }
            let got: Vec<u32> = set.members().iter().map(|n| n.0).collect();
            prop_assert_eq!(got, expect, "insertion order survives clear cycles");
        }
    }
}

/// A flash-crowd shape, transposed — thousands of leaves pointing into
/// one hub — swept in reverse from the hub must actually trip the
/// direction switch under [`SweepDirection::Auto`] (the frontier is ~all
/// live nodes, far past the `≥ 512` floor and the `live/8` fraction), and
/// the bottom-up rounds must leave the labels exactly as top-down computes
/// them. Forward counting has no direction; on the flash crowd itself its
/// counts must equal per-source scalar BFS.
#[test]
fn flash_crowd_frontier_takes_bottom_up_sweeps() {
    const FAN: u32 = 5_000;
    let mut crowd = tdn::graph::AdnGraph::new();
    let mut transposed = tdn::graph::AdnGraph::new();
    for i in 1..=FAN {
        crowd.add_edge(GNodeId(0), GNodeId(i));
        transposed.add_edge(GNodeId(i), GNodeId(0));
        // A sparse second hop so the bottom-up rounds have real pulls to
        // perform rather than immediately quiescing.
        if i % 7 == 0 {
            let far = GNodeId(FAN + 1 + i % 13);
            crowd.add_edge(GNodeId(i), far);
            transposed.add_edge(far, GNodeId(i));
        }
    }
    let hub: &[GNodeId] = &[GNodeId(0)];
    let mut scratch = ReachScratch::new();
    let mut sweep = |direction| {
        let mut labels = vec![0u64; (FAN + 14) as usize];
        tdn::graph::reverse_reach_batch_wide(
            &transposed,
            &[hub],
            1,
            direction,
            &mut scratch,
            |n, mask| labels[n.index()] = mask[0],
        );
        (labels, scratch.bottom_up_rounds())
    };
    let (top_down, top_rounds) = sweep(SweepDirection::TopDown);
    assert_eq!(top_rounds, 0, "TopDown never scans bottom-up");
    let before = tdn::graph::bottom_up_sweeps();
    let (auto, auto_rounds) = sweep(SweepDirection::Auto);
    assert!(
        auto_rounds > 0 && tdn::graph::bottom_up_sweeps() > before,
        "a {FAN}-wide frontier over ~{FAN} live nodes must switch to bottom-up"
    );
    assert_eq!(auto, top_down, "bottom-up rounds changed the answer");
    assert!(
        top_down.iter().all(|&w| w == 1),
        "hub, leaves and second hop all reach the hub"
    );
    let sources: Vec<GNodeId> = (0..=FAN + 13).step_by(97).map(GNodeId).collect();
    for chunk in sources.chunks(64) {
        let mut counts = vec![0u64; chunk.len()];
        tdn::graph::reach_count_batch_wide(&crowd, chunk, 1, &mut scratch, &mut counts);
        for (&src, &got) in chunk.iter().zip(&counts) {
            assert_eq!(
                got,
                reach_count(&crowd, src, &mut scratch),
                "source {src:?}"
            );
        }
    }
}

/// Same-bucket expiry storms must recycle arena blocks: after the first
/// full fill/drain cycle establishes peak occupancy, subsequent identical
/// cycles draw every block from the free lists instead of growing the
/// arena buffer.
#[test]
fn tdn_expiry_storms_reuse_arena_blocks() {
    let mut g = TdnGraph::new();
    let mut t: Time = 0;
    let mut peak = None;
    for cycle in 0..12 {
        // 100 edges out of one hub, all dying at the same tick.
        for i in 1..=100u32 {
            g.add_edge(GNodeId(0), GNodeId(i), 1);
        }
        t += 1;
        g.advance_to(t);
        assert_eq!(g.edge_count(), 0);
        g.check_invariants();
        let (slots, _) = g.arena_stats();
        match peak {
            None => peak = Some(slots),
            Some(p) => assert_eq!(slots, p, "cycle {cycle} grew the arena"),
        }
    }
    let (_, recycled) = g.arena_stats();
    assert!(recycled > 0, "drained blocks must sit on the free lists");
}

/// The raw pool primitive honors the same contract for the unordered O(1)
/// eviction path.
#[test]
fn adj_pool_swap_remove_storm_reuses_blocks() {
    let mut pool: AdjPool<u32> = AdjPool::new();
    for i in 0..128 {
        pool.push(0, i);
    }
    while pool.list_len(0) > 0 {
        pool.swap_remove(0, 0);
    }
    let (peak, _) = pool.arena_stats();
    for _ in 0..8 {
        for i in 0..128 {
            pool.push(0, i);
        }
        while pool.list_len(0) > 0 {
            pool.swap_remove(0, pool.list_len(0) - 1);
        }
        let (now, _) = pool.arena_stats();
        assert_eq!(now, peak, "swap-remove storm grew the arena");
    }
}
