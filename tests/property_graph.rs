//! Property tests for the graph substrate: the lazily-compacted,
//! bucket-evicted `TdnGraph` must agree with a naive reference model on
//! arbitrary schedules, and incremental covers must equal from-scratch
//! reachability.
//!
//! Determinism: the vendored proptest runner derives each property's RNG
//! seed from the test name, so these suites are flake-free in tier-1; set
//! `TDN_PROPTEST_SEED=<u64>` to explore other case streams.

use proptest::prelude::*;
use tdn::graph::{
    marginal_gain, reach_collect, reach_count, AdnGraph, CoverSet, FxHashSet, Graph, IndexedSet,
    ReachScratch, TdnGraph,
};
use tdn::prelude::*;

/// One scheduled edge: (step, src, dst, lifetime).
type Ev = (u8, u8, u8, u8);

fn schedule() -> impl Strategy<Value = Vec<Ev>> {
    prop::collection::vec((0u8..20, 0u8..10, 0u8..10, 1u8..8), 1..60)
}

/// Naive reference: a flat list of (src, dst, expiry).
struct NaiveTdn {
    edges: Vec<(NodeId, NodeId, Time)>,
}

impl NaiveTdn {
    fn live_at(&self, t: Time) -> Vec<(NodeId, NodeId)> {
        self.edges
            .iter()
            .filter(|&&(_, _, exp)| exp > t)
            .map(|&(u, v, _)| (u, v))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edge/node counts and per-node reach agree with the naive model at
    /// every step of the schedule.
    #[test]
    fn tdn_matches_naive_model(evs in schedule()) {
        let mut evs = evs;
        evs.sort_by_key(|e| e.0);
        let mut g = TdnGraph::new();
        let mut naive = NaiveTdn { edges: Vec::new() };
        let mut scratch = ReachScratch::new();
        let max_t = evs.iter().map(|e| e.0).max().unwrap_or(0) as Time + 9;
        let mut idx = 0;
        for t in 0..=max_t {
            g.advance_to(t);
            while idx < evs.len() && evs[idx].0 as Time == t {
                let (_, u, v, l) = evs[idx];
                idx += 1;
                if u == v {
                    continue;
                }
                g.add_edge(NodeId(u as u32), NodeId(v as u32), l as u32);
                naive.edges.push((NodeId(u as u32), NodeId(v as u32), t + l as Time));
            }
            let live = naive.live_at(t);
            prop_assert_eq!(g.edge_count(), live.len() as u64, "edge count at t={}", t);
            let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
            for &(u, v) in &live {
                nodes.insert(u);
                nodes.insert(v);
            }
            prop_assert_eq!(g.node_count(), nodes.len(), "node count at t={}", t);
            g.check_invariants();
            // Reachability agrees with a naive ADN built from live edges.
            let mut ref_graph = AdnGraph::new();
            for &(u, v) in &live {
                ref_graph.add_edge(u, v);
            }
            for &n in nodes.iter() {
                let a = reach_count(&g, n, &mut scratch);
                let b = reach_count(&ref_graph, n, &mut scratch);
                prop_assert_eq!(a, b, "reach({:?}) at t={}", n, t);
            }
        }
    }

    /// Remaining-lifetime range queries return exactly the naive filter.
    #[test]
    fn remaining_range_query_is_exact(evs in schedule(), lo in 1u8..6, width in 1u8..6) {
        let mut evs = evs;
        evs.sort_by_key(|e| e.0);
        let mut g = TdnGraph::new();
        let mut naive = NaiveTdn { edges: Vec::new() };
        let mut idx = 0;
        let max_t = evs.iter().map(|e| e.0).max().unwrap_or(0) as Time + 2;
        for t in 0..=max_t {
            g.advance_to(t);
            while idx < evs.len() && evs[idx].0 as Time == t {
                let (_, u, v, l) = evs[idx];
                idx += 1;
                if u == v { continue; }
                g.add_edge(NodeId(u as u32), NodeId(v as u32), l as u32);
                naive.edges.push((NodeId(u as u32), NodeId(v as u32), t + l as Time));
            }
            let (lo, hi) = (lo as u32, lo as u32 + width as u32);
            let mut got: Vec<(NodeId, NodeId)> = g
                .edges_with_remaining_in(lo, hi)
                .map(|e| (e.src, e.dst))
                .collect();
            let mut expect: Vec<(NodeId, NodeId)> = naive
                .edges
                .iter()
                .filter(|&&(_, _, exp)| exp > t && {
                    let rem = exp - t;
                    rem >= lo as Time && rem < hi as Time
                })
                .map(|&(u, v, _)| (u, v))
                .collect();
            got.sort();
            expect.sort();
            prop_assert_eq!(got, expect, "range [{},{}) at t={}", lo, hi, t);
        }
    }

    /// Incremental covers: extending a cover with v then asking any node's
    /// marginal gain equals the from-scratch union computation.
    #[test]
    fn cover_extension_equals_scratch_union(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
        seeds in prop::collection::vec(0u8..12, 1..4),
        probe in 0u8..12,
    ) {
        let mut g = AdnGraph::new();
        for &(u, v) in &edges {
            if u != v {
                g.add_edge(NodeId(u as u32), NodeId(v as u32));
            }
        }
        if !g.contains_node(NodeId(probe as u32)) {
            return Ok(());
        }
        let mut scratch = ReachScratch::new();
        // Incremental: commit seeds one by one.
        let mut cover = CoverSet::new();
        let mut gained = Vec::new();
        for &s in &seeds {
            if g.contains_node(NodeId(s as u32)) {
                marginal_gain(&g, NodeId(s as u32), &cover, &mut scratch, &mut gained);
                for &n in &gained {
                    cover.insert(n);
                }
            }
        }
        // From scratch: union of full reach sets.
        let mut union: FxHashSet<NodeId> = FxHashSet::default();
        let mut buf = Vec::new();
        for &s in &seeds {
            if g.contains_node(NodeId(s as u32)) {
                reach_collect(&g, NodeId(s as u32), &mut scratch, &mut buf);
                union.extend(buf.iter().copied());
            }
        }
        prop_assert_eq!(cover.len(), union.len());
        // Marginal gain of the probe agrees with the set difference.
        let gain = marginal_gain(&g, NodeId(probe as u32), &cover, &mut scratch, &mut gained);
        reach_collect(&g, NodeId(probe as u32), &mut scratch, &mut buf);
        let expect = buf.iter().filter(|n| !union.contains(n)).count() as u64;
        prop_assert_eq!(gain, expect);
    }

    /// `IndexedSet`'s swap-remove bookkeeping stays consistent with a
    /// reference set under arbitrary interleavings of inserts (node
    /// arrivals) and removes (expirations): membership, length, and the
    /// index ↔ position map must agree after every operation.
    #[test]
    fn indexed_set_swap_remove_under_interleaved_insert_expire(
        ops in prop::collection::vec((0u8..2, 0u8..24), 1..80),
    ) {
        let mut set = IndexedSet::new();
        let mut model: FxHashSet<NodeId> = FxHashSet::default();
        for &(op, raw) in &ops {
            let n = NodeId(raw as u32);
            if op == 0 {
                prop_assert_eq!(set.insert(n), model.insert(n), "insert {:?}", n);
            } else {
                prop_assert_eq!(set.remove(n), model.remove(&n), "remove {:?}", n);
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.contains(n), model.contains(&n));
            // Every position resolves to a distinct live member (the
            // swap-remove must have patched the displaced element's slot),
            // and out-of-range access stays None.
            let mut seen_members: FxHashSet<NodeId> = FxHashSet::default();
            for i in 0..set.len() {
                let m = set.get(i).expect("position in range");
                prop_assert!(model.contains(&m), "stale member {:?} at {}", m, i);
                prop_assert!(seen_members.insert(m), "duplicate {:?} at {}", m, i);
            }
            prop_assert_eq!(set.get(set.len()), None);
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        // Final sweep: the slice view covers the model exactly.
        let mut got: Vec<NodeId> = set.as_slice().to_vec();
        let mut expect: Vec<NodeId> = model.iter().copied().collect();
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }
}
