//! Differential test: the wide bit-parallel label sweep in both
//! orientations — reverse reachability ([`reverse_reach_batch_wide`]) and
//! forward counting ([`reach_count_batch_wide`]) — against the scalar
//! references ([`reverse_reach_collect`], [`reach_count`]) on
//! *multigraphs with self-loops* —
//! adjacency shapes the production graphs never store (both `AdnGraph`
//! and `TdnGraph` reject self-loops and deduplicate at insert) but that
//! the traversal contract explicitly permits: `for_each_out` /
//! `for_each_in` may yield duplicates, and callers must stay correct via
//! visited marks, not input hygiene.
//!
//! A self-loop is the sharpest probe for frontier logic (a node that is
//! its own predecessor must not re-enter the frontier or double-set its
//! lane bits), and duplicate edges are the sharpest probe for bottom-up
//! pulls (the same neighbor consulted several times in one round). Both
//! sweep directions and every supported lane width are swept.

use proptest::prelude::*;
use tdn::graph::{
    reach_count, reach_count_batch_wide, reverse_reach_batch_wide, reverse_reach_collect, Graph,
    NodeBitSet, NodeId, ReachScratch, SweepDirection,
};

/// A raw edge-list multigraph: stores edges exactly as given — self-loops
/// and duplicates included — and replays them verbatim from both ends.
#[derive(Default)]
struct MultiGraph {
    /// Out-adjacency, duplicates preserved.
    out: Vec<Vec<NodeId>>,
    /// In-adjacency, duplicates preserved.
    inn: Vec<Vec<NodeId>>,
    /// Nodes with at least one incident edge.
    present: Vec<bool>,
}

impl MultiGraph {
    fn from_edges(n: usize, edges: &[(u8, u8)]) -> Self {
        let mut g = MultiGraph {
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
            present: vec![false; n],
        };
        for &(u, v) in edges {
            let (u, v) = (u as usize % n, v as usize % n);
            g.out[u].push(NodeId(v as u32));
            g.inn[v].push(NodeId(u as u32));
            g.present[u] = true;
            g.present[v] = true;
        }
        g
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| NodeId(i as u32))
    }
}

impl Graph for MultiGraph {
    fn for_each_out(&self, u: NodeId, mut f: impl FnMut(NodeId)) {
        for &v in &self.out[u.index()] {
            f(v);
        }
    }
    fn for_each_in(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        for &u in &self.inn[v.index()] {
            f(u);
        }
    }
    fn node_index_bound(&self) -> usize {
        self.out.len()
    }
    fn contains_node(&self, u: NodeId) -> bool {
        self.present[u.index()]
    }
    fn live_node_count(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }
}

/// Wide traversal from every present node (one lane each, chunked to the
/// requested width), decoded into per-root member sets.
fn wide_members(g: &MultiGraph, words: usize) -> Vec<(NodeId, NodeBitSet)> {
    let roots: Vec<NodeId> = g.nodes().collect();
    let mut result: Vec<(NodeId, NodeBitSet)> =
        roots.iter().map(|&r| (r, NodeBitSet::new())).collect();
    let mut scratch = ReachScratch::new();
    for (chunk_idx, chunk) in roots.chunks(words * 64).enumerate() {
        let lanes: Vec<&[NodeId]> = chunk.iter().map(std::slice::from_ref).collect();
        for dir in [SweepDirection::TopDown, SweepDirection::Auto] {
            let mut members: Vec<NodeBitSet> = chunk.iter().map(|_| NodeBitSet::new()).collect();
            reverse_reach_batch_wide(g, &lanes, words, dir, &mut scratch, |n, mask| {
                for (lane, set) in members.iter_mut().enumerate() {
                    if mask[lane / 64] >> (lane % 64) & 1 == 1 {
                        set.insert(n);
                    }
                }
            });
            for (lane, set) in members.into_iter().enumerate() {
                let slot = &mut result[chunk_idx * words * 64 + lane];
                if slot.1.is_empty() {
                    slot.1 = set;
                } else {
                    // Second direction: must agree with the first.
                    assert_eq!(
                        slot.1.iter().collect::<Vec<_>>(),
                        set.iter().collect::<Vec<_>>(),
                        "sweep directions disagree for root {:?}",
                        slot.0
                    );
                }
            }
        }
    }
    result
}

fn check_against_scalar(n: usize, edges: &[(u8, u8)]) -> Result<(), TestCaseError> {
    let g = MultiGraph::from_edges(n, edges);
    let mut scratch = ReachScratch::new();
    let mut scalar = Vec::new();
    for words in [1usize, 2, 4] {
        for (root, wide) in wide_members(&g, words) {
            scalar.clear();
            reverse_reach_collect(&g, root, &mut scratch, &mut scalar);
            let mut scalar_sorted: Vec<u32> = scalar.iter().map(|n| n.0).collect();
            scalar_sorted.sort_unstable();
            let wide_sorted: Vec<u32> = wide.iter().map(|n| n.0).collect();
            prop_assert_eq!(
                wide_sorted,
                scalar_sorted,
                "wide ({} words) disagrees with scalar at root {:?}",
                words,
                root
            );
        }
    }
    check_counts_against_scalar(&g)
}

/// The forward counting kernel from every present node (one lane each)
/// against per-root scalar BFS counts, at every width and direction.
fn check_counts_against_scalar(g: &MultiGraph) -> Result<(), TestCaseError> {
    let roots: Vec<NodeId> = g.nodes().collect();
    let mut scratch = ReachScratch::new();
    let scalar: Vec<u64> = roots
        .iter()
        .map(|&r| reach_count(g, r, &mut scratch))
        .collect();
    for words in [1usize, 2, 4] {
        for dir in [SweepDirection::TopDown, SweepDirection::Auto] {
            for (chunk, want) in roots.chunks(words * 64).zip(scalar.chunks(words * 64)) {
                let mut counts = vec![0; chunk.len()];
                reach_count_batch_wide(g, chunk, words, dir, &mut scratch, &mut counts);
                prop_assert_eq!(
                    &counts[..],
                    want,
                    "forward counts ({} words, {:?}) disagree with scalar",
                    words,
                    dir
                );
            }
        }
    }
    Ok(())
}

/// Dense little multigraphs where every node carries a self-loop on top
/// of random (frequently duplicated) edges.
fn looped_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..10, 0u8..10), 1..60).prop_map(|mut evs| {
        for i in 0..10 {
            evs.push((i, i)); // guarantee self-loops everywhere
        }
        evs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_matches_scalar_on_self_loops_and_duplicates(evs in looped_edges()) {
        check_against_scalar(10, &evs)?;
    }
}

/// Deterministic worst-case shapes: pure self-loop graphs, a duplicated
/// cycle, and a diamond whose every edge is tripled.
#[test]
fn wide_matches_scalar_on_adversarial_multigraphs() {
    // Isolated self-loops only: reach sets are singletons.
    check_against_scalar(6, &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]).unwrap();
    // A 4-cycle with every edge duplicated and a self-loop on each node.
    let mut cyc = Vec::new();
    for (u, v) in [(0u8, 1u8), (1, 2), (2, 3), (3, 0)] {
        cyc.extend([(u, v); 2]);
    }
    cyc.extend((0..4).map(|i| (i, i)));
    check_against_scalar(4, &cyc).unwrap();
    // Tripled diamond 0 -> {1,2} -> 3 plus a self-loop at the sink.
    let mut dia = Vec::new();
    for (u, v) in [(0u8, 1u8), (0, 2), (1, 3), (2, 3)] {
        dia.extend([(u, v); 3]);
    }
    dia.push((3, 3));
    check_against_scalar(4, &dia).unwrap();
}
