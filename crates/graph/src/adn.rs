//! Addition-only dynamic interaction network (ADN, Example 3 of the paper).
//!
//! Every SIEVEADN instance owns one `AdnGraph`: an append-only directed
//! graph over interned node ids. Appending is the *only* mutation — edges
//! never leave, which is exactly the property Theorem 2's proof relies on
//! (`f_t(S) ≥ f_{t'}(S)` for `t ≥ t'`).
//!
//! Parallel interactions between the same ordered pair are deduplicated:
//! reachability (and therefore the influence spread of Definition 3) is
//! insensitive to edge multiplicity, and instances may be fed the same edge
//! via several paths in HISTAPPROX (copy + range feed + fresh batch).

use crate::arena::{AdjPool, SNAPSHOT_CHUNK};
use crate::hash::FxHashSet;
use crate::node::{pack_pair, NodeId};
use crate::reach::{reverse_reachable_within, ReachScratch};
use crate::traits::Graph;

/// How an [`AdnGraph::add_edge_classified`] insertion affected
/// reachability — the epoch-level event the incremental spread engine's
/// dirty-set tracking consumes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EdgeInsert {
    /// The ordered pair was already present (or a self-loop): no change.
    Duplicate,
    /// New pair, but the target was already reachable from the source, so
    /// **no node's reach set changed** (see DESIGN.md for the proof).
    Redundant,
    /// New pair whose target had never been seen before this insert (no
    /// incident edges). The probe is skipped — an absent node is trivially
    /// unreachable — and the caller resolves the class at batch end: if the
    /// target is still a sink, the edge is an exact `+1` delta on the
    /// source's ancestors; otherwise it is novel.
    TargetNew,
    /// New pair whose target existed but had **no outgoing edges** at
    /// insert time. The probe is skipped too (the sink resolution below is
    /// strictly more precise): if the target is still a sink at batch end,
    /// each node reaching a fresh in-edge source gains exactly the sink —
    /// unless it already reached it through an old in-edge — so the caller
    /// patches `ancestors(new sources) ∖ old-ancestors(target)` by `+1`
    /// instead of dirtying anything.
    TargetSink,
    /// New pair that may extend reach sets: the source's ancestors go
    /// dirty.
    Novel,
    /// New pair whose redundancy probe ran out of budget; treated exactly
    /// like [`EdgeInsert::Novel`] (conservative, never wrong).
    NovelUnproven,
}

impl EdgeInsert {
    /// Whether the insertion actually added an edge.
    pub fn inserted(self) -> bool {
        self != EdgeInsert::Duplicate
    }

    /// Whether the source's ancestors must be marked dirty
    /// ([`EdgeInsert::TargetNew`] answers `false` here; the caller
    /// resolves it at batch end).
    pub fn is_novel(self) -> bool {
        matches!(self, EdgeInsert::Novel | EdgeInsert::NovelUnproven)
    }
}

/// Append-only directed graph with forward and reverse adjacency.
///
/// Both adjacency directions live in [`AdjPool`] arenas: one contiguous
/// buffer per direction, power-of-two blocks per node, zero per-node heap
/// allocations — BFS walks cache-dense slices instead of chasing one heap
/// pointer per node. List order is append order, exactly as the previous
/// `Vec<Vec<_>>` backing stored it, so traversal order, `V̄_t` replay
/// order, and snapshot bytes are all unchanged.
#[derive(Default, Clone)]
pub struct AdnGraph {
    /// Forward adjacency arena, indexed densely by node id.
    out: AdjPool<NodeId>,
    /// Reverse adjacency arena (for `V̄_t` computation).
    inc: AdjPool<NodeId>,
    /// Ordered pairs already present (dedup of parallel edges).
    pairs: FxHashSet<u64>,
    /// Nodes with at least one incident edge.
    nodes: FxHashSet<NodeId>,
}

impl AdnGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct directed node pairs stored.
    pub fn edge_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of nodes with at least one incident edge.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over nodes with incident edges (arbitrary order).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Appends edge `u → v`. Returns `true` if the ordered pair was new.
    ///
    /// Self-loops are rejected (the paper assumes a user cannot influence
    /// himself) and return `false`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        if !self.pairs.insert(pack_pair(u, v)) {
            return false;
        }
        let bound = u.index().max(v.index()) + 1;
        self.out.ensure_node_bound(bound);
        self.inc.ensure_node_bound(bound);
        self.out.push(u.index(), v);
        self.inc.push(v.index(), u);
        self.nodes.insert(u);
        self.nodes.insert(v);
        true
    }

    /// Appends edge `u → v` like [`Self::add_edge`], additionally
    /// classifying the insertion for the incremental spread engine: a new
    /// pair whose target was already reachable from its source (probed
    /// *before* inserting) is [`EdgeInsert::Redundant`] — it changes no
    /// node's reach set, so the engine skips dirtying the source's
    /// ancestors.
    ///
    /// `probe_budget` is invoked **only when a probe is actually needed**
    /// (new pair, known target with outgoing edges) and returns the BFS
    /// expansion cap; returning `0` skips the probe, yielding
    /// [`EdgeInsert::NovelUnproven`]. The laziness lets callers meter
    /// adaptive probe gates on eligible edges only.
    pub fn add_edge_classified(
        &mut self,
        u: NodeId,
        v: NodeId,
        scratch: &mut ReachScratch,
        probe_budget: impl FnOnce() -> usize,
    ) -> EdgeInsert {
        if u == v || self.pairs.contains(&pack_pair(u, v)) {
            return EdgeInsert::Duplicate;
        }
        // A target with no incident edges cannot be reachable from
        // anywhere, and a target with no *outgoing* edges resolves more
        // precisely at batch end (sink-delta patching): both skip the
        // probe. Remaining targets are probed *backwards* (is `u` among
        // `v`'s ancestors?): influence streams have hub sources with huge
        // forward reach but targets with shallow ancestor chains, so the
        // reverse direction is cheap.
        let class = if !self.nodes.contains(&v) {
            EdgeInsert::TargetNew
        } else if self.out_neighbors(v).is_empty() {
            EdgeInsert::TargetSink
        } else {
            match reverse_reachable_within(self, u, v, scratch, probe_budget()) {
                Some(true) => EdgeInsert::Redundant,
                Some(false) => EdgeInsert::Novel,
                None => EdgeInsert::NovelUnproven,
            }
        };
        let inserted = self.add_edge(u, v);
        debug_assert!(inserted, "pair presence was checked above");
        class
    }

    /// Whether edge `u → v` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.pairs.contains(&pack_pair(u, v))
    }

    /// Forward neighbors of `u` (empty slice if unknown).
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.as_slice(u.index())
    }

    /// Reverse neighbors of `v` (empty slice if unknown).
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.inc.as_slice(v.index())
    }

    /// Serializes both adjacency directions as named sections under
    /// `prefix`: `{prefix}out.<c>` and `{prefix}inc.<c>` hold chunk `c`
    /// ([`crate::arena::SNAPSHOT_CHUNK`] lists) as raw word runs.
    ///
    /// Lists are written **verbatim, in list order**: BFS traversal order —
    /// and therefore the `V̄_t` sequence the sieves replay — depends on it,
    /// so a warm restart must reproduce it exactly for the
    /// bit-identical-restore guarantee. `inc` is fully determined by `out`
    /// but its *list order* is not (it interleaves by arrival), so it is
    /// stored verbatim too. The ADN is addition-only, so old chunks
    /// stabilize and a delta save refs them. The `pairs` and `nodes` sets
    /// are derivable from the adjacency and are rebuilt on restore.
    pub fn write_sections(&self, sink: &mut codec::SectionSink, prefix: &str) {
        for c in 0..self.out.chunk_count() {
            for (pool, dir) in [(&self.out, "out"), (&self.inc, "inc")] {
                let mut w = codec::Writer::new();
                pool.write_chunk_snapshot(c, &mut w);
                sink.put(&format!("{prefix}{dir}.{c}"), w.into_vec());
            }
        }
    }

    /// Reconstructs a graph of node bound `bound` from the sections
    /// [`Self::write_sections`] emitted under `prefix`. Rebuilds the
    /// pair-dedup set and node set from the forward adjacency and
    /// validates that the reverse adjacency is exactly its transpose
    /// (bounds-checked, duplicate-free, same edge set): reverse BFS — and
    /// therefore the `V̄_t` replay — walks it, so a drifted `inc` would
    /// silently skew results or index out of range.
    pub fn read_sections(
        map: &codec::SectionMap,
        prefix: &str,
        bound: usize,
    ) -> Result<Self, codec::SectionError> {
        let chunks = bound.div_ceil(SNAPSHOT_CHUNK);
        // `bound` comes from the caller's payload: check it against the
        // stored chunks before allocating for it.
        if chunks > 0 && !map.contains(&format!("{prefix}out.{}", chunks - 1)) {
            return Err(codec::CodecError::Invalid(
                "AdnGraph node bound disagrees with stored chunks",
            )
            .into());
        }
        let mut g = AdnGraph::new();
        g.out.ensure_node_bound(bound);
        g.inc.ensure_node_bound(bound);
        for c in 0..chunks {
            let lists = (bound - c * SNAPSHOT_CHUNK).min(SNAPSHOT_CHUNK);
            for (pool, dir) in [(&mut g.out, "out"), (&mut g.inc, "inc")] {
                let mut r = map.reader(&format!("{prefix}{dir}.{c}"))?;
                pool.read_chunk_snapshot(c, lists, &mut r)?;
                r.finish()?;
            }
        }
        g.rebuild_indexes()?;
        Ok(g)
    }

    /// Rebuilds the derived `pairs`/`nodes` sets from the adjacency pools,
    /// validating the transpose (see [`Self::read_sections`]).
    fn rebuild_indexes(&mut self) -> codec::Result<()> {
        let n_out = self.out.node_bound();
        let mut pairs = FxHashSet::default();
        let mut nodes = FxHashSet::default();
        for u in 0..n_out {
            for &v in self.out.as_slice(u) {
                if v.index() >= n_out {
                    return Err(codec::CodecError::Invalid(
                        "AdnGraph edge endpoint outside node bound",
                    ));
                }
                if !pairs.insert(pack_pair(NodeId(u as u32), v)) {
                    return Err(codec::CodecError::Invalid(
                        "AdnGraph forward adjacency holds a duplicate pair",
                    ));
                }
                nodes.insert(NodeId(u as u32));
                nodes.insert(v);
            }
        }
        let mut rev_pairs = FxHashSet::default();
        for v in 0..n_out {
            for &u in self.inc.as_slice(v) {
                if u.index() >= n_out {
                    return Err(codec::CodecError::Invalid(
                        "AdnGraph reverse edge endpoint outside node bound",
                    ));
                }
                let key = pack_pair(u, NodeId(v as u32));
                if !rev_pairs.insert(key) || !pairs.contains(&key) {
                    return Err(codec::CodecError::Invalid(
                        "AdnGraph reverse adjacency is not the transpose of forward",
                    ));
                }
            }
        }
        if rev_pairs.len() != pairs.len() {
            return Err(codec::CodecError::Invalid(
                "AdnGraph reverse adjacency edge count drifted from forward",
            ));
        }
        self.pairs = pairs;
        self.nodes = nodes;
        Ok(())
    }

    /// Releases recycled arena blocks and excess hash-set capacity back to
    /// the allocator (the memory-budget shedding hook). Pure layout
    /// change: adjacency contents, traversal order, and snapshot bytes are
    /// all unaffected. Returns the approximate bytes released.
    pub fn release_recycled_memory(&mut self) -> usize {
        let before = self.approx_bytes();
        self.out.release_free_tail();
        self.inc.release_free_tail();
        self.pairs.shrink_to_fit();
        self.nodes.shrink_to_fit();
        before.saturating_sub(self.approx_bytes())
    }

    /// Approximate heap footprint in bytes (adjacency arenas + dedup set),
    /// used by memory-accounting experiments.
    pub fn approx_bytes(&self) -> usize {
        self.out.approx_bytes()
            + self.inc.approx_bytes()
            + self.pairs.capacity() * 8
            + self.nodes.capacity() * 4
    }
}

impl std::fmt::Debug for AdnGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdnGraph")
            .field("nodes", &self.nodes.len())
            .field("edges", &self.pairs.len())
            .finish()
    }
}

impl Graph for AdnGraph {
    #[inline]
    fn for_each_out(&self, u: NodeId, mut f: impl FnMut(NodeId)) {
        for &v in self.out_neighbors(u) {
            f(v);
        }
    }

    #[inline]
    fn for_each_in(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        for &u in self.in_neighbors(v) {
            f(u);
        }
    }

    #[inline]
    fn node_index_bound(&self) -> usize {
        self.out.node_bound()
    }

    #[inline]
    fn contains_node(&self, u: NodeId) -> bool {
        self.nodes.contains(&u)
    }

    #[inline]
    fn live_node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn prefetch_out(&self, u: NodeId) {
        self.out.prefetch(u.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_dedups_parallel_edges() {
        let mut g = AdnGraph::new();
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert!(!g.add_edge(NodeId(0), NodeId(1)));
        assert!(g.add_edge(NodeId(1), NodeId(0))); // reverse direction is distinct
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = AdnGraph::new();
        assert!(!g.add_edge(NodeId(3), NodeId(3)));
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn adjacency_is_consistent_both_ways() {
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(5));
        g.add_edge(NodeId(2), NodeId(5));
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(5)]);
        let mut inn = g.in_neighbors(NodeId(5)).to_vec();
        inn.sort();
        assert_eq!(inn, vec![NodeId(0), NodeId(2)]);
        assert!(g.has_edge(NodeId(2), NodeId(5)));
        assert!(!g.has_edge(NodeId(5), NodeId(2)));
    }

    #[test]
    fn clone_is_independent() {
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1));
        let mut h = g.clone();
        h.add_edge(NodeId(1), NodeId(2));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(h.edge_count(), 2);
    }

    #[test]
    fn unknown_nodes_have_empty_adjacency() {
        let g = AdnGraph::new();
        assert!(g.out_neighbors(NodeId(42)).is_empty());
        assert!(g.in_neighbors(NodeId(42)).is_empty());
        assert!(!g.contains_node(NodeId(42)));
    }

    /// Saves `g` as a lone base container of `g.`-prefixed sections.
    fn sections_of(g: &AdnGraph) -> Vec<u8> {
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        g.write_sections(&mut sink, "g.");
        sink.finish().0
    }

    fn restore(blob: &[u8], bound: usize) -> Result<AdnGraph, codec::SectionError> {
        AdnGraph::read_sections(&codec::SectionMap::from_single(blob)?, "g.", bound)
    }

    /// Asserts `g` and `h` hold the same adjacency, list order included.
    fn assert_same_adjacency(g: &AdnGraph, h: &AdnGraph) {
        assert_eq!(g.edge_count(), h.edge_count());
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(g.node_index_bound(), h.node_index_bound());
        for n in 0..g.node_index_bound() as u32 {
            assert_eq!(g.out_neighbors(NodeId(n)), h.out_neighbors(NodeId(n)));
            assert_eq!(g.in_neighbors(NodeId(n)), h.in_neighbors(NodeId(n)));
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_adjacency_order() {
        let mut g = AdnGraph::new();
        // Interleave insertions so forward and reverse list orders differ
        // from sorted order — the round trip must keep them verbatim.
        for (u, v) in [(3u32, 1u32), (0, 1), (3, 0), (2, 1), (0, 2)] {
            g.add_edge(NodeId(u), NodeId(v));
        }
        let h = restore(&sections_of(&g), g.node_index_bound()).expect("round trip");
        assert_same_adjacency(&g, &h);
        assert!(h.has_edge(NodeId(3), NodeId(0)) && !h.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn classified_insert_detects_redundant_edges() {
        use crate::reach::ReachScratch;
        let mut g = AdnGraph::new();
        let mut s = ReachScratch::new();
        let budget = 64;
        // Never-seen targets skip the probe entirely.
        assert_eq!(
            g.add_edge_classified(NodeId(0), NodeId(1), &mut s, || budget),
            EdgeInsert::TargetNew
        );
        assert_eq!(
            g.add_edge_classified(NodeId(1), NodeId(2), &mut s, || budget),
            EdgeInsert::TargetNew
        );
        assert_eq!(
            g.add_edge_classified(NodeId(2), NodeId(3), &mut s, || budget),
            EdgeInsert::TargetNew
        );
        // 0 already reaches 2 via 1, and 2 has outgoing edges, so the
        // probe runs: the shortcut is redundant but stored.
        assert_eq!(
            g.add_edge_classified(NodeId(0), NodeId(2), &mut s, || budget),
            EdgeInsert::Redundant
        );
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(
            g.add_edge_classified(NodeId(0), NodeId(2), &mut s, || budget),
            EdgeInsert::Duplicate
        );
        assert_eq!(
            g.add_edge_classified(NodeId(5), NodeId(5), &mut s, || budget),
            EdgeInsert::Duplicate,
            "self-loops are rejected as before"
        );
        // Known target with no outgoing edges: deferred sink resolution.
        assert_eq!(
            g.add_edge_classified(NodeId(1), NodeId(3), &mut s, || budget),
            EdgeInsert::TargetSink
        );
        // Known target with out-edges, no path back: genuinely novel.
        assert_eq!(
            g.add_edge_classified(NodeId(3), NodeId(0), &mut s, || budget),
            EdgeInsert::Novel
        );
        // Budget 0 can never prove redundancy: conservative Novel.
        assert_eq!(
            g.add_edge_classified(NodeId(2), NodeId(1), &mut s, || 0),
            EdgeInsert::NovelUnproven
        );
        assert!(EdgeInsert::NovelUnproven.is_novel() && EdgeInsert::NovelUnproven.inserted());
        assert!(!EdgeInsert::Duplicate.inserted());
        assert!(!EdgeInsert::Redundant.is_novel());
        assert!(EdgeInsert::TargetNew.inserted() && !EdgeInsert::TargetNew.is_novel());
        assert!(EdgeInsert::TargetSink.inserted() && !EdgeInsert::TargetSink.is_novel());
    }

    #[test]
    fn classified_insert_matches_plain_insert_content() {
        use crate::reach::ReachScratch;
        // Same edge sequence through both APIs yields identical graphs
        // (adjacency order included) — classification is observation only.
        let edges = [(0u32, 1u32), (1, 2), (0, 2), (2, 0), (0, 1), (3, 1)];
        let mut plain = AdnGraph::new();
        let mut classified = AdnGraph::new();
        let mut s = ReachScratch::new();
        for &(u, v) in &edges {
            let a = plain.add_edge(NodeId(u), NodeId(v));
            let c = classified.add_edge_classified(NodeId(u), NodeId(v), &mut s, || 8);
            assert_eq!(a, c.inserted(), "({u},{v})");
        }
        assert_eq!(plain.edge_count(), classified.edge_count());
        for n in 0..4u32 {
            assert_eq!(
                plain.out_neighbors(NodeId(n)),
                classified.out_neighbors(NodeId(n))
            );
            assert_eq!(
                plain.in_neighbors(NodeId(n)),
                classified.in_neighbors(NodeId(n))
            );
        }
    }

    #[test]
    fn chunked_snapshot_round_trip_matches_element_wise() {
        let mut g = AdnGraph::new();
        let mut state = 7u64;
        let mut rnd = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        // Span three snapshot chunks.
        for _ in 0..1500 {
            g.add_edge(NodeId(rnd(2100) as u32), NodeId(rnd(2100) as u32));
        }
        let blob = sections_of(&g);
        let toc = codec::SectionReader::parse(&blob).unwrap().toc().clone();
        assert_eq!(toc.entries().len(), 6, "out + inc per chunk");
        let mut h = restore(&blob, g.node_index_bound()).expect("transpose validates");
        assert_same_adjacency(&g, &h);
        // The restored graph grows exactly like the live one, dedup state
        // included.
        for _ in 0..300 {
            let (u, v) = (NodeId(rnd(2300) as u32), NodeId(rnd(2300) as u32));
            assert_eq!(g.add_edge(u, v), h.add_edge(u, v), "({u:?},{v:?})");
        }
        assert_same_adjacency(&g, &h);
        assert_eq!(sections_of(&g), sections_of(&h));
    }

    #[test]
    fn release_recycled_memory_keeps_contents() {
        let mut g = AdnGraph::new();
        let empty = g.approx_bytes();
        for u in 0..50u32 {
            for v in 0..20u32 {
                g.add_edge(NodeId(u), NodeId(v + 100));
            }
        }
        assert!(g.approx_bytes() > empty, "arena accounting ignores growth");
        let before = g.clone();
        g.release_recycled_memory();
        assert_eq!(g.edge_count(), before.edge_count());
        for n in 0..g.node_index_bound() as u32 {
            assert_eq!(g.out_neighbors(NodeId(n)), before.out_neighbors(NodeId(n)));
            assert_eq!(g.in_neighbors(NodeId(n)), before.in_neighbors(NodeId(n)));
        }
        // Still usable for growth afterwards.
        assert!(g.add_edge(NodeId(200), NodeId(201)));
    }

    #[test]
    fn snapshot_corruption_is_rejected() {
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(1));
        let blob = sections_of(&g);
        let map = codec::SectionMap::from_single(&blob).unwrap();
        let out = map.payload("g.out.0").unwrap();
        let inc = map.payload("g.inc.0").unwrap();
        // Restores a container holding the given chunk-0 payloads (`None`
        // leaves the reverse direction out).
        let decode = |out: &[u8], inc: Option<&[u8]>, bound: usize| {
            let mut w = codec::SectionWriter::new();
            w.put_section("g.out.0", out.to_vec());
            if let Some(inc) = inc {
                w.put_section("g.inc.0", inc.to_vec());
            }
            restore(&w.finish(), bound)
        };
        decode(out, Some(inc), 3).expect("reassembled container restores");
        // Every truncation of either chunk errors instead of panicking.
        for cut in 0..out.len() {
            assert!(decode(&out[..cut], Some(inc), 3).is_err(), "out cut {cut}");
        }
        for cut in 0..inc.len() {
            assert!(decode(out, Some(&inc[..cut]), 3).is_err(), "inc cut {cut}");
        }
        // A bound that disagrees with the stored chunks, or a missing
        // direction, is typed corruption.
        assert!(decode(out, Some(inc), 2).is_err());
        assert!(decode(out, Some(inc), 5000).is_err());
        assert!(decode(out, None, 3).is_err());
        // Hand-encoded chunks: list lengths, then entries.
        let chunk = |lens: &[u32], entries: &[u32]| {
            let mut w = codec::Writer::new();
            w.put_u32_run(lens);
            w.put_u32_run(entries);
            w.into_vec()
        };
        let ok = |out: &[u8], inc: &[u8]| decode(out, Some(inc), 3).is_ok();
        let (out_ok, inc_ok) = (chunk(&[1, 0, 1], &[1, 1]), chunk(&[0, 2, 0], &[0, 2]));
        assert!(ok(&out_ok, &inc_ok), "valid hand encoding");
        // Reverse adjacency that is not the transpose of forward.
        assert!(!ok(&out_ok, &chunk(&[0, 1, 0], &[0])));
        assert!(!ok(&out_ok, &chunk(&[0, 2, 0], &[0, 0])));
        assert!(!ok(&out_ok, &chunk(&[1, 1, 0], &[1, 0])));
        // Duplicate forward pairs and endpoints outside the bound.
        assert!(!ok(
            &chunk(&[2, 0, 0], &[1, 1]),
            &chunk(&[0, 2, 0], &[0, 0])
        ));
        assert!(!ok(&chunk(&[1, 0, 1], &[9, 1]), &inc_ok));
        // Lengths that disagree with the entry run or the list count.
        assert!(!ok(&chunk(&[1, 0, 1], &[1]), &inc_ok));
        assert!(!ok(&chunk(&[1, 0], &[1]), &inc_ok));
    }
}
