//! The time-decaying dynamic interaction network (TDN) of §II.
//!
//! `TdnGraph` is the live graph `G_t = (V_t, E_t)`: every edge carries an
//! expiry time `τ + l_τ(e)`; advancing the clock drains expiry buckets and
//! evicts edges (and nodes whose last incident edge expired). Multi-edges
//! between the same ordered pair are kept — their multiplicity feeds the
//! diffusion-probability estimate used by the IC-model baselines
//! (`p_uv = 2/(1+e^{−0.2 x}) − 1`, §V-C).
//!
//! Adjacency entries are removed *lazily*: each entry stores its expiry and
//! traversals skip dead entries; a per-node dead counter triggers compaction
//! once at least half of a list is dead, keeping amortized O(1) cost per
//! expired edge.

use crate::arena::AdjPool;
use crate::epoch::EpochSet;
use crate::hash::FxHashMap;
use crate::indexed_set::IndexedSet;
use crate::node::{pack_pair, Lifetime, NodeId, Time};
use crate::traits::Graph;
use std::collections::BTreeMap;

/// An adjacency entry: target node plus the edge instance's expiry time.
type Entry = (NodeId, Time);

/// One direction of lazily-compacted adjacency: an [`AdjPool`] arena of
/// `(node, expiry)` entries plus a per-node dead counter.
///
/// Entries are removed lazily — traversals skip dead ones — and a list is
/// compacted (order-preserving `retain` inside its arena block, shrinking
/// the block when most of it died) once at least half its entries are
/// dead. Compaction is deferred to the end of the advance that evicted the
/// entries (see [`TdnGraph::advance_to_with`]): only once *every* bucket
/// `≤ t` has drained does the dead counter exactly equal the number of
/// dead entries, making `retain` safe. Order preservation matters: entry
/// order drives BFS traversal order, which the determinism and checkpoint
/// contracts pin verbatim (`AdjPool::swap_remove` would be O(1) but
/// reorders).
#[derive(Default, Clone)]
struct AdjSide {
    pool: AdjPool<Entry>,
    dead: Vec<u32>,
}

impl AdjSide {
    fn ensure_node_bound(&mut self, bound: usize) {
        self.pool.ensure_node_bound(bound);
        if self.dead.len() < bound {
            self.dead.resize(bound, 0);
        }
    }

    /// Compacts node `n` if at least half its entries are dead. Must only
    /// run when all entries with `exp ≤ now` have been evicted (dead
    /// counter exact).
    fn maybe_compact(&mut self, n: usize, now: Time) {
        if self.dead[n] as usize * 2 >= self.pool.list_len(n) {
            self.pool.retain(n, |&(_, exp)| exp > now);
            self.dead[n] = 0;
        }
    }

    /// Counts entry `n` dead (lazy removal).
    fn kill(&mut self, n: usize) {
        self.dead[n] += 1;
    }

    fn approx_bytes(&self) -> usize {
        self.pool.approx_bytes() + self.dead.capacity() * std::mem::size_of::<u32>()
    }

    /// Serializes snapshot chunk `chunk` as raw word runs: list lengths,
    /// dead counters, then all entries split into a target run and an
    /// expiry run (structure-of-arrays keeps both runs zero-copy).
    fn write_chunk(&self, chunk: usize, w: &mut codec::Writer) {
        let lo = chunk * crate::arena::SNAPSHOT_CHUNK;
        let hi = (lo + crate::arena::SNAPSHOT_CHUNK).min(self.pool.node_bound());
        debug_assert!(lo < hi, "chunk out of range");
        let lens: Vec<u32> = (lo..hi).map(|n| self.pool.list_len(n) as u32).collect();
        w.put_u32_run(&lens);
        w.put_u32_run(&self.dead[lo..hi]);
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        let mut targets: Vec<u32> = Vec::with_capacity(total);
        let mut expiries: Vec<u64> = Vec::with_capacity(total);
        for n in lo..hi {
            for &(v, exp) in self.pool.as_slice(n) {
                targets.push(v.0);
                expiries.push(exp);
            }
        }
        w.put_u32_run(&targets);
        w.put_u64_run(&expiries);
    }

    /// Restores chunk `chunk` from [`Self::write_chunk`] bytes by bulk
    /// copy. `expected_lists` comes from the enclosing snapshot's node
    /// bound; any internal disagreement is typed corruption. Dead counters
    /// are range-checked here and recounted exactly by the caller's
    /// cross-validation.
    fn read_chunk(
        &mut self,
        chunk: usize,
        expected_lists: usize,
        r: &mut codec::Reader<'_>,
    ) -> codec::Result<()> {
        let lens = r.get_u32_run()?;
        let dead = r.get_u32_run()?;
        if lens.len() != expected_lists || dead.len() != expected_lists {
            return Err(codec::CodecError::Invalid(
                "TdnGraph adjacency chunk holds the wrong number of lists",
            ));
        }
        let targets = r.get_u32_run()?;
        let expiries = r.get_u64_run()?;
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        if targets.len() != total || expiries.len() != total {
            return Err(codec::CodecError::Invalid(
                "TdnGraph adjacency chunk lengths disagree with entry runs",
            ));
        }
        let lo = chunk * crate::arena::SNAPSHOT_CHUNK;
        self.ensure_node_bound(lo + expected_lists);
        let mut off = 0usize;
        let mut items: Vec<Entry> = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            if dead[i] > len {
                return Err(codec::CodecError::Invalid(
                    "TdnGraph dead counter exceeds adjacency length",
                ));
            }
            items.clear();
            items.extend(
                targets[off..off + len as usize]
                    .iter()
                    .zip(&expiries[off..off + len as usize])
                    .map(|(&t, &exp)| (NodeId(t), exp)),
            );
            self.pool.set_list(lo + i, &items);
            self.dead[lo + i] = dead[i];
            off += len as usize;
        }
        Ok(())
    }
}

/// A live, timestamped directed edge of `G_t`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LiveEdge {
    /// Influencer (source).
    pub src: NodeId,
    /// Influenced node (destination).
    pub dst: NodeId,
    /// First time step at which the edge is no longer in the graph.
    pub expiry: Time,
}

impl LiveEdge {
    /// Remaining lifetime at time `now` (`expiry − now`).
    pub fn remaining(&self, now: Time) -> Lifetime {
        self.expiry.saturating_sub(now).min(Lifetime::MAX as Time) as Lifetime
    }
}

/// The time-decaying dynamic interaction network `G_t`.
#[derive(Default, Clone)]
pub struct TdnGraph {
    now: Time,
    out: AdjSide,
    inc: AdjSide,
    /// live in+out degree per node index (edge instances, incl. multi-edges).
    degree: Vec<u32>,
    /// expiry time → edges expiring at that time.
    buckets: BTreeMap<Time, Vec<(NodeId, NodeId)>>,
    /// live multiplicity per ordered pair.
    pair_count: FxHashMap<u64, u32>,
    live_nodes: IndexedSet,
    live_edges: u64,
    /// Epoch-tagged dirty set: nodes whose incident live edge set changed
    /// (insert, expiry, or re-activation) since the last
    /// [`Self::take_dirty`]. Any node whose forward or reverse reach may
    /// have changed is incident to a changed edge, so its endpoints are in
    /// here — consumers reverse/forward-close over it as needed.
    ///
    /// Maintained only while [`Self::set_dirty_tracking`] is on: an
    /// unconsumed dirty set would otherwise grow with every node ever
    /// touched (and bloat checkpoints), so graphs without an incremental
    /// consumer pay nothing.
    dirty: EpochSet,
    dirty_enabled: bool,
    /// Per-advance touched marks for the batched eviction sweep
    /// (transient scratch, never serialized).
    touched: EpochSet,
}

/// Log2 width of a bucket-range section: expiry buckets are grouped into
/// ranges of `1 << BUCKET_RANGE_SHIFT` time steps, one section each, so a
/// far-future range untouched between two saves becomes a ref in a delta
/// checkpoint.
pub const BUCKET_RANGE_SHIFT: u32 = 6;

impl TdnGraph {
    /// Creates an empty graph at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time `t`.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of live edge instances (multi-edges counted individually).
    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.live_edges
    }

    /// Number of distinct live ordered pairs.
    pub fn pair_count(&self) -> usize {
        self.pair_count.len()
    }

    /// Number of live nodes (incident to ≥1 live edge).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes.len()
    }

    /// The set of live nodes.
    #[inline]
    pub fn live_nodes(&self) -> &IndexedSet {
        &self.live_nodes
    }

    /// Live multiplicity of `u → v` (the `x` in the diffusion probability).
    pub fn multiplicity(&self, u: NodeId, v: NodeId) -> u32 {
        self.pair_count.get(&pack_pair(u, v)).copied().unwrap_or(0)
    }

    /// Advances the clock to `t`, evicting every edge with `expiry ≤ t`.
    ///
    /// # Panics
    /// Panics if `t` is before the current time (the stream is
    /// chronological by Definition 2).
    pub fn advance_to(&mut self, t: Time) {
        self.advance_to_with(t, |_, _| {});
    }

    /// Like [`advance_to`](Self::advance_to), invoking `on_evict(u, v)` for
    /// every expiring edge instance — the hook that lets index structures
    /// (e.g. DIM's RR sketches) react to deletions.
    pub fn advance_to_with(&mut self, t: Time, mut on_evict: impl FnMut(NodeId, NodeId)) {
        assert!(t >= self.now, "time moved backwards: {} -> {}", self.now, t);
        self.now = t;
        // Batched eviction sweep: drain every bucket `≤ t` in one pass.
        // Per-edge work (pair counts, degrees, live-node removals) runs in
        // bucket order — live-node *removal order* is part of the
        // determinism contract, since the live-node position order drives
        // sampling and backfills — while the epoch-stamped `touched` set
        // coalesces same-bucket and cross-bucket expiries so each adjacency
        // list is considered for compaction exactly once per sweep, with no
        // sort/dedup pass over the (possibly much longer) edge list.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        while let Some((&exp, _)) = self.buckets.first_key_value() {
            if exp > t {
                break;
            }
            let (_, edges) = self.buckets.pop_first().expect("bucket exists");
            for (u, v) in edges {
                self.evict(u, v);
                touched.insert(u);
                touched.insert(v);
                on_evict(u, v);
            }
        }
        // Compact once per touched list, after ALL buckets ≤ t are drained
        // (dead counters are exact only then).
        for &n in touched.members() {
            self.out.maybe_compact(n.index(), t);
            self.inc.maybe_compact(n.index(), t);
        }
        self.touched = touched;
    }

    /// Enables (or disables) dirty-set tracking. Disabling clears any
    /// accumulated marks. Off by default — see the field docs.
    pub fn set_dirty_tracking(&mut self, enabled: bool) {
        self.dirty_enabled = enabled;
        if !enabled {
            self.dirty.clear();
        }
    }

    /// Whether dirty-set tracking is on.
    pub fn dirty_tracking(&self) -> bool {
        self.dirty_enabled
    }

    /// Drains the epoch-tagged dirty set: every node whose incident live
    /// edge set changed — by insertion, expiry, or re-activation (a node
    /// returning from the dead via a new edge is simply marked again in
    /// the new epoch) — since the last call, in first-change order.
    /// Always empty unless [`Self::set_dirty_tracking`] is on.
    ///
    /// A node's forward or reverse reach can only change if some changed
    /// edge's endpoint set intersects the paths involved, so consumers
    /// maintaining reachability state close over this set (e.g. a reverse
    /// BFS per member) instead of rescanning `V_t`.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        self.dirty.drain()
    }

    /// The dirty set accumulated since the last [`Self::take_dirty`]
    /// (first-change order), without draining it.
    pub fn dirty_nodes(&self) -> &[NodeId] {
        self.dirty.members()
    }

    fn evict(&mut self, u: NodeId, v: NodeId) {
        if self.dirty_enabled {
            self.dirty.insert(u);
            self.dirty.insert(v);
        }
        let key = pack_pair(u, v);
        if let Some(c) = self.pair_count.get_mut(&key) {
            *c -= 1;
            if *c == 0 {
                self.pair_count.remove(&key);
            }
        }
        self.out.kill(u.index());
        self.inc.kill(v.index());
        self.live_edges -= 1;
        for n in [u, v] {
            let d = &mut self.degree[n.index()];
            *d -= 1;
            if *d == 0 {
                self.live_nodes.remove(n);
            }
        }
    }

    /// Adds edge `u → v` arriving *now* with the given lifetime (Definition 1
    /// plus the lifetime assignment of §II-B). Lifetime must be ≥ 1;
    /// `Lifetime::MAX` means "never expires" (ADN edges, Example 3).
    ///
    /// Self-loops are ignored, mirroring the paper's model assumption.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, lifetime: Lifetime) {
        if u == v || lifetime == 0 {
            return;
        }
        let expiry = if lifetime == Lifetime::MAX {
            Time::MAX
        } else {
            self.now + lifetime as Time
        };
        let bound = u.index().max(v.index()) + 1;
        self.out.ensure_node_bound(bound);
        self.inc.ensure_node_bound(bound);
        if self.degree.len() < bound {
            self.degree.resize(bound, 0);
        }
        if self.dirty_enabled {
            self.dirty.insert(u);
            self.dirty.insert(v);
        }
        self.out.pool.push(u.index(), (v, expiry));
        self.inc.pool.push(v.index(), (u, expiry));
        *self.pair_count.entry(pack_pair(u, v)).or_insert(0) += 1;
        if expiry != Time::MAX {
            self.buckets.entry(expiry).or_default().push((u, v));
        }
        self.live_edges += 1;
        for n in [u, v] {
            let d = &mut self.degree[n.index()];
            if *d == 0 {
                self.live_nodes.insert(n);
            }
            *d += 1;
        }
    }

    /// Iterates over live edges whose *current remaining lifetime* lies in
    /// `[lo, hi)`. This is HISTAPPROX's instance-creation query (Alg. 3,
    /// `ProcessEdges`, Fig. 6(c)): an edge expiring at `now + l` has
    /// remaining lifetime exactly `l`.
    pub fn edges_with_remaining_in(
        &self,
        lo: Lifetime,
        hi: Lifetime,
    ) -> impl Iterator<Item = LiveEdge> + '_ {
        let start = self.now.saturating_add(lo.max(1) as Time);
        let end = self.now.saturating_add(hi as Time);
        self.buckets
            .range(start..end)
            .flat_map(move |(&exp, edges)| {
                edges.iter().map(move |&(u, v)| LiveEdge {
                    src: u,
                    dst: v,
                    expiry: exp,
                })
            })
    }

    /// Iterates over all live edges (multi-edges repeated).
    pub fn live_edges_iter(&self) -> impl Iterator<Item = LiveEdge> + '_ {
        self.edges_with_remaining_in(1, Lifetime::MAX)
    }

    /// Distinct live in-neighbors of `v`, deduplicated, with multiplicity.
    pub fn in_neighbors_distinct(&self, v: NodeId) -> Vec<(NodeId, u32)> {
        let mut counts: FxHashMap<NodeId, u32> = FxHashMap::default();
        for &(u, exp) in self.inc.pool.as_slice(v.index()) {
            if exp > self.now {
                *counts.entry(u).or_insert(0) += 1;
            }
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_unstable_by_key(|&(n, _)| n);
        v
    }

    /// Live out-degree (edge instances) of `u`.
    pub fn out_degree_live(&self, u: NodeId) -> usize {
        self.out
            .pool
            .as_slice(u.index())
            .iter()
            .filter(|&&(_, exp)| exp > self.now)
            .count()
    }

    /// Live in-degree (edge instances) of `v` — the `w(R)` ingredient of
    /// TIM+'s KPT estimation.
    pub fn in_degree_live(&self, v: NodeId) -> usize {
        self.inc
            .pool
            .as_slice(v.index())
            .iter()
            .filter(|&&(_, exp)| exp > self.now)
            .count()
    }

    /// Cross-validates a freshly decoded graph. The checksum only proves
    /// the file round-tripped the *bytes*; it does not prove the structures
    /// agree with each other, and future mutation code (eviction,
    /// compaction) indexes and decrements based on exactly these
    /// invariants. Any disagreement is a typed error here, not a panic
    /// later.
    fn validate(&self) -> codec::Result<()> {
        let (now, out, inc) = (self.now, &self.out, &self.inc);
        let bound = out.pool.node_bound();
        if bound != inc.pool.node_bound() || bound != self.degree.len() {
            return Err(codec::CodecError::Invalid(
                "TdnGraph per-node vectors disagree on node bound",
            ));
        }
        if !self.dirty_enabled && !self.dirty.is_empty() {
            return Err(codec::CodecError::Invalid(
                "TdnGraph dirty set present with tracking disabled",
            ));
        }
        if self
            .buckets
            .first_key_value()
            .is_some_and(|(&exp, _)| exp <= now)
        {
            return Err(codec::CodecError::Invalid(
                "TdnGraph expiry bucket at or before the snapshot clock",
            ));
        }
        let mut live_out = vec![0u32; bound];
        let mut live_in = vec![0u32; bound];
        let mut live_pairs: FxHashMap<u64, u32> = FxHashMap::default();
        // `(packed pair, expiry)` multiset of finite-expiry live entries;
        // buckets must consume it exactly.
        let mut expiring: FxHashMap<(u64, Time), i64> = FxHashMap::default();
        let mut recount = 0u64;
        #[allow(clippy::needless_range_loop)]
        for u in 0..bound {
            let mut dead_recount = 0u32;
            for &(v, exp) in out.pool.as_slice(u) {
                if v.index() >= bound {
                    return Err(codec::CodecError::Invalid(
                        "TdnGraph adjacency target outside node bound",
                    ));
                }
                if exp > now {
                    recount += 1;
                    live_out[u] += 1;
                    live_in[v.index()] += 1;
                    let key = pack_pair(NodeId(u as u32), v);
                    *live_pairs.entry(key).or_insert(0) += 1;
                    if exp != Time::MAX {
                        *expiring.entry((key, exp)).or_insert(0) += 1;
                    }
                } else {
                    dead_recount += 1;
                }
            }
            if dead_recount != out.dead[u] {
                return Err(codec::CodecError::Invalid(
                    "TdnGraph dead counter disagrees with entry recount",
                ));
            }
        }
        if recount != self.live_edges {
            return Err(codec::CodecError::Invalid(
                "TdnGraph live edge count disagrees with adjacency recount",
            ));
        }
        // Reverse adjacency: same multiset of live edges, transposed, with
        // an exact per-list dead count too.
        {
            let mut rev_pairs: FxHashMap<u64, u32> = FxHashMap::default();
            for v in 0..bound {
                let mut dead_recount = 0u32;
                for &(u, exp) in inc.pool.as_slice(v) {
                    if u.index() >= bound {
                        return Err(codec::CodecError::Invalid(
                            "TdnGraph reverse adjacency source outside node bound",
                        ));
                    }
                    if exp > now {
                        *rev_pairs.entry(pack_pair(u, NodeId(v as u32))).or_insert(0) += 1;
                    } else {
                        dead_recount += 1;
                    }
                }
                if dead_recount != inc.dead[v] {
                    return Err(codec::CodecError::Invalid(
                        "TdnGraph reverse dead counter disagrees with entry recount",
                    ));
                }
            }
            if rev_pairs != live_pairs {
                return Err(codec::CodecError::Invalid(
                    "TdnGraph reverse adjacency is not the transpose of forward",
                ));
            }
        }
        // Pair multiplicities must match the live recount exactly.
        if self.pair_count != live_pairs {
            return Err(codec::CodecError::Invalid(
                "TdnGraph pair multiplicities disagree with adjacency",
            ));
        }
        // Degrees drive node eviction (`*d -= 1`); they must equal the live
        // in+out instance counts, and the live-node set must be exactly the
        // nodes with positive degree.
        for i in 0..bound {
            let expect = live_out[i] + live_in[i];
            if self.degree[i] != expect {
                return Err(codec::CodecError::Invalid(
                    "TdnGraph degree vector disagrees with adjacency recount",
                ));
            }
            if (expect > 0) != self.live_nodes.contains(NodeId(i as u32)) {
                return Err(codec::CodecError::Invalid(
                    "TdnGraph live-node set disagrees with degrees",
                ));
            }
        }
        if self.live_nodes.len() > bound {
            return Err(codec::CodecError::Invalid(
                "TdnGraph live-node set exceeds node bound",
            ));
        }
        // Buckets must consume the finite-expiry live entries exactly:
        // eviction pops buckets and decrements per-edge bookkeeping, so a
        // surplus or deficit would underflow counts at some future step.
        for (&exp, edges) in &self.buckets {
            for &(u, v) in edges {
                if u.index() >= bound || v.index() >= bound {
                    return Err(codec::CodecError::Invalid(
                        "TdnGraph bucket edge outside node bound",
                    ));
                }
                match expiring.get_mut(&(pack_pair(u, v), exp)) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => {
                        return Err(codec::CodecError::Invalid(
                            "TdnGraph bucket edge without a matching live entry",
                        ))
                    }
                }
            }
        }
        if expiring.values().any(|&c| c != 0) {
            return Err(codec::CodecError::Invalid(
                "TdnGraph finite-lifetime entry missing from its expiry bucket",
            ));
        }
        Ok(())
    }

    /// Serializes the live graph as named sections under `prefix`.
    ///
    /// Everything order-sensitive is written **verbatim**: adjacency entry
    /// order drives BFS traversal order, expiry-bucket vector order drives
    /// [`Self::edges_with_remaining_in`] (HISTAPPROX's backfill feed), and
    /// the live-node set's position order drives index-based sampling.
    /// Lazy-compaction `dead` counters are stored too, so compaction fires
    /// at the same future steps as in an uninterrupted run. Layout:
    ///
    /// - `{prefix}core`: clock, degrees, pair multiplicities (canonical
    ///   sorted runs), live-node slab, edge count, dirty state (so churn a
    ///   consumer has not drained survives a warm restart), and the
    ///   directory of live bucket ranges.
    /// - `{prefix}adj.{out,inc}.<c>`: adjacency chunk `c` of each side
    ///   ([`crate::arena::SNAPSHOT_CHUNK`] lists).
    /// - `{prefix}buckets.<r>`: expiry buckets of coarse range `r`.
    ///
    /// A chunk or range whose bytes did not change since the parent save
    /// becomes a ref.
    pub fn write_sections(&self, sink: &mut codec::SectionSink, prefix: &str) {
        let bound = self.out.pool.node_bound();
        let mut w = codec::Writer::new();
        w.put_u64(self.now);
        w.put_len(bound);
        w.put_u32_run(&self.degree);
        // Canonical (sorted) order: the map is only ever queried by key.
        let mut pairs: Vec<(u64, u32)> = self.pair_count.iter().map(|(&k, &c)| (k, c)).collect();
        pairs.sort_unstable();
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let counts: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();
        w.put_u64_run(&keys);
        w.put_u32_run(&counts);
        self.live_nodes.write_snapshot(&mut w);
        w.put_u64(self.live_edges);
        w.put_bool(self.dirty_enabled);
        self.dirty.write_snapshot(&mut w);
        let mut ranges: Vec<u64> = Vec::new();
        for &exp in self.buckets.keys() {
            let rk = exp >> BUCKET_RANGE_SHIFT;
            if ranges.last() != Some(&rk) {
                ranges.push(rk);
            }
        }
        w.put_u64_run(&ranges);
        sink.put(&format!("{prefix}core"), w.into_vec());
        for c in 0..bound.div_ceil(crate::arena::SNAPSHOT_CHUNK) {
            for (side, dir) in [(&self.out, "out"), (&self.inc, "inc")] {
                let mut w = codec::Writer::new();
                side.write_chunk(c, &mut w);
                sink.put(&format!("{prefix}adj.{dir}.{c}"), w.into_vec());
            }
        }
        for &rk in &ranges {
            sink.put(
                &format!("{prefix}buckets.{rk}"),
                self.write_bucket_range(rk),
            );
        }
    }

    /// Serializes one coarse expiry range as four raw runs: bucket keys,
    /// per-bucket edge counts, then sources and targets concatenated in
    /// bucket order (the order [`Self::edges_with_remaining_in`] replays).
    fn write_bucket_range(&self, rk: u64) -> Vec<u8> {
        let mut exps: Vec<u64> = Vec::new();
        let mut lens: Vec<u32> = Vec::new();
        let mut us: Vec<u32> = Vec::new();
        let mut vs: Vec<u32> = Vec::new();
        for (&exp, edges) in self.buckets.range(rk << BUCKET_RANGE_SHIFT..) {
            if exp >> BUCKET_RANGE_SHIFT != rk {
                break;
            }
            exps.push(exp);
            lens.push(edges.len() as u32);
            for &(u, v) in edges {
                us.push(u.0);
                vs.push(v.0);
            }
        }
        let mut w = codec::Writer::new();
        w.put_u64_run(&exps);
        w.put_u32_run(&lens);
        w.put_u32_run(&us);
        w.put_u32_run(&vs);
        w.into_vec()
    }

    /// Reconstructs a graph from the sections [`Self::write_sections`]
    /// emitted under `prefix`, validating the redundant bookkeeping
    /// (live-edge recount, dead counters, degrees, bucket membership) so a
    /// corrupted snapshot surfaces as a typed error.
    pub fn read_sections(
        map: &codec::SectionMap,
        prefix: &str,
    ) -> Result<Self, codec::SectionError> {
        let invalid =
            |msg: &'static str| codec::SectionError::Codec(codec::CodecError::Invalid(msg));
        let mut r = map.reader(&format!("{prefix}core"))?;
        let now = r.get_u64()?;
        let bound = r.get_len(4)?;
        let degree = r.get_u32_run()?;
        if degree.len() != bound {
            return Err(invalid("TdnGraph degree run disagrees with node bound"));
        }
        let keys = r.get_u64_run()?;
        let counts = r.get_u32_run()?;
        if keys.len() != counts.len() {
            return Err(invalid("TdnGraph pair runs disagree in length"));
        }
        let mut pair_count = FxHashMap::default();
        for (i, (&k, &c)) in keys.iter().zip(&counts).enumerate() {
            if (i > 0 && keys[i - 1] >= k) || c == 0 {
                return Err(invalid(
                    "TdnGraph pair multiplicities out of order, duplicated, or zero",
                ));
            }
            pair_count.insert(k, c);
        }
        let live_nodes = IndexedSet::read_snapshot(&mut r)?;
        let live_edges = r.get_u64()?;
        let dirty_enabled = r.get_bool()?;
        let dirty = EpochSet::read_snapshot(&mut r, bound)?;
        let ranges = r.get_u64_run()?;
        r.finish()?;
        let mut out = AdjSide::default();
        let mut inc = AdjSide::default();
        out.ensure_node_bound(bound);
        inc.ensure_node_bound(bound);
        for c in 0..bound.div_ceil(crate::arena::SNAPSHOT_CHUNK) {
            let lists =
                (bound - c * crate::arena::SNAPSHOT_CHUNK).min(crate::arena::SNAPSHOT_CHUNK);
            for (side, dir) in [(&mut out, "out"), (&mut inc, "inc")] {
                let mut r = map.reader(&format!("{prefix}adj.{dir}.{c}"))?;
                side.read_chunk(c, lists, &mut r)?;
                r.finish()?;
            }
        }
        let mut buckets: BTreeMap<Time, Vec<(NodeId, NodeId)>> = BTreeMap::new();
        for (i, &rk) in ranges.iter().enumerate() {
            if i > 0 && ranges[i - 1] >= rk {
                return Err(invalid("TdnGraph bucket ranges out of order"));
            }
            let mut r = map.reader(&format!("{prefix}buckets.{rk}"))?;
            let exps = r.get_u64_run()?;
            let lens = r.get_u32_run()?;
            let us = r.get_u32_run()?;
            let vs = r.get_u32_run()?;
            r.finish()?;
            let total: usize = lens.iter().map(|&l| l as usize).sum();
            if exps.len() != lens.len() || us.len() != vs.len() || total != us.len() {
                return Err(invalid("TdnGraph bucket range runs disagree"));
            }
            let mut off = 0usize;
            for (j, (&exp, &len)) in exps.iter().zip(&lens).enumerate() {
                if exp >> BUCKET_RANGE_SHIFT != rk || (j > 0 && exps[j - 1] >= exp) || len == 0 {
                    return Err(invalid(
                        "TdnGraph bucket outside its range, out of order, or empty",
                    ));
                }
                let edges: Vec<(NodeId, NodeId)> = us[off..off + len as usize]
                    .iter()
                    .zip(&vs[off..off + len as usize])
                    .map(|(&u, &v)| (NodeId(u), NodeId(v)))
                    .collect();
                buckets.insert(exp, edges);
                off += len as usize;
            }
        }
        let g = TdnGraph {
            now,
            out,
            inc,
            degree,
            buckets,
            pair_count,
            live_nodes,
            live_edges,
            dirty,
            dirty_enabled,
            touched: EpochSet::new(),
        };
        g.validate()?;
        Ok(g)
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        let buckets: usize = self
            .buckets
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<(NodeId, NodeId)>() + 48)
            .sum();
        self.out.approx_bytes()
            + self.inc.approx_bytes()
            + buckets
            + self.pair_count.capacity() * 12
            + self.degree.capacity() * 4
            + self.dirty.approx_bytes()
            + self.touched.approx_bytes()
    }

    /// Releases recycled adjacency-arena tail blocks back to the allocator
    /// — the memory-budget shedding hook. Pure layout change (snapshots
    /// and traversal order are unaffected); returns approximate bytes
    /// released.
    pub fn release_recycled_memory(&mut self) -> usize {
        self.out.pool.release_free_tail() + self.inc.pool.release_free_tail()
    }

    /// Combined adjacency-arena occupancy: `(buffer_slots,
    /// recycled_blocks)` summed over both directions — the block-reuse
    /// observable for expiry-storm tests.
    #[doc(hidden)]
    pub fn arena_stats(&self) -> (usize, usize) {
        let (ob, of) = self.out.pool.arena_stats();
        let (ib, inf) = self.inc.pool.arena_stats();
        (ob + ib, of + inf)
    }

    /// Debug-only check that bookkeeping matches a from-scratch recount
    /// (the same cross-validation a restore runs).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("TdnGraph bookkeeping drifted: {e}");
        }
    }
}

impl std::fmt::Debug for TdnGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdnGraph")
            .field("now", &self.now)
            .field("nodes", &self.live_nodes.len())
            .field("edges", &self.live_edges)
            .finish()
    }
}

impl Graph for TdnGraph {
    #[inline]
    fn for_each_out(&self, u: NodeId, mut f: impl FnMut(NodeId)) {
        for &(v, exp) in self.out.pool.as_slice(u.index()) {
            if exp > self.now {
                f(v);
            }
        }
    }

    #[inline]
    fn for_each_in(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        for &(u, exp) in self.inc.pool.as_slice(v.index()) {
            if exp > self.now {
                f(u);
            }
        }
    }

    #[inline]
    fn node_index_bound(&self) -> usize {
        self.out.pool.node_bound()
    }

    #[inline]
    fn contains_node(&self, u: NodeId) -> bool {
        self.live_nodes.contains(u)
    }

    #[inline]
    fn live_node_count(&self) -> usize {
        self.live_nodes.len()
    }

    #[inline]
    fn prefetch_out(&self, u: NodeId) {
        self.out.pool.prefetch(u.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::{reach_count, ReachScratch};

    #[test]
    fn edges_expire_on_schedule() {
        let mut g = TdnGraph::new();
        g.advance_to(1);
        g.add_edge(NodeId(0), NodeId(1), 1); // gone at t=2
        g.add_edge(NodeId(0), NodeId(2), 3); // gone at t=4
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 3);
        g.advance_to(2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2); // node 1 evicted with its only edge
        g.advance_to(3);
        assert_eq!(g.edge_count(), 1);
        g.advance_to(4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 0);
        g.check_invariants();
    }

    #[test]
    fn fig2_example_lifetimes() {
        // The paper's Fig. 2: six edges at time t with lifetimes
        // 1,1,2,3,1,1 — at t+1 only e3 (lifetime 2) and e4 (lifetime 3)
        // survive among them.
        let mut g = TdnGraph::new();
        let t = 10;
        g.advance_to(t);
        let (u1, u2, u3, u4, u5, u6, u7) = (
            NodeId(1),
            NodeId(2),
            NodeId(3),
            NodeId(4),
            NodeId(5),
            NodeId(6),
            NodeId(7),
        );
        g.add_edge(u1, u2, 1);
        g.add_edge(u1, u3, 1);
        g.add_edge(u1, u4, 2);
        g.add_edge(u5, u3, 3);
        g.add_edge(u6, u4, 1);
        g.add_edge(u6, u7, 1);
        assert_eq!(g.edge_count(), 6);
        g.advance_to(t + 1);
        g.add_edge(u5, u2, 1);
        g.add_edge(u7, u4, 2);
        g.add_edge(u7, u6, 3);
        assert_eq!(g.edge_count(), 5); // e3, e4 survive + three new
        assert_eq!(g.multiplicity(u1, u4), 1);
        assert_eq!(g.multiplicity(u1, u2), 0);
        g.check_invariants();
    }

    #[test]
    fn multiplicity_tracks_parallel_edges() {
        let mut g = TdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1), 2);
        g.add_edge(NodeId(0), NodeId(1), 5);
        assert_eq!(g.multiplicity(NodeId(0), NodeId(1)), 2);
        g.advance_to(2);
        assert_eq!(g.multiplicity(NodeId(0), NodeId(1)), 1);
        g.advance_to(5);
        assert_eq!(g.multiplicity(NodeId(0), NodeId(1)), 0);
    }

    #[test]
    fn bfs_skips_expired_entries() {
        let mut g = TdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 10);
        let mut s = ReachScratch::new();
        assert_eq!(reach_count(&g, NodeId(0), &mut s), 3);
        g.advance_to(1);
        // 0 -> 1 expired; 0 is no longer live but BFS from it sees only itself.
        assert_eq!(reach_count(&g, NodeId(0), &mut s), 1);
        assert_eq!(reach_count(&g, NodeId(1), &mut s), 2);
    }

    #[test]
    fn remaining_lifetime_range_query() {
        let mut g = TdnGraph::new();
        g.advance_to(5);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(2), 2);
        g.add_edge(NodeId(0), NodeId(3), 4);
        let in_range: Vec<_> = g.edges_with_remaining_in(2, 4).map(|e| e.dst).collect();
        assert_eq!(in_range, vec![NodeId(2)]);
        let all: Vec<_> = g.live_edges_iter().collect();
        assert_eq!(all.len(), 3);
        // After one step, remaining lifetimes shrink by one.
        g.advance_to(6);
        let in_range: Vec<_> = g.edges_with_remaining_in(1, 2).map(|e| e.dst).collect();
        assert_eq!(in_range, vec![NodeId(2)]);
    }

    #[test]
    fn infinite_lifetime_edges_never_expire() {
        let mut g = TdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1), Lifetime::MAX);
        g.advance_to(1_000_000);
        assert_eq!(g.edge_count(), 1);
        assert!(g.contains_node(NodeId(0)));
    }

    #[test]
    fn compaction_keeps_adjacency_correct() {
        let mut g = TdnGraph::new();
        // Many short-lived edges from node 0, plus one long-lived one.
        for i in 1..=100u32 {
            g.add_edge(NodeId(0), NodeId(i), 1);
        }
        g.add_edge(NodeId(0), NodeId(200), 1000);
        g.advance_to(1);
        let mut out = Vec::new();
        g.for_each_out(NodeId(0), |v| out.push(v));
        assert_eq!(out, vec![NodeId(200)]);
        assert_eq!(g.edge_count(), 1);
        g.check_invariants();
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn clock_cannot_rewind() {
        let mut g = TdnGraph::new();
        g.advance_to(5);
        g.advance_to(4);
    }

    /// Saves `g` as a lone base container and restores it.
    fn round_trip(g: &TdnGraph) -> Result<TdnGraph, codec::SectionError> {
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        g.write_sections(&mut sink, "g.");
        let (blob, _) = sink.finish();
        TdnGraph::read_sections(&codec::SectionMap::from_single(&blob)?, "g.")
    }

    #[test]
    fn snapshot_round_trip_preserves_future_evolution() {
        // Build a graph with pending expirations, partially-dead adjacency
        // (pre-compaction), multi-edges, a non-trivial live-node order, and
        // an undrained dirty set (tracking on).
        let mut g = TdnGraph::new();
        g.set_dirty_tracking(true);
        for i in 1..=10u32 {
            g.add_edge(NodeId(0), NodeId(i), i);
        }
        g.add_edge(NodeId(0), NodeId(3), 9); // multi-edge
        g.add_edge(NodeId(7), NodeId(0), 20);
        g.advance_to(4); // some entries dead, compaction threshold not hit everywhere
        let mut h = round_trip(&g).expect("round trip");
        h.check_invariants();
        assert!(h.dirty_tracking(), "tracking flag must survive");
        assert_eq!(g.now(), h.now());
        assert_eq!(g.edge_count(), h.edge_count());
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(
            g.live_nodes().as_slice(),
            h.live_nodes().as_slice(),
            "live-node position order must survive verbatim"
        );
        let range = |g: &TdnGraph| -> Vec<LiveEdge> { g.edges_with_remaining_in(1, 30).collect() };
        assert_eq!(range(&g), range(&h), "bucket iteration order must match");
        assert_eq!(
            g.dirty_nodes(),
            h.dirty_nodes(),
            "undrained dirty set must survive the round trip verbatim"
        );
        // Evolve both identically: expiry, compaction, and new arrivals
        // must behave the same on the restored copy.
        for t in [6u64, 9, 12] {
            g.advance_to(t);
            h.advance_to(t);
            g.add_edge(NodeId(5), NodeId(t as u32), 3);
            h.add_edge(NodeId(5), NodeId(t as u32), 3);
            assert_eq!(g.edge_count(), h.edge_count(), "t={t}");
            assert_eq!(g.live_nodes().as_slice(), h.live_nodes().as_slice());
            assert_eq!(range(&g), range(&h), "t={t}");
            assert_eq!(g.take_dirty(), h.take_dirty(), "t={t}");
            h.check_invariants();
        }
    }

    #[test]
    fn snapshot_rejects_drifted_bookkeeping() {
        decode_single_edge(|_| {}).expect("valid hand encoding");
        // An inflated live-edge count fails the adjacency recount.
        assert!(decode_single_edge(|p| p.live_edges = 7).is_err());
        // A dead counter beyond the list length, or disagreeing with the
        // entries' expiries, would make a later compaction misfire.
        assert!(decode_single_edge(|p| p.out_dead = 2).is_err());
        assert!(decode_single_edge(|p| p.out_dead = 1).is_err());
        // Every truncation of a real graph's sections is an error too.
        let mut g = TdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1), 5);
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        g.write_sections(&mut sink, "g.");
        let (blob, _) = sink.finish();
        let map = codec::SectionMap::from_single(&blob).unwrap();
        for name in ["g.core", "g.adj.out.0", "g.adj.inc.0", "g.buckets.0"] {
            let full = map.payload(name).unwrap();
            for cut in 0..full.len() {
                let mut w = codec::SectionWriter::new();
                for other in ["g.core", "g.adj.out.0", "g.adj.inc.0", "g.buckets.0"] {
                    let bytes = map.payload(other).unwrap();
                    let bytes = if other == name { &bytes[..cut] } else { bytes };
                    w.put_section(other, bytes.to_vec());
                }
                let blob = w.finish();
                let map = codec::SectionMap::from_single(&blob).unwrap();
                assert!(
                    TdnGraph::read_sections(&map, "g.").is_err(),
                    "{name} cut to {cut} bytes decoded"
                );
            }
        }
    }

    /// Hand-encodes the sections of a single-edge graph (0 → 1, expiry 5,
    /// now 0) with fields altered by `tweak`, exercising the
    /// cross-validation: a checksum cannot catch internally
    /// *consistent-looking* but mutually disagreeing structures, so the
    /// decoder must.
    fn decode_single_edge(tweak: impl Fn(&mut SingleEdgeParts)) -> Result<(), codec::SectionError> {
        let mut p = SingleEdgeParts {
            out_target: 1,
            out_dead: 0,
            inc_source: 0,
            degree: [1, 1],
            bucket_edge: (0, 1),
            bucket_exp: 5,
            pair_key: pack_pair(NodeId(0), NodeId(1)),
            live_nodes: vec![0, 1],
            live_edges: 1,
            dirty_enabled: true,
            dirty: vec![0, 1],
        };
        tweak(&mut p);
        let rk = p.bucket_exp >> BUCKET_RANGE_SHIFT;
        let mut sections = codec::SectionWriter::new();
        let mut w = codec::Writer::new();
        w.put_u64(0); // now
        w.put_len(2); // node bound
        w.put_u32_run(&p.degree);
        w.put_u64_run(&[p.pair_key]);
        w.put_u32_run(&[1]);
        w.put_u32_run(&p.live_nodes);
        w.put_u64(p.live_edges);
        w.put_bool(p.dirty_enabled);
        w.put_u32_run(&p.dirty);
        w.put_u64_run(&[rk]);
        sections.put_section("g.core", w.into_vec());
        for (name, lens, dead, target) in [
            ("g.adj.out.0", [1, 0], [p.out_dead, 0], p.out_target),
            ("g.adj.inc.0", [0, 1], [0, 0], p.inc_source),
        ] {
            let mut w = codec::Writer::new();
            w.put_u32_run(&lens);
            w.put_u32_run(&dead);
            w.put_u32_run(&[target]);
            w.put_u64_run(&[5]);
            sections.put_section(name, w.into_vec());
        }
        let mut w = codec::Writer::new();
        w.put_u64_run(&[p.bucket_exp]);
        w.put_u32_run(&[1]);
        w.put_u32_run(&[p.bucket_edge.0]);
        w.put_u32_run(&[p.bucket_edge.1]);
        sections.put_section(&format!("g.buckets.{rk}"), w.into_vec());
        let blob = sections.finish();
        let map = codec::SectionMap::from_single(&blob)?;
        TdnGraph::read_sections(&map, "g.").map(|_| ())
    }

    struct SingleEdgeParts {
        out_target: u32,
        out_dead: u32,
        inc_source: u32,
        degree: [u32; 2],
        bucket_edge: (u32, u32),
        bucket_exp: Time,
        pair_key: u64,
        live_nodes: Vec<u32>,
        live_edges: u64,
        dirty_enabled: bool,
        dirty: Vec<u32>,
    }

    #[test]
    fn snapshot_cross_validates_every_structure() {
        // The untampered encoding decodes (sanity-check the harness)...
        decode_single_edge(|_| {}).expect("valid hand encoding");
        // ...and each single-field corruption is a typed error — these are
        // exactly the shapes that would index out of bounds or underflow
        // counters at a later `advance_to`/`evict` if admitted.
        assert!(decode_single_edge(|p| p.bucket_edge = (99, 1)).is_err());
        assert!(decode_single_edge(|p| p.bucket_edge = (1, 0)).is_err());
        assert!(decode_single_edge(|p| p.bucket_exp = 7).is_err());
        assert!(decode_single_edge(|p| p.bucket_exp = 0).is_err());
        assert!(decode_single_edge(|p| p.out_target = 99).is_err());
        assert!(decode_single_edge(|p| p.inc_source = 99).is_err());
        assert!(decode_single_edge(|p| p.inc_source = 1).is_err());
        assert!(decode_single_edge(|p| p.degree = [2, 1]).is_err());
        assert!(decode_single_edge(|p| p.degree = [0, 1]).is_err());
        assert!(decode_single_edge(|p| p.pair_key = pack_pair(NodeId(1), NodeId(0))).is_err());
        assert!(decode_single_edge(|p| p.live_nodes = vec![0]).is_err());
        assert!(decode_single_edge(|p| p.live_nodes = vec![0, 1, 5]).is_err());
        assert!(decode_single_edge(|p| p.live_nodes = vec![0, 0]).is_err());
        // Dirty-set corruption: out-of-bound or duplicated members, or
        // marks present while tracking claims to be off.
        assert!(decode_single_edge(|p| p.dirty = vec![0, 9]).is_err());
        assert!(decode_single_edge(|p| p.dirty = vec![1, 1]).is_err());
        assert!(decode_single_edge(|p| p.dirty_enabled = false).is_err());
        // An empty or reordered dirty set is legal (it is consumer state).
        decode_single_edge(|p| p.dirty = vec![]).expect("empty dirty set is valid");
        decode_single_edge(|p| p.dirty = vec![1, 0]).expect("order is free");
        decode_single_edge(|p| {
            p.dirty_enabled = false;
            p.dirty = vec![];
        })
        .expect("tracking off with no marks is the default shape");
    }

    #[test]
    fn dirty_tracking_is_opt_in() {
        // Off by default: no consumer, no accumulation, no snapshot bytes.
        let mut g = TdnGraph::new();
        assert!(!g.dirty_tracking());
        g.add_edge(NodeId(9), NodeId(8), 1);
        assert!(g.dirty_nodes().is_empty(), "untracked inserts mark nothing");
        g.advance_to(1);
        assert!(g.dirty_nodes().is_empty(), "untracked expiry marks nothing");
        // Disabling forgets accumulated marks.
        g.set_dirty_tracking(true);
        g.add_edge(NodeId(1), NodeId(2), 5);
        assert_eq!(g.dirty_nodes().len(), 2);
        g.set_dirty_tracking(false);
        assert!(g.dirty_nodes().is_empty());
    }

    #[test]
    fn dirty_set_tracks_insert_expiry_and_reactivation() {
        let mut g = TdnGraph::new();
        g.set_dirty_tracking(true);
        g.add_edge(NodeId(0), NodeId(1), 2);
        g.add_edge(NodeId(2), NodeId(3), 9);
        assert_eq!(
            g.take_dirty(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            "insertions mark endpoints in first-change order"
        );
        assert!(g.dirty_nodes().is_empty(), "take_dirty drains");
        // Nothing changed: advancing without expiries marks nothing.
        g.advance_to(1);
        assert!(g.dirty_nodes().is_empty());
        // Expiry of (0,1) marks both endpoints again.
        g.advance_to(2);
        assert_eq!(g.take_dirty(), vec![NodeId(0), NodeId(1)]);
        // Re-activation: node 1 died above and returns via a new edge.
        assert_eq!(g.node_count(), 2);
        g.add_edge(NodeId(1), NodeId(3), 4);
        assert_eq!(g.take_dirty(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(g.node_count(), 3);
        g.check_invariants();
    }

    #[test]
    fn same_bucket_expiry_storm_marks_each_node_once() {
        // 100 edges out of node 0 all dying at the same tick: one sweep,
        // node 0 dirty once, every target dirty once.
        let mut g = TdnGraph::new();
        g.set_dirty_tracking(true);
        for i in 1..=100u32 {
            g.add_edge(NodeId(0), NodeId(i), 1);
        }
        g.take_dirty();
        g.advance_to(1);
        let dirty = g.take_dirty();
        assert_eq!(dirty.len(), 101);
        assert_eq!(dirty[0], NodeId(0));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 0);
        g.check_invariants();
    }

    #[test]
    fn sectioned_snapshot_round_trip_matches_element_wise() {
        // Pending expirations, partially-dead lists, multi-edges, an
        // undrained dirty set, and an edge in a far bucket range: the
        // restored graph must match the live one and evolve identically.
        let mut g = TdnGraph::new();
        g.set_dirty_tracking(true);
        for i in 1..=10u32 {
            g.add_edge(NodeId(0), NodeId(i), i);
        }
        g.add_edge(NodeId(0), NodeId(3), 9);
        g.add_edge(NodeId(7), NodeId(0), 20);
        g.add_edge(NodeId(2), NodeId(9), 500);
        g.advance_to(4);
        let mut h = round_trip(&g).expect("sectioned restore");
        h.check_invariants();
        assert!(h.dirty_tracking());
        assert_eq!(g.dirty_nodes(), h.dirty_nodes());
        let range = |g: &TdnGraph| -> Vec<LiveEdge> { g.edges_with_remaining_in(1, 600).collect() };
        assert_eq!(range(&g), range(&h));
        for t in [6u64, 9, 12] {
            g.advance_to(t);
            h.advance_to(t);
            g.add_edge(NodeId(5), NodeId(t as u32), 3);
            h.add_edge(NodeId(5), NodeId(t as u32), 3);
            assert_eq!(g.edge_count(), h.edge_count(), "t={t}");
            assert_eq!(g.live_nodes().as_slice(), h.live_nodes().as_slice());
            assert_eq!(range(&g), range(&h), "t={t}");
            assert_eq!(g.take_dirty(), h.take_dirty(), "t={t}");
            h.check_invariants();
        }
    }

    #[test]
    fn sectioned_delta_skips_stable_chunks_and_ranges() {
        let mut g = TdnGraph::new();
        // Chunk 0 and chunk 1 both populated; one far-future bucket range.
        g.add_edge(NodeId(0), NodeId(1), 10);
        g.add_edge(
            NodeId(crate::arena::SNAPSHOT_CHUNK as u32 + 3),
            NodeId(2),
            (1u32 << BUCKET_RANGE_SHIFT) * 4,
        );
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        g.write_sections(&mut sink, "g.");
        let (base, parent) = sink.finish();
        // Mutate only chunk 0 and a near bucket range.
        g.advance_to(1);
        g.add_edge(NodeId(0), NodeId(3), 5);
        let mut sink = codec::SectionSink::new(parent);
        g.write_sections(&mut sink, "g.");
        let (fresh, refs) = sink.counts();
        assert!(
            refs >= 3,
            "chunk-1 sides and the far range must ref (got {refs})"
        );
        assert!(fresh >= 2, "core and chunk 0 must be fresh (got {fresh})");
        let (delta, _) = sink.finish();
        assert!(delta.len() < base.len());
        // The chain restores to a graph identical to a direct restore.
        let map = codec::SectionMap::resolve(&[&delta, &base]).expect("chain");
        let h = TdnGraph::read_sections(&map, "g.").expect("chain restore");
        h.check_invariants();
        assert_eq!(g.edge_count(), h.edge_count());
        assert_eq!(g.live_nodes().as_slice(), h.live_nodes().as_slice());
        let range = |g: &TdnGraph| -> Vec<LiveEdge> {
            g.edges_with_remaining_in(1, Lifetime::MAX).collect()
        };
        assert_eq!(range(&g), range(&h));
        // A lone delta cannot restore (dangling refs are typed errors).
        let lone = codec::SectionMap::from_single(&delta);
        assert!(matches!(lone, Err(codec::SectionError::Unresolved { .. })));
    }

    #[test]
    fn in_neighbors_distinct_counts_live_multiplicity() {
        let mut g = TdnGraph::new();
        g.add_edge(NodeId(1), NodeId(0), 10);
        g.add_edge(NodeId(1), NodeId(0), 1);
        g.add_edge(NodeId(2), NodeId(0), 10);
        let inn = g.in_neighbors_distinct(NodeId(0));
        assert_eq!(inn, vec![(NodeId(1), 2), (NodeId(2), 1)]);
        g.advance_to(1);
        let inn = g.in_neighbors_distinct(NodeId(0));
        assert_eq!(inn, vec![(NodeId(1), 1), (NodeId(2), 1)]);
    }
}
