//! Reachability primitives: forward/reverse BFS with reusable scratch and
//! cover-aware marginal-gain evaluation.
//!
//! The influence spread of Definition 3 is a *coverage* function: for a seed
//! set `S`, `f(S) = |reach(S)|` where `reach` is the forward reachability
//! closure (a node reaches itself). Every sieve threshold maintains its
//! cover `R = reach(S_θ)` as an explicit set, which yields two key
//! properties exploited here:
//!
//! * covers are **closed**: if `x ∈ R` then `reach(x) ⊆ R`, so a marginal
//!   BFS may prune at covered nodes;
//! * the marginal gain `f(S ∪ {v}) − f(S) = |reach(v) \ R|` is computable
//!   with a single pruned BFS.
//!
//! Every traversal runs on one of two private kernels, both generic over
//! an edge orientation (`Forward` walks out-edges, `Reverse` in-edges):
//! the scalar `bfs`, which answers one question per traversal (a spread, a
//! marginal gain, an ancestor list), and the bit-parallel `label_sweep`,
//! which answers up to [`MAX_BATCH_LANES`] lanes at once. Only the
//! budgeted probe [`reverse_reachable_within`] keeps a loop of its own.

use crate::bitset::NodeBitSet;
use crate::epoch::EpochSet;
use crate::node::NodeId;
use crate::traits::Graph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Reusable BFS scratch: an epoch-stamped visited array and a queue, plus
/// the label words and touch list of the bit-parallel traversals.
///
/// Epoch stamping makes `clear` O(1): bumping the epoch invalidates all
/// previous marks without touching memory.
#[derive(Default)]
pub struct ReachScratch {
    visited: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
    /// Per-node lane masks for the bit-parallel traversals, stored as `W`
    /// consecutive words per node (`W` = the traversal's lane width in
    /// words); a node's words are live only while its `visited` stamp
    /// matches the current epoch.
    labels: Vec<u64>,
    /// In-worklist stamps for the bit-parallel traversals (`0` = not
    /// queued; any other value is compared against `epoch2`).
    stamp2: Vec<u32>,
    epoch2: u32,
    /// First-touch order of the current bit-parallel traversal.
    touched: Vec<NodeId>,
    /// Worklist pushes of the current bit-parallel traversal.
    batch_pushes: u64,
    /// Drain compactions of the current bit-parallel traversal.
    drain_compactions: u64,
    /// Entries memmoved by drain compactions of the current traversal.
    drain_moved: u64,
    /// Bottom-up scan rounds of the current bit-parallel traversal.
    bottom_up_rounds: u64,
}

impl Clone for ReachScratch {
    /// Scratch holds no logical state; clones start fresh.
    fn clone(&self) -> Self {
        ReachScratch::default()
    }
}

impl ReachScratch {
    /// Creates empty scratch; buffers grow on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Approximate heap footprint of the scratch buffers in bytes (counted
    /// in memory experiments so per-worker arenas stay visible).
    pub fn approx_bytes(&self) -> usize {
        self.visited.capacity() * std::mem::size_of::<u32>()
            + self.stamp2.capacity() * std::mem::size_of::<u32>()
            + self.labels.capacity() * std::mem::size_of::<u64>()
            + (self.queue.capacity() + self.touched.capacity()) * std::mem::size_of::<NodeId>()
    }

    /// Starts a new traversal, sizing the visited array for `bound` nodes.
    fn begin(&mut self, bound: usize) {
        if self.visited.len() < bound {
            self.visited.resize(bound, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset all stamps so stale marks cannot
            // alias the new epoch.
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Starts a bit-parallel traversal: [`Self::begin`] plus `words` label
    /// words per node and worklist stamps for `bound` nodes. `epoch2` skips
    /// the `0` sentinel, which marks "not currently queued".
    fn begin_batch(&mut self, bound: usize, words: usize) {
        self.begin(bound);
        if self.labels.len() < bound * words {
            self.labels.resize(bound * words, 0);
        }
        if self.stamp2.len() < bound {
            self.stamp2.resize(bound, 0);
        }
        self.epoch2 = self.epoch2.wrapping_add(1);
        if self.epoch2 == 0 {
            self.stamp2.fill(0);
            self.epoch2 = 1;
        }
        self.touched.clear();
        self.batch_pushes = 0;
        self.drain_compactions = 0;
        self.drain_moved = 0;
        self.bottom_up_rounds = 0;
    }

    /// Forces the epoch counters close to their wrap point — test hook for
    /// exercising wrap-around behavior from outside the crate.
    #[doc(hidden)]
    pub fn force_epochs_near_wrap(&mut self) {
        self.epoch = u32::MAX - 1;
        self.epoch2 = u32::MAX - 1;
    }

    /// Worklist tallies of the most recent bit-parallel traversal:
    /// `(pushes, drain compactions, entries moved by compaction)`. The
    /// compaction heuristic is linear by construction — a drain fires only
    /// when the live tail is at most as long as the reclaimed prefix, so
    /// `moved ≤ pushes` over any traversal — and the drain-compaction unit
    /// test pins exactly that bound on adversarial re-entrant growth.
    #[doc(hidden)]
    pub fn drain_stats(&self) -> (u64, u64, u64) {
        (self.batch_pushes, self.drain_compactions, self.drain_moved)
    }

    /// Bottom-up scan rounds the most recent bit-parallel traversal ran
    /// (0 = it stayed top-down throughout).
    #[doc(hidden)]
    pub fn bottom_up_rounds(&self) -> u64 {
        self.bottom_up_rounds
    }
}

/// Number of arena slots per pool; matches the execution engine's worker
/// cap so every concurrent checkout normally finds a free slot.
const POOL_SLOTS: usize = 64;

thread_local! {
    /// Stable per-thread probe offset into the slot array (assigned once
    /// per thread from a process-wide counter), so each worker settles on
    /// its own warm arena instead of all threads racing for slot 0.
    static THREAD_PROBE: usize = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) as usize % POOL_SLOTS
    };
}

/// A pool of thread-confined [`ReachScratch`] arenas for parallel BFS.
///
/// Concurrent workers each check out an exclusive scratch for the duration
/// of one traversal (or a run of traversals), so no `visited` array or
/// queue is ever shared between threads. Buffers return to the pool warm,
/// keeping the epoch-stamping amortization across calls — including the
/// serial path, which simply checks out the same scratch every time.
///
/// A checkout is **one** lock acquisition: each arena sits behind its own
/// slot mutex, the calling thread probes the slot array starting at its
/// stable per-thread offset, and the first successful `try_lock` holds the
/// arena for the duration of `f` (the guard drop is the return — no second
/// acquisition, unlike the previous shared-stack design which locked once
/// to pop and again to push). Arenas are boxed lazily, so an unused pool
/// owns no buffers.
pub struct ScratchPool {
    slots: Box<[Mutex<Option<Box<ReachScratch>>>]>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool {
            slots: (0..POOL_SLOTS).map(|_| Mutex::new(None)).collect(),
        }
    }
}

impl Clone for ScratchPool {
    /// Like [`ReachScratch`], pools hold no logical state; clones start
    /// fresh (used by SIEVEADN instance copies).
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self
            .slots
            .iter()
            .filter(|s| s.lock().is_ok_and(|g| g.is_some()))
            .count();
        write!(f, "ScratchPool {{ arenas: {n} }}")
    }
}

impl ScratchPool {
    /// Creates an empty pool; arenas are created on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a scratch arena, runs `f` with exclusive access, and
    /// returns the arena to the pool when the guard drops (also on panic —
    /// scratch holds no logical state, so a poisoned arena is still fine
    /// to reuse and is simply un-poisoned on the next checkout).
    pub fn with<R>(&self, f: impl FnOnce(&mut ReachScratch) -> R) -> R {
        let start = THREAD_PROBE.with(|p| *p);
        for k in 0..POOL_SLOTS {
            let slot = &self.slots[(start + k) % POOL_SLOTS];
            let mut guard = match slot.try_lock() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => continue,
            };
            return f(guard.get_or_insert_with(Default::default));
        }
        // More concurrent checkouts than slots (only possible with outside
        // threads beyond the engine's cap): run on a cold temporary.
        f(&mut ReachScratch::default())
    }

    /// Approximate heap footprint of all pooled arenas in bytes. Memory
    /// experiments (Figs. 13/14 analogue) add this so per-worker scratch
    /// does not hide from the accounting.
    pub fn approx_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                let guard = match s.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                guard.as_ref().map_or(0, |b| b.approx_bytes())
            })
            .sum()
    }

    /// Drops every pooled arena back to the allocator (the memory-budget
    /// shedding hook). Scratch holds no logical state, so the only cost is
    /// re-warming buffers on the next checkout; results are unaffected.
    /// Returns the approximate bytes released.
    pub fn release_memory(&self) -> usize {
        let mut freed = 0;
        for s in &self.slots {
            let mut guard = match s.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            if let Some(arena) = guard.take() {
                freed += arena.approx_bytes();
            }
        }
        freed
    }
}

/// The set of nodes covered (reached) by a seed set; wraps a dense
/// [`NodeBitSet`] so the closure invariant is documented at the type level.
///
/// Membership is probed on every visited edge of every marginal-gain BFS,
/// so `contains` is one shift and one AND on a word array. Iteration is
/// always ascending (canonical), and a checkpoint stores the word array
/// itself.
#[derive(Default, Clone, Debug)]
pub struct CoverSet {
    bits: NodeBitSet,
}

impl CoverSet {
    /// Creates an empty cover.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of covered nodes, i.e. the coverage value `f(S_θ)`.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the cover is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether `n` is covered.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.bits.contains(n)
    }

    /// Inserts a node into the cover.
    #[inline]
    pub fn insert(&mut self, n: NodeId) -> bool {
        self.bits.insert(n)
    }

    /// Iterates over covered nodes in ascending (canonical) order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits.iter()
    }

    /// Approximate heap footprint in bytes: the dense word array. Honest
    /// for the Figs. 13/14 analogue curves — a cover costs one bit per
    /// node-index slot up to the highest covered index, regardless of how
    /// many nodes are covered.
    pub fn approx_bytes(&self) -> usize {
        self.bits.approx_bytes() + std::mem::size_of::<usize>()
    }

    /// Serializes the cover as one raw `u64` word run straight from the
    /// backing bitset.
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        self.bits.write_snapshot(w);
    }

    /// Reconstructs a cover from [`Self::write_snapshot`] bytes.
    pub fn read_snapshot(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        Ok(CoverSet {
            bits: NodeBitSet::read_snapshot(r)?,
        })
    }
}

impl FromIterator<NodeId> for CoverSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        CoverSet {
            bits: iter.into_iter().collect(),
        }
    }
}

/// Counts `|reach(start)|` — the singleton influence spread `f({start})`.
pub fn reach_count(g: &impl Graph, start: NodeId, scratch: &mut ReachScratch) -> u64 {
    bfs::<Forward, _>(g, &[start], scratch, |_, _| true);
    scratch.queue.len() as u64
}

/// Collects `reach(start)` into `out` (cleared first).
pub fn reach_collect(
    g: &impl Graph,
    start: NodeId,
    scratch: &mut ReachScratch,
    out: &mut Vec<NodeId>,
) {
    reach_count(g, start, scratch);
    out.clear();
    out.extend_from_slice(&scratch.queue);
}

/// Computes the marginal gain `|reach(start) \ cover|`, collecting the newly
/// covered nodes into `gained` (cleared first) so a subsequent commit does
/// not need a second traversal.
///
/// Relies on the closure invariant of [`CoverSet`]: traversal prunes at
/// covered nodes because everything beyond them is already covered.
pub fn marginal_gain(
    g: &impl Graph,
    start: NodeId,
    cover: &CoverSet,
    scratch: &mut ReachScratch,
    gained: &mut Vec<NodeId>,
) -> u64 {
    gained.clear();
    if cover.contains(start) {
        return 0;
    }
    bfs::<Forward, _>(g, &[start], scratch, |_, u| !cover.contains(u));
    gained.extend_from_slice(&scratch.queue);
    gained.len() as u64
}

/// Collects the reverse reachability set of `start` (everything that can
/// reach `start`, including `start` itself) into `out` (cleared first).
///
/// Used for `V̄_t`: after inserting edge `(u, v)`, exactly the ancestors of
/// `u` (in the post-insertion graph) have changed influence spread.
pub fn reverse_reach_collect<G: Graph>(
    g: &G,
    start: NodeId,
    scratch: &mut ReachScratch,
    out: &mut Vec<NodeId>,
) {
    reverse_reach_union_ordered(g, &[start], scratch, out);
}

/// Collects the union of the reverse reachability sets of `sources` into
/// `out` (cleared first), **in the exact order the per-source V̄ merge
/// produces**: sources in slice order, each contributing its not-yet-seen
/// ancestors in the order a full single-source reverse BFS from it would
/// first discover them.
///
/// This equivalence lets one shared traversal replace a full reverse BFS
/// per source: the seen set is always a union of *complete* ancestor sets
/// (ancestor-closed), so every in-neighbor of a seen node is itself seen —
/// pruning at seen nodes skips no new node, and the new nodes a pruned BFS
/// discovers appear in exactly the same relative order as the new-node
/// subsequence of the unpruned BFS (new nodes are only ever pushed while
/// expanding new nodes). Total work is linear in the union's size instead
/// of the sum of the per-source cone sizes. See DESIGN.md § Flat graph
/// core for the full argument.
pub fn reverse_reach_union_ordered<G: Graph>(
    g: &G,
    sources: &[NodeId],
    scratch: &mut ReachScratch,
    out: &mut Vec<NodeId>,
) {
    bfs::<Reverse, _>(g, sources, scratch, |_, _| true);
    out.clear();
    out.extend_from_slice(&scratch.queue);
}

/// Collects the reverse reachability set of `sink` while ignoring the
/// direct in-edges from `skip_direct` (cleared into `out`). This is the
/// "old ancestors" side `B` of the sink-delta patch: the nodes that could
/// already reach `sink` without this batch's fresh in-edges. Only the hop
/// `skip_direct[i] → sink` itself is skipped; a skipped source discovered
/// through a longer path is still collected.
pub fn reverse_reach_excluding<G: Graph>(
    g: &G,
    sink: NodeId,
    skip_direct: &[NodeId],
    scratch: &mut ReachScratch,
    out: &mut Vec<NodeId>,
) {
    bfs::<Reverse, _>(g, &[sink], scratch, |v, u| {
        v != sink || !skip_direct.contains(&u)
    });
    out.clear();
    out.extend_from_slice(&scratch.queue);
}

/// Budgeted *reverse* reachability probe: does `from` reach `to`, decided
/// by walking `to`'s ancestors (in-edges from `to` looking for `from`)?
///
/// Returns `Some(true)` as soon as `from` is discovered, `Some(false)` if
/// `to`'s ancestor frontier is exhausted first, and `None` once `budget`
/// node expansions were spent without an answer (`budget == 0` probes
/// nothing). The incremental spread engine uses this to classify a fresh
/// edge `(u, v)` as *redundant* (`v` already reachable from `u`, so no
/// node's reach set changes) before inserting it; `None` is treated as
/// "not provably redundant", which only costs work, never correctness.
/// The reverse direction is the cheap one: influence streams have hub
/// sources with huge forward reach but targets with shallow ancestor
/// chains.
///
/// This probe keeps its own loop rather than running on the scalar `bfs`
/// kernel the other traversals share: its expansion budget and its stop
/// on discovering `from` would be kernel parameters that only it passes.
pub fn reverse_reachable_within<G: Graph>(
    g: &G,
    from: NodeId,
    to: NodeId,
    scratch: &mut ReachScratch,
    budget: usize,
) -> Option<bool> {
    if from == to {
        return Some(true);
    }
    if budget == 0 {
        return None;
    }
    scratch.begin(g.node_index_bound().max(to.index() + 1));
    scratch.visited[to.index()] = scratch.epoch;
    scratch.queue.push(to);
    let ReachScratch {
        visited,
        epoch,
        queue,
        ..
    } = scratch;
    let mut head = 0;
    let mut expanded = 0usize;
    while head < queue.len() {
        if expanded == budget {
            return None;
        }
        let v = queue[head];
        head += 1;
        expanded += 1;
        let mut found = false;
        g.for_each_in(v, |u| {
            if u == from {
                found = true;
            }
            let slot = &mut visited[u.index()];
            if *slot != *epoch {
                *slot = *epoch;
                queue.push(u);
            }
        });
        if found {
            return Some(true);
        }
    }
    Some(false)
}

/// Lanes per label **word** of a bit-parallel traversal. The historical
/// single-word lane count; wide traversals ship multiples of it (see
/// [`MAX_BATCH_LANES`]).
pub const BATCH_LANES: usize = 64;

/// Maximum lanes per bit-parallel traversal at the widest shipped label
/// width (`[u64; 4]` → 256 lanes).
pub const MAX_BATCH_LANES: usize = 256;

/// The label width in `u64` words that [`lane_width_for`] auto-selects for
/// a batch of `lanes` sources: the narrowest shipped width (1, 2 or 4
/// words) that fits, so small batches keep the cheap 64-bit path.
///
/// # Panics
/// Panics if `lanes` exceeds [`MAX_BATCH_LANES`].
#[inline]
pub fn lane_width_for(lanes: usize) -> usize {
    assert!(
        lanes <= MAX_BATCH_LANES,
        "at most {MAX_BATCH_LANES} lanes per traversal"
    );
    match lanes {
        0..=64 => 1,
        65..=128 => 2,
        _ => 4,
    }
}

/// Splits `items` into per-traversal lane chunks of at most `max_lanes`
/// entries — the single home of the lane-chunking logic the trackers'
/// batched phases share. Pair each chunk with [`lane_width_for`] on its
/// length to pick that traversal's label width: only the final (short)
/// chunk of an auto-width batch drops to a narrower, cheaper path.
///
/// # Panics
/// Panics if `max_lanes` is zero or exceeds [`MAX_BATCH_LANES`].
#[inline]
pub fn lane_chunks<T>(items: &[T], max_lanes: usize) -> std::slice::Chunks<'_, T> {
    assert!(
        (1..=MAX_BATCH_LANES).contains(&max_lanes),
        "lane chunk size must be in [1, {MAX_BATCH_LANES}]"
    );
    items.chunks(max_lanes)
}

/// Sweep-direction policy of the bit-parallel traversals.
///
/// Both policies reach the same least fixpoint of the (monotone) label
/// propagation, so final label words — and everything derived from them —
/// are bit-identical; only the order work is discovered in differs, which
/// the `visit` contract already declares arbitrary.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SweepDirection {
    /// Push-based worklist only: pop a node, push its label across its
    /// (reverse) edges. Optimal while frontiers are narrow.
    #[default]
    TopDown,
    /// Direction-optimizing: start top-down, and when the pending frontier
    /// exceeds `1/8` of the live nodes switch to bottom-up rounds that
    /// scan every node index and *pull* from its neighbors (with software
    /// prefetch ahead of the scan cursor), dropping back to top-down once
    /// the per-round change set narrows again.
    Auto,
}

/// Frontier fraction (denominator) that triggers the top-down → bottom-up
/// switch under [`SweepDirection::Auto`]: pending ≥ live/8.
const BOTTOM_UP_DEN: usize = 8;
/// Minimum pending frontier before bottom-up is ever considered. Combined
/// with the `live/8` fraction this also implies `live ≥ 4096`: a bottom-up
/// round scans every node index, which on small graphs costs more than the
/// narrow top-down queue it replaces ever would.
const BOTTOM_UP_MIN_FRONTIER: usize = 512;
/// Scan distance (in node indices) the bottom-up rounds prefetch ahead.
const PREFETCH_DIST: usize = 8;
/// Queue-head threshold before a drain compaction is considered.
const DRAIN_MIN_HEAD: usize = 1024;

/// Process-wide count of traversals that entered a bottom-up round — a
/// test hook so conformance suites can assert the direction switch
/// actually fired on a dense stream.
static BOTTOM_UP_SWEEPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of bit-parallel traversals that ran at least one
/// bottom-up round since program start.
#[doc(hidden)]
pub fn bottom_up_sweeps() -> u64 {
    BOTTOM_UP_SWEEPS.load(Ordering::Relaxed)
}

/// Loads node `idx`'s `W`-word label from the stride-`W` label array.
#[inline(always)]
fn load_label<const W: usize>(labels: &[u64], idx: usize) -> [u64; W] {
    let mut out = [0u64; W];
    out.copy_from_slice(&labels[idx * W..idx * W + W]);
    out
}

/// Edge orientation of the two traversal kernels, [`bfs`] and
/// [`label_sweep`], fixed at compile time: the adjacency a BFS or a
/// top-down round pushes across, and the opposite one a bottom-up round
/// pulls a node's label from.
trait Orientation {
    /// Calls `f` on every node a hop from `v` reaches (where `v`'s label
    /// propagates to).
    fn push<G: Graph>(g: &G, v: NodeId, f: impl FnMut(NodeId));
    /// Calls `f` on every node whose label propagates to `u`.
    fn pull<G: Graph>(g: &G, u: NodeId, f: impl FnMut(NodeId));
    /// Prefetches the adjacency [`Self::pull`] reads for `u`.
    fn prefetch_pull<G: Graph>(g: &G, u: NodeId);
}

/// Labels flow against the edges: a node's label reaches its ancestors.
struct Reverse;

/// Labels flow along the edges: a node's label reaches its descendants.
struct Forward;

impl Orientation for Reverse {
    fn push<G: Graph>(g: &G, v: NodeId, f: impl FnMut(NodeId)) {
        g.for_each_in(v, f);
    }
    fn pull<G: Graph>(g: &G, u: NodeId, f: impl FnMut(NodeId)) {
        g.for_each_out(u, f);
    }
    fn prefetch_pull<G: Graph>(g: &G, u: NodeId) {
        g.prefetch_out(u);
    }
}

impl Orientation for Forward {
    fn push<G: Graph>(g: &G, v: NodeId, f: impl FnMut(NodeId)) {
        g.for_each_out(v, f);
    }
    fn pull<G: Graph>(g: &G, u: NodeId, f: impl FnMut(NodeId)) {
        g.for_each_in(u, f);
    }
    fn prefetch_pull<G: Graph>(g: &G, u: NodeId) {
        g.prefetch_in(u);
    }
}

/// The scalar BFS kernel behind every single-answer traversal:
/// [`reach_count`], [`reach_collect`] and [`marginal_gain`] (`Forward`),
/// and [`reverse_reach_collect`], [`reverse_reach_union_ordered`] and
/// [`reverse_reach_excluding`] (`Reverse`).
///
/// Seeds are taken in slice order: an unvisited seed is marked and its
/// whole cone across `O`'s push edges is drained before the next seed, so
/// one seed gives plain BFS order and several give the per-source merge
/// order of [`reverse_reach_union_ordered`]. `admit(v, u)` is called once
/// for each hop `v → u` to a not-yet-visited `u` and may refuse it. The
/// visited nodes are left in `scratch.queue` in visit order.
fn bfs<O: Orientation, G: Graph>(
    g: &G,
    seeds: &[NodeId],
    scratch: &mut ReachScratch,
    mut admit: impl FnMut(NodeId, NodeId) -> bool,
) {
    let max_start = seeds.iter().map(|s| s.index() + 1).max().unwrap_or(0);
    scratch.begin(g.node_index_bound().max(max_start));
    let ReachScratch {
        visited,
        epoch,
        queue,
        ..
    } = scratch;
    let mut head = 0;
    for &s in seeds {
        let slot = &mut visited[s.index()];
        if *slot == *epoch {
            // A visited seed was expanded with the cone that reached it.
            continue;
        }
        *slot = *epoch;
        queue.push(s);
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            O::push(g, v, |u| {
                let slot = &mut visited[u.index()];
                if *slot != *epoch && admit(v, u) {
                    *slot = *epoch;
                    queue.push(u);
                }
            });
        }
    }
}

/// The bit-parallel label-propagation kernel behind
/// [`reverse_reach_batch`] and [`reach_count_batch`].
///
/// Each `(lane, node)` seed sets bit `lane % 64` of word `lane / 64` in
/// `node`'s `[u64; W]` label. Labels then propagate across `O`'s edges —
/// minus `skip(v, u)` on the hop that carries `v`'s label to `u` — until
/// the least fixpoint of `label(u) ⊇ label(v) ∖ skip(v, u)`.
/// `on_add(word, bits)` fires once for every lane bit newly set on a node
/// (seeds included), so its calls sum to the final per-lane popcounts
/// whatever order the sweep found them in. The labeled nodes are left in
/// `scratch.touched` in first-touch order.
fn label_sweep<const W: usize, O: Orientation, G: Graph>(
    g: &G,
    seeds: impl Iterator<Item = (usize, NodeId)> + Clone,
    mut skip: impl FnMut(NodeId, NodeId) -> [u64; W],
    direction: SweepDirection,
    scratch: &mut ReachScratch,
    mut on_add: impl FnMut(usize, u64),
) {
    let max_start = seeds.clone().map(|(_, s)| s.index() + 1).max();
    let bound = g.node_index_bound().max(max_start.unwrap_or(0));
    let live = g.live_node_count().max(1);
    scratch.begin_batch(bound, W);
    let ReachScratch {
        visited,
        epoch,
        queue,
        labels,
        stamp2,
        epoch2,
        touched,
        batch_pushes,
        drain_compactions,
        drain_moved,
        bottom_up_rounds,
        ..
    } = scratch;
    for (lane, s) in seeds {
        let (wi, bit) = (lane >> 6, 1u64 << (lane & 63));
        let idx = s.index();
        if visited[idx] != *epoch {
            visited[idx] = *epoch;
            labels[idx * W..idx * W + W].fill(0);
            touched.push(s);
        }
        let word = &mut labels[idx * W + wi];
        if *word & bit == 0 {
            *word |= bit;
            on_add(wi, bit);
        }
        if stamp2[idx] != *epoch2 {
            stamp2[idx] = *epoch2;
            queue.push(s);
            *batch_pushes += 1;
        }
    }
    let mut head = 0;
    let mut switched = false;
    'sweep: loop {
        // --- Top-down: pop a node, push its label across `O`'s edges. ---
        while head < queue.len() {
            if direction == SweepDirection::Auto {
                let pending = queue.len() - head;
                if pending >= BOTTOM_UP_MIN_FRONTIER && pending * BOTTOM_UP_DEN >= live {
                    break;
                }
            }
            let v = queue[head];
            head += 1;
            stamp2[v.index()] = 0;
            let lv = load_label::<W>(labels, v.index());
            O::push(g, v, |u| {
                let sk = skip(v, u);
                let mut prop = [0u64; W];
                let mut any = 0u64;
                for w in 0..W {
                    prop[w] = lv[w] & !sk[w];
                    any |= prop[w];
                }
                if any == 0 {
                    return;
                }
                let idx = u.index();
                if visited[idx] != *epoch {
                    visited[idx] = *epoch;
                    labels[idx * W..idx * W + W].fill(0);
                    touched.push(u);
                }
                let mut grew = false;
                for w in 0..W {
                    let word = &mut labels[idx * W + w];
                    let added = prop[w] & !*word;
                    if added != 0 {
                        *word |= added;
                        on_add(w, added);
                        grew = true;
                    }
                }
                if grew && stamp2[idx] != *epoch2 {
                    stamp2[idx] = *epoch2;
                    queue.push(u);
                    *batch_pushes += 1;
                }
            });
            // A node can re-enter the worklist when its label grows again,
            // so the drained prefix is reclaimed once it dominates the
            // queue — the tail moved is then at most the prefix freed,
            // keeping total compaction work linear in total pushes.
            if head >= DRAIN_MIN_HEAD && head * 2 >= queue.len() {
                *drain_compactions += 1;
                *drain_moved += (queue.len() - head) as u64;
                queue.drain(..head);
                head = 0;
            }
        }
        if head >= queue.len() {
            break;
        }
        // --- Bottom-up: the frontier got wide; scan every node index and
        // pull across `O`'s opposite edges instead. Pending worklist
        // entries are subsumed by the full scan, so their in-queue marks
        // clear and the queue is reused as the per-round change set. ---
        for &v in &queue[head..] {
            stamp2[v.index()] = 0;
        }
        queue.clear();
        head = 0;
        if !switched {
            switched = true;
            BOTTOM_UP_SWEEPS.fetch_add(1, Ordering::Relaxed);
        }
        loop {
            *bottom_up_rounds += 1;
            queue.clear();
            for idx in 0..bound {
                if idx + PREFETCH_DIST < bound {
                    O::prefetch_pull(g, NodeId((idx + PREFETCH_DIST) as u32));
                }
                let u = NodeId(idx as u32);
                let first = visited[idx] != *epoch;
                let orig = if first {
                    [0u64; W]
                } else {
                    load_label::<W>(labels, idx)
                };
                let mut acc = orig;
                O::pull(g, u, |v| {
                    let vi = v.index();
                    if visited[vi] != *epoch {
                        return;
                    }
                    let lvv = load_label::<W>(labels, vi);
                    let sk = skip(v, u);
                    for w in 0..W {
                        acc[w] |= lvv[w] & !sk[w];
                    }
                });
                if acc != orig {
                    if first {
                        visited[idx] = *epoch;
                        touched.push(u);
                    }
                    for w in 0..W {
                        let added = acc[w] & !orig[w];
                        if added != 0 {
                            on_add(w, added);
                        }
                    }
                    labels[idx * W..idx * W + W].copy_from_slice(&acc);
                    queue.push(u);
                }
            }
            if queue.is_empty() {
                break 'sweep;
            }
            if queue.len() * BOTTOM_UP_DEN < live {
                // The change set narrowed below the switch threshold:
                // resume top-down from exactly the nodes whose labels the
                // last round grew.
                for &u in queue.iter() {
                    stamp2[u.index()] = *epoch2;
                }
                *batch_pushes += queue.len() as u64;
                continue 'sweep;
            }
        }
    }
}

/// Wide-lane bit-parallel multi-source **reverse** reachability, generic
/// over the label width `W` in `u64` words (`W · 64` lanes; shipped widths
/// are 1, 2 and 4 — see [`lane_width_for`]).
///
/// Lane `i` computes the union of the reverse reachability sets of
/// `lanes[i]` (every node that reaches any of its sources, sources
/// included). All lanes run in one label-propagation traversal: each node
/// carries a `[u64; W]` label whose bit `i` (bit `i % 64` of word
/// `i / 64`) means "this node is in lane `i`'s set". `visit` is called
/// exactly once per reached node with its final label, in first-touch
/// order (deterministic, but callers must treat it as arbitrary — the
/// sweep direction changes it).
///
/// `skip(v, u)` returns a mask of lanes that must **not** propagate across
/// the reverse hop `v ← u`; pass `|_, _| [0; W]` for plain reachability.
/// It must be a pure function of the edge: under
/// [`SweepDirection::Auto`] the same hop can be consulted again in either
/// direction and any round.
///
/// Both directions converge to the unique least fixpoint of the monotone
/// propagation rule `label(u) ⊇ label(v) ∖ skip(v, u)` for every live edge
/// `u → v` (plus the seeds), so final labels — and the visited set — are
/// bit-identical whichever path computed them; see DESIGN.md
/// § Traversal kernels.
///
/// # Panics
/// Panics if more than `W * 64` lanes are given.
pub fn reverse_reach_batch<const W: usize, G: Graph>(
    g: &G,
    lanes: &[&[NodeId]],
    skip: impl FnMut(NodeId, NodeId) -> [u64; W],
    direction: SweepDirection,
    scratch: &mut ReachScratch,
    mut visit: impl FnMut(NodeId, &[u64; W]),
) {
    assert!(
        lanes.len() <= W * 64,
        "at most {} lanes per {W}-word traversal",
        W * 64
    );
    let seeds = lanes
        .iter()
        .enumerate()
        .flat_map(|(i, lane)| lane.iter().map(move |&s| (i, s)));
    label_sweep::<W, Reverse, G>(g, seeds, skip, direction, scratch, |_, _| {});
    for &n in &scratch.touched {
        visit(n, &load_label::<W>(&scratch.labels, n.index()));
    }
}

/// Runs [`reverse_reach_batch`] (plain reachability, no skip mask) at a
/// label width chosen at **runtime** — the monomorphization dispatcher the
/// trackers' auto-width phases call with [`lane_width_for`]'s pick. Each
/// visited label is widened to a fixed four-word mask so callers decode
/// lane `i` uniformly as bit `i % 64` of word `i / 64`.
///
/// # Panics
/// Panics if `words` is not a shipped width (1, 2 or 4) or `lanes` exceeds
/// `words * 64`.
pub fn reverse_reach_batch_wide<G: Graph>(
    g: &G,
    lanes: &[&[NodeId]],
    words: usize,
    direction: SweepDirection,
    scratch: &mut ReachScratch,
    mut visit: impl FnMut(NodeId, [u64; 4]),
) {
    match words {
        1 => reverse_reach_batch::<1, G>(g, lanes, |_, _| [0; 1], direction, scratch, |_, _| {}),
        2 => reverse_reach_batch::<2, G>(g, lanes, |_, _| [0; 2], direction, scratch, |_, _| {}),
        4 => reverse_reach_batch::<4, G>(g, lanes, |_, _| [0; 4], direction, scratch, |_, _| {}),
        other => panic!("unsupported label width: {other} words (shipped: 1, 2, 4)"),
    }
    // The sweep leaves its nodes in `touched`, labels stride-`words`.
    for &n in &scratch.touched {
        let mut label = [0u64; 4];
        label[..words].copy_from_slice(&scratch.labels[n.index() * words..][..words]);
        visit(n, label);
    }
}

/// Wide-lane bit-parallel **forward** reachability counting: writes
/// `counts[i] = |reach(sources[i])|` (the singleton influence spread of
/// Definition 3) for up to `W · 64` sources in one label-propagation
/// traversal (lane `i` = bit `i % 64` of label word `i / 64`).
///
/// The values are exactly what [`reach_count`] returns per source: every
/// lane bit is set on a node exactly once (propagation is monotone) and
/// tallied at that moment, so the totals equal the final per-lane label
/// popcounts — independent of sweep direction and discovery order. Under
/// [`SweepDirection::Auto`] wide frontiers switch to bottom-up rounds that
/// pull from **in**-neighbors, with software prefetch ahead of the scan.
///
/// # Panics
/// Panics if `sources` and `counts` differ in length or exceed `W * 64`.
pub fn reach_count_batch<const W: usize, G: Graph>(
    g: &G,
    sources: &[NodeId],
    direction: SweepDirection,
    scratch: &mut ReachScratch,
    counts: &mut [u64],
) {
    assert!(
        sources.len() <= W * 64,
        "at most {} lanes per {W}-word traversal",
        W * 64
    );
    assert_eq!(sources.len(), counts.len());
    counts.fill(0);
    let seeds = sources.iter().copied().enumerate();
    label_sweep::<W, Forward, G>(
        g,
        seeds,
        |_, _| [0; W],
        direction,
        scratch,
        |w, mut added| {
            while added != 0 {
                counts[(w << 6) + added.trailing_zeros() as usize] += 1;
                added &= added - 1;
            }
        },
    );
}

/// Runs [`reach_count_batch`] at a label width chosen at **runtime** — the
/// monomorphization dispatcher for auto-width rebuild sweeps.
///
/// # Panics
/// Panics if `words` is not a shipped width (1, 2 or 4), or on any
/// [`reach_count_batch`] panic.
pub fn reach_count_batch_wide<G: Graph>(
    g: &G,
    sources: &[NodeId],
    words: usize,
    direction: SweepDirection,
    scratch: &mut ReachScratch,
    counts: &mut [u64],
) {
    match words {
        1 => reach_count_batch::<1, G>(g, sources, direction, scratch, counts),
        2 => reach_count_batch::<2, G>(g, sources, direction, scratch, counts),
        4 => reach_count_batch::<4, G>(g, sources, direction, scratch, counts),
        other => panic!("unsupported label width: {other} words (shipped: 1, 2, 4)"),
    }
}

/// Shared, cheaply clonable counters describing what the incremental
/// spread engine did: clones share one tally (like
/// `tdn_submodular::OracleCounter`), so the many SIEVEADN instances inside
/// one tracker bill a single tracker-wide total. All counts are
/// deterministic functions of the stream — identical at every
/// `TDN_THREADS` setting — because classification and cache planning run
/// in the serial phases of `feed`.
#[derive(Clone, Debug, Default)]
pub struct SpreadStats(Arc<SpreadStatsInner>);

#[derive(Debug, Default)]
struct SpreadStatsInner {
    redundant_edges: AtomicU64,
    sink_delta_edges: AtomicU64,
    novel_edges: AtomicU64,
    probe_budget_exhausted: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    patched_batches: AtomicU64,
    rebuilt_batches: AtomicU64,
    shed_memo: AtomicU64,
    shed_arena: AtomicU64,
    shed_fallback: AtomicU64,
}

/// A plain-value copy of [`SpreadStats`] at one instant (what experiments
/// serialize and reports print).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpreadStatsSnapshot {
    /// Fresh edges proven reachability-redundant by the probe.
    pub redundant_edges: u64,
    /// Fresh edges into a batch-new sink, patched as exact `+1` deltas on
    /// the sink's ancestors instead of dirtying them.
    pub sink_delta_edges: u64,
    /// Fresh edges that may extend reachability (includes unproven ones).
    pub novel_edges: u64,
    /// Novel classifications caused by probe-budget exhaustion alone.
    pub probe_budget_exhausted: u64,
    /// Singleton spreads served from the memo without a BFS.
    pub cache_hits: u64,
    /// Singleton spreads recomputed by BFS (and stored into the memo).
    pub cache_misses: u64,
    /// Batches where the cost model consulted the memo per node.
    pub patched_batches: u64,
    /// Batches where the cost model chose a full rebuild (dirty-dominated).
    pub rebuilt_batches: u64,
    /// Budget-shedding level 1 events: memo caches dropped.
    pub shed_memo: u64,
    /// Budget-shedding level 2 events: recycled arena capacity released.
    pub shed_arena: u64,
    /// Budget-shedding level 3 events: fell back from incremental to
    /// full-recompute spread maintenance.
    pub shed_fallback: u64,
}

impl SpreadStats {
    /// Creates a zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fresh edge proven redundant.
    pub fn note_redundant(&self) {
        self.0.redundant_edges.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fresh edge patched as a new-sink `+1` delta.
    pub fn note_sink_delta(&self) {
        self.0.sink_delta_edges.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fresh edge classified novel (`exhausted` when the probe
    /// ran out of budget rather than proving non-reachability).
    pub fn note_novel(&self, exhausted: bool) {
        self.0.novel_edges.fetch_add(1, Ordering::Relaxed);
        if exhausted {
            self.0
                .probe_budget_exhausted
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `n` memo-served singleton evaluations.
    pub fn add_cache_hits(&self, n: u64) {
        self.0.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` BFS-recomputed singleton evaluations.
    pub fn add_cache_misses(&self, n: u64) {
        self.0.cache_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one batch's patch-vs-rebuild decision.
    pub fn note_batch(&self, rebuilt: bool) {
        if rebuilt {
            self.0.rebuilt_batches.fetch_add(1, Ordering::Relaxed);
        } else {
            self.0.patched_batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a budget-shedding event at the given level (1 = memo
    /// caches, 2 = arena capacity, 3 = incremental→full fallback).
    pub fn note_shed(&self, level: u8) {
        let counter = match level {
            1 => &self.0.shed_memo,
            2 => &self.0.shed_arena,
            _ => &self.0.shed_fallback,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the current tallies.
    pub fn snapshot(&self) -> SpreadStatsSnapshot {
        SpreadStatsSnapshot {
            redundant_edges: self.0.redundant_edges.load(Ordering::Relaxed),
            sink_delta_edges: self.0.sink_delta_edges.load(Ordering::Relaxed),
            novel_edges: self.0.novel_edges.load(Ordering::Relaxed),
            probe_budget_exhausted: self.0.probe_budget_exhausted.load(Ordering::Relaxed),
            cache_hits: self.0.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.0.cache_misses.load(Ordering::Relaxed),
            patched_batches: self.0.patched_batches.load(Ordering::Relaxed),
            rebuilt_batches: self.0.rebuilt_batches.load(Ordering::Relaxed),
            shed_memo: self.0.shed_memo.load(Ordering::Relaxed),
            shed_arena: self.0.shed_arena.load(Ordering::Relaxed),
            shed_fallback: self.0.shed_fallback.load(Ordering::Relaxed),
        }
    }

    /// Overwrites the tallies (checkpoint restore: a warm-restarted run
    /// resumes the exact counts of the interrupted one).
    pub fn restore(&self, s: &SpreadStatsSnapshot) {
        self.0
            .redundant_edges
            .store(s.redundant_edges, Ordering::Relaxed);
        self.0
            .sink_delta_edges
            .store(s.sink_delta_edges, Ordering::Relaxed);
        self.0.novel_edges.store(s.novel_edges, Ordering::Relaxed);
        self.0
            .probe_budget_exhausted
            .store(s.probe_budget_exhausted, Ordering::Relaxed);
        self.0.cache_hits.store(s.cache_hits, Ordering::Relaxed);
        self.0.cache_misses.store(s.cache_misses, Ordering::Relaxed);
        self.0
            .patched_batches
            .store(s.patched_batches, Ordering::Relaxed);
        self.0
            .rebuilt_batches
            .store(s.rebuilt_batches, Ordering::Relaxed);
        self.0.shed_memo.store(s.shed_memo, Ordering::Relaxed);
        self.0.shed_arena.store(s.shed_arena, Ordering::Relaxed);
        self.0
            .shed_fallback
            .store(s.shed_fallback, Ordering::Relaxed);
    }
}

impl SpreadStatsSnapshot {
    /// Serializes every tally, shed counters included, for checkpointing.
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        for v in [
            self.redundant_edges,
            self.sink_delta_edges,
            self.novel_edges,
            self.probe_budget_exhausted,
            self.cache_hits,
            self.cache_misses,
            self.patched_batches,
            self.rebuilt_batches,
            self.shed_memo,
            self.shed_arena,
            self.shed_fallback,
        ] {
            w.put_u64(v);
        }
    }

    /// Reconstructs tallies from [`Self::write_snapshot`] bytes.
    pub fn read_snapshot(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        Ok(SpreadStatsSnapshot {
            redundant_edges: r.get_u64()?,
            sink_delta_edges: r.get_u64()?,
            novel_edges: r.get_u64()?,
            probe_budget_exhausted: r.get_u64()?,
            cache_hits: r.get_u64()?,
            cache_misses: r.get_u64()?,
            patched_batches: r.get_u64()?,
            rebuilt_batches: r.get_u64()?,
            shed_memo: r.get_u64()?,
            shed_arena: r.get_u64()?,
            shed_fallback: r.get_u64()?,
        })
    }
}

/// Memoised singleton spreads with per-batch dirty-set tracking — the heart
/// of the incremental spread-maintenance engine.
///
/// ## Invariant
///
/// Between batches, every *valid* entry equals the node's exact current
/// singleton spread `f({v}) = |reach(v)|` in the owning (addition-only)
/// graph. The owner upholds this by, each batch:
///
/// 1. calling [`begin_batch`](Self::begin_batch) (clears the dirty set);
/// 2. marking **every node whose reach may have changed** dirty — i.e. the
///    ancestors of each source of a *novel* fresh edge (edges proven
///    redundant by [`reverse_reachable_within`] change no reach set, see
///    the DESIGN.md proof);
/// 3. serving lookups only through [`lookup`](Self::lookup), which refuses
///    dirty or never-stored entries, and re-storing every recomputed value
///    via [`store`](Self::store).
///
/// The dirty set is **ancestor-closed** (a union of complete
/// reverse-reachability sets).
///
/// Values served from the memo are *exactly* what a fresh BFS would return,
/// so consumers are bit-identical to a full-recompute run by construction;
/// the differential conformance suite (`tests/differential_spread.rs`)
/// enforces this end to end.
#[derive(Clone, Debug, Default)]
pub struct SpreadMemo {
    value: Vec<u64>,
    valid: Vec<bool>,
    dirty: EpochSet,
    /// Per-batch exact spread deltas (new-sink `+1` patches): node `n`'s
    /// spread grew by `delta_count[n]` this batch iff `delta.contains(n)`.
    delta: EpochSet,
    delta_count: Vec<u32>,
    /// Adaptive probe-gate counters (see [`Self::probe_gate`]).
    probes_run: u64,
    probes_hit: u64,
    probe_skips: u64,
    stats: SpreadStats,
}

impl SpreadMemo {
    /// Creates an empty memo billing a fresh [`SpreadStats`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of node slots currently tracked.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the memo tracks no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Replaces the stats handle (trackers share one tally across all
    /// their instances, like the oracle counter).
    pub fn set_stats(&mut self, stats: SpreadStats) {
        self.stats = stats;
    }

    /// The stats handle this memo bills.
    pub fn stats(&self) -> &SpreadStats {
        &self.stats
    }

    /// Starts a new batch: grows the per-node arrays to `bound` and clears
    /// the dirty set in O(1).
    pub fn begin_batch(&mut self, bound: usize) {
        if self.value.len() < bound {
            self.value.resize(bound, 0);
            self.valid.resize(bound, false);
            self.delta_count.resize(bound, 0);
        }
        self.dirty.clear();
        self.delta.clear();
    }

    /// Marks `n` dirty; returns `true` if newly marked.
    #[inline]
    pub fn mark_dirty(&mut self, n: NodeId) -> bool {
        self.dirty.insert(n)
    }

    /// Number of nodes marked dirty this batch.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Adds one exact `+1` spread delta to `n` this batch (a batch-new
    /// sink became reachable from it).
    #[inline]
    pub fn add_delta(&mut self, n: NodeId) {
        self.add_delta_n(n, 1);
    }

    /// Adds `k` exact `+1` spread deltas to `n` this batch (`k` distinct
    /// batch-new sinks became reachable from it — e.g. one BFS covering
    /// all single-source sinks hanging off one hub).
    #[inline]
    pub fn add_delta_n(&mut self, n: NodeId, k: u32) {
        if self.delta.insert(n) {
            self.delta_count[n.index()] = k;
        } else {
            self.delta_count[n.index()] += k;
        }
    }

    /// The exact spread delta accumulated for `n` this batch.
    #[inline]
    pub fn delta_of(&self, n: NodeId) -> u64 {
        if self.delta.contains(n) {
            self.delta_count[n.index()] as u64
        } else {
            0
        }
    }

    /// Cost-model gate for redundancy probes. Probing pays only in
    /// workloads where shortcut edges actually occur, so the gate stays
    /// open through a warm-up window and while the observed hit rate is at
    /// least ~3%, then throttles to one sampled probe per 64 eligible
    /// edges so a drifting workload can re-open it. Purely count-based —
    /// no clocks — so decisions are deterministic, thread-count-invariant,
    /// and snapshot-stable.
    pub fn probe_gate(&mut self) -> bool {
        const WARMUP: u64 = 64;
        const MIN_HIT_DIV: u64 = 32;
        const REPROBE_EVERY: u64 = 64;
        if self.probes_run < WARMUP || self.probes_hit * MIN_HIT_DIV >= self.probes_run {
            return true;
        }
        self.probe_skips += 1;
        self.probe_skips.is_multiple_of(REPROBE_EVERY)
    }

    /// Records a completed probe (`hit` when it proved redundancy).
    pub fn note_probe(&mut self, hit: bool) {
        self.probes_run += 1;
        if hit {
            self.probes_hit += 1;
        }
    }

    /// Applies one **pre-existing sink**'s exact delta: every node that
    /// reaches a fresh in-edge source of `sink` (the set `A`, one
    /// multi-source reverse BFS) gains exactly the sink — unless it could
    /// already reach it through an old in-edge (the set `B`, one reverse
    /// BFS from the sink that skips the fresh direct hops). For clean
    /// nodes `A ∖ B` is exactly the set whose spread grew, and it grew by
    /// exactly 1 (the sink contributes nothing beyond itself); see
    /// DESIGN.md § Incremental spread maintenance for the proof.
    ///
    /// Two full reverse BFSs per sink: the reference that
    /// [`Self::apply_old_sink_deltas_wide`] is tested against.
    pub fn apply_old_sink_delta<G: Graph>(
        &mut self,
        g: &G,
        sink: NodeId,
        fresh_sources: &[NodeId],
        scratch: &mut ReachScratch,
    ) {
        let mut b = Vec::new();
        reverse_reach_excluding(g, sink, fresh_sources, scratch, &mut b);
        let b: NodeBitSet = b.into_iter().collect();
        let mut a = Vec::new();
        reverse_reach_union_ordered(g, fresh_sources, scratch, &mut a);
        for x in a {
            if !b.contains(x) {
                self.add_delta(x);
            }
        }
    }

    /// Applies the exact deltas of many pre-existing sinks with two lanes
    /// per sink in bit-parallel reverse traversals (`words * 32` sinks per
    /// traversal, swept in `direction`): lane `2i` is sink `i`'s `A` side
    /// (everything reaching a fresh in-edge source) and lane `2i + 1` its
    /// `B` side (everything reaching the sink without the fresh direct
    /// hops, via the `skip` mask). A node gains `+1` per sink whose `A`
    /// bit is set and `B` bit clear — identical per-node totals to calling
    /// [`Self::apply_old_sink_delta`] once per sink, at every width and
    /// direction.
    ///
    /// # Panics
    /// Panics if `words` is not a shipped width (1, 2 or 4).
    pub fn apply_old_sink_deltas_wide<G: Graph>(
        &mut self,
        g: &G,
        sinks: &[(NodeId, Vec<NodeId>)],
        words: usize,
        direction: SweepDirection,
        scratch: &mut ReachScratch,
    ) {
        match words {
            1 => self.apply_old_sink_deltas_batch::<1, G>(g, sinks, direction, scratch),
            2 => self.apply_old_sink_deltas_batch::<2, G>(g, sinks, direction, scratch),
            4 => self.apply_old_sink_deltas_batch::<4, G>(g, sinks, direction, scratch),
            other => panic!("unsupported label width: {other} words (shipped: 1, 2, 4)"),
        }
    }

    /// The width-generic core of the batched old-sink patch: two lanes per
    /// sink (`2i` = `A` side, `2i + 1` = `B` side; a pair never straddles a
    /// word boundary because `2i` is even), `W * 32` sinks per traversal.
    fn apply_old_sink_deltas_batch<const W: usize, G: Graph>(
        &mut self,
        g: &G,
        sinks: &[(NodeId, Vec<NodeId>)],
        direction: SweepDirection,
        scratch: &mut ReachScratch,
    ) {
        for chunk in sinks.chunks(W * BATCH_LANES / 2) {
            let mut lanes: Vec<&[NodeId]> = Vec::with_capacity(chunk.len() * 2);
            let mut sink_nodes: Vec<NodeId> = Vec::with_capacity(chunk.len());
            // O(1) pre-check so the overwhelmingly common non-sink node
            // costs one word probe per expanded edge, not a chunk scan.
            let mut sink_bits = NodeBitSet::new();
            for (sink, fresh) in chunk {
                lanes.push(fresh.as_slice());
                lanes.push(std::slice::from_ref(sink));
                sink_nodes.push(*sink);
                sink_bits.insert(*sink);
            }
            let skip = |v: NodeId, u: NodeId| -> [u64; W] {
                // Lane 2i+1 must not walk sink_i's fresh direct in-edges.
                let mut mask = [0u64; W];
                if !sink_bits.contains(v) {
                    return mask;
                }
                if let Some(i) = sink_nodes.iter().position(|&s| s == v) {
                    if chunk[i].1.contains(&u) {
                        let lane = 2 * i + 1;
                        mask[lane >> 6] = 1u64 << (lane & 63);
                    }
                }
                mask
            };
            let deltas = &mut *self;
            reverse_reach_batch::<W, G>(g, &lanes, skip, direction, scratch, |n, label| {
                // Bits 2i (A) without their 2i+1 (B) partner, per word.
                let mut k = 0u32;
                for &word in label {
                    let gained = word & !(word >> 1) & 0x5555_5555_5555_5555;
                    k += gained.count_ones();
                }
                if k > 0 {
                    deltas.add_delta_n(n, k);
                }
            });
        }
    }

    /// The memoised spread of `n`, if stored and clean this batch.
    #[inline]
    pub fn lookup(&self, n: NodeId) -> Option<u64> {
        if self.valid.get(n.index()).copied().unwrap_or(false) && !self.dirty.contains(n) {
            Some(self.value[n.index()])
        } else {
            None
        }
    }

    /// The memoised spread of `n` with this batch's exact delta applied —
    /// what phase 4a stores and serves for clean nodes.
    #[inline]
    pub fn lookup_patched(&self, n: NodeId) -> Option<u64> {
        self.lookup(n).map(|v| v + self.delta_of(n))
    }

    /// Stores the freshly computed spread of `n` (caller guarantees the
    /// value is exact for the current graph).
    #[inline]
    pub fn store(&mut self, n: NodeId, spread: u64) {
        self.value[n.index()] = spread;
        self.valid[n.index()] = true;
    }

    /// Forgets every stored value (mode switches: a memo that stopped
    /// observing mutations can no longer be trusted).
    pub fn clear_cache(&mut self) {
        self.valid.fill(false);
        self.dirty.clear();
        self.delta.clear();
    }

    /// Forgets every stored value **and** returns the backing allocations
    /// to the allocator — the memory-budget shedding hook. The next
    /// [`Self::begin_batch`] regrows empty arrays, so this is equivalent to
    /// a fresh memo (correctness-preserving: served values are always
    /// recomputed exactly on miss). The probe-gate counters survive, so
    /// probe decisions stay a deterministic function of the stream.
    /// Returns the approximate bytes released.
    pub fn release_memory(&mut self) -> usize {
        let before = self.approx_bytes();
        self.value = Vec::new();
        self.valid = Vec::new();
        self.delta_count = Vec::new();
        self.dirty = EpochSet::new();
        self.delta = EpochSet::new();
        before.saturating_sub(self.approx_bytes())
    }

    /// Approximate heap footprint in bytes (counted by the owners'
    /// `approx_bytes`, so memoisation cannot hide from memory accounting).
    pub fn approx_bytes(&self) -> usize {
        self.value.capacity() * std::mem::size_of::<u64>()
            + self.valid.capacity()
            + self.dirty.approx_bytes()
            + self.delta.approx_bytes()
            + self.delta_count.capacity() * std::mem::size_of::<u32>()
    }

    /// Serializes the memo as raw word runs — validity bitmap (one bit per
    /// slot, packed LE into `u64` words), then the valid values
    /// concatenated in index order, then the adaptive probe-gate counters
    /// (so a warm restart makes the same probe decisions as an
    /// uninterrupted run). The dirty and delta sets are per-batch
    /// transient and always empty between batches.
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        w.put_len(self.value.len());
        let mut bitmap = vec![0u64; self.value.len().div_ceil(64)];
        let mut values: Vec<u64> = Vec::new();
        for (i, &valid) in self.valid.iter().enumerate() {
            if valid {
                bitmap[i >> 6] |= 1u64 << (i & 63);
                values.push(self.value[i]);
            }
        }
        w.put_u64_run(&bitmap);
        w.put_u64_run(&values);
        w.put_u64(self.probes_run);
        w.put_u64(self.probes_hit);
        w.put_u64(self.probe_skips);
    }

    /// Reconstructs a memo from [`Self::write_snapshot`] bytes. `bound` is
    /// the owning graph's node-index bound: a memo larger than the graph,
    /// or a stored spread outside `[1, bound]` (a spread counts at least
    /// the node itself and at most every node), is a typed error — a
    /// corrupt memo would silently change answers, since served values are
    /// trusted as exact.
    pub fn read_snapshot(r: &mut codec::Reader<'_>, bound: usize) -> codec::Result<Self> {
        // Slots are bitmap-packed (1 bit each), so `get_len`'s byte-per-
        // element guard would reject valid payloads; the bound check below
        // caps the allocation instead.
        let n = r.get_u64()? as usize;
        if n > bound {
            return Err(codec::CodecError::Invalid(
                "SpreadMemo larger than the graph's node bound",
            ));
        }
        let bitmap = r.get_u64_run()?;
        if bitmap.len() != n.div_ceil(64) {
            return Err(codec::CodecError::Invalid(
                "SpreadMemo validity bitmap has the wrong word count",
            ));
        }
        if !n.is_multiple_of(64) && bitmap.last().is_some_and(|&w| w >> (n % 64) != 0) {
            return Err(codec::CodecError::Invalid(
                "SpreadMemo validity bitmap marks slots past the end",
            ));
        }
        let values = r.get_u64_run()?;
        let total: usize = bitmap.iter().map(|w| w.count_ones() as usize).sum();
        if values.len() != total {
            return Err(codec::CodecError::Invalid(
                "SpreadMemo value run disagrees with validity bitmap",
            ));
        }
        let mut memo = SpreadMemo::new();
        memo.value = vec![0; n];
        memo.valid = vec![false; n];
        memo.delta_count = vec![0; n];
        let mut next = 0usize;
        for i in 0..n {
            if bitmap[i >> 6] >> (i & 63) & 1 != 0 {
                let v = values[next];
                next += 1;
                if v == 0 || v > bound as u64 {
                    return Err(codec::CodecError::Invalid(
                        "SpreadMemo stored spread outside [1, node bound]",
                    ));
                }
                memo.value[i] = v;
                memo.valid[i] = true;
            }
        }
        memo.probes_run = r.get_u64()?;
        memo.probes_hit = r.get_u64()?;
        memo.probe_skips = r.get_u64()?;
        if memo.probes_hit > memo.probes_run {
            return Err(codec::CodecError::Invalid(
                "SpreadMemo probe hits exceed probes run",
            ));
        }
        Ok(memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adn::AdnGraph;

    fn line_graph(n: u32) -> AdnGraph {
        // 0 -> 1 -> 2 -> ... -> n-1
        let mut g = AdnGraph::new();
        for i in 0..n - 1 {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        g
    }

    #[test]
    fn reach_count_on_a_line() {
        let g = line_graph(5);
        let mut s = ReachScratch::new();
        assert_eq!(reach_count(&g, NodeId(0), &mut s), 5);
        assert_eq!(reach_count(&g, NodeId(3), &mut s), 2);
        assert_eq!(reach_count(&g, NodeId(4), &mut s), 1);
    }

    #[test]
    fn reach_handles_cycles() {
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(0));
        let mut s = ReachScratch::new();
        for i in 0..3 {
            assert_eq!(reach_count(&g, NodeId(i), &mut s), 3);
        }
    }

    #[test]
    fn reach_collect_matches_count() {
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let mut s = ReachScratch::new();
        let mut out = Vec::new();
        reach_collect(&g, NodeId(0), &mut s, &mut out);
        out.sort();
        assert_eq!(out, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    /// Commits `start` to `cover` the way the trackers do: one pruned
    /// marginal-gain BFS, then an insert of every gained node.
    fn commit(g: &AdnGraph, start: NodeId, cover: &mut CoverSet, s: &mut ReachScratch) -> u64 {
        let mut gained = Vec::new();
        let gain = marginal_gain(g, start, cover, s, &mut gained);
        for n in gained {
            cover.insert(n);
        }
        gain
    }

    #[test]
    fn marginal_gain_prunes_at_cover() {
        let g = line_graph(6);
        let mut s = ReachScratch::new();
        let mut cover = CoverSet::new();
        let mut gained = Vec::new();
        // Cover = reach(3) = {3,4,5}.
        commit(&g, NodeId(3), &mut cover, &mut s);
        assert_eq!(cover.len(), 3);
        // Gain of 0 = {0,1,2} only.
        let gain = marginal_gain(&g, NodeId(0), &cover, &mut s, &mut gained);
        assert_eq!(gain, 3);
        assert!(gained.contains(&NodeId(0)));
        assert!(!gained.contains(&NodeId(3)));
        // Gain of already-covered node is zero.
        assert_eq!(marginal_gain(&g, NodeId(4), &cover, &mut s, &mut gained), 0);
    }

    #[test]
    fn extend_cover_is_idempotent() {
        let g = line_graph(4);
        let mut s = ReachScratch::new();
        let mut cover = CoverSet::new();
        assert_eq!(commit(&g, NodeId(1), &mut cover, &mut s), 3);
        // Committing the same node again gains nothing.
        assert_eq!(commit(&g, NodeId(1), &mut cover, &mut s), 0);
        assert_eq!(cover.len(), 3);
    }

    #[test]
    fn reverse_reach_finds_ancestors() {
        // 0 -> 2, 1 -> 2, 2 -> 3
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let mut s = ReachScratch::new();
        let mut out = Vec::new();
        reverse_reach_collect(&g, NodeId(2), &mut s, &mut out);
        out.sort();
        assert_eq!(out, vec![NodeId(0), NodeId(1), NodeId(2)]);
        reverse_reach_collect(&g, NodeId(3), &mut s, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn reverse_reach_excluding_skips_only_the_direct_hop() {
        // u -> sink, u -> w -> sink, x -> sink; z hangs below the sink.
        let (u, w, x, sink, z) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
        let mut g = AdnGraph::new();
        for (a, b) in [(u, sink), (u, w), (w, sink), (x, sink), (sink, z)] {
            g.add_edge(a, b);
        }
        let mut s = ReachScratch::new();
        let mut all = Vec::new();
        reverse_reach_excluding(&g, sink, &[], &mut s, &mut all);
        all.sort();
        assert_eq!(all, vec![u, w, x, sink]);
        // Skipping u's and x's direct hops drops x, but u is still reached
        // through w.
        let mut out = Vec::new();
        reverse_reach_excluding(&g, sink, &[u, x], &mut s, &mut out);
        let mut set = out.clone();
        set.sort();
        assert_eq!(set, vec![u, w, sink]);
        // A duplicated skip entry, or one that is not an in-neighbour of
        // the sink, changes nothing.
        let mut again = Vec::new();
        reverse_reach_excluding(&g, sink, &[u, x, u, z], &mut s, &mut again);
        assert_eq!(again, out);
    }

    #[test]
    fn scratch_pool_reuses_and_accounts_arenas() {
        let g = line_graph(64);
        let pool = ScratchPool::new();
        assert_eq!(pool.approx_bytes(), 0, "fresh pool owns no buffers");
        assert_eq!(pool.with(|s| reach_count(&g, NodeId(0), s)), 64);
        let warm = pool.approx_bytes();
        assert!(warm > 0, "used arena must be accounted");
        // A second serial traversal checks out the same warm arena.
        assert_eq!(pool.with(|s| reach_count(&g, NodeId(1), s)), 63);
        assert_eq!(pool.approx_bytes(), warm);
        // Clones (instance copies) start cold.
        assert_eq!(pool.clone().approx_bytes(), 0);
    }

    #[test]
    fn scratch_pool_serves_concurrent_workers() {
        let g = line_graph(32);
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..32u32 {
                        let n = pool.with(|s| reach_count(&g, NodeId(i), s));
                        assert_eq!(n, 32 - i as u64);
                    }
                });
            }
        });
    }

    #[test]
    fn epoch_wrap_resets_marks() {
        let g = line_graph(3);
        let mut s = ReachScratch::new();
        s.epoch = u32::MAX - 1;
        assert_eq!(reach_count(&g, NodeId(0), &mut s), 3);
        assert_eq!(reach_count(&g, NodeId(0), &mut s), 3); // wraps here
        assert_eq!(reach_count(&g, NodeId(0), &mut s), 3);
    }

    #[test]
    fn reverse_reachable_within_answers_and_respects_budget() {
        let g = line_graph(6); // 0 -> 1 -> ... -> 5
        let mut s = ReachScratch::new();
        assert_eq!(
            reverse_reachable_within(&g, NodeId(0), NodeId(5), &mut s, 100),
            Some(true)
        );
        assert_eq!(
            reverse_reachable_within(&g, NodeId(5), NodeId(0), &mut s, 100),
            Some(false)
        );
        assert_eq!(
            reverse_reachable_within(&g, NodeId(2), NodeId(2), &mut s, 0),
            Some(true)
        );
        // Finding node 0 among node 5's ancestors needs 5 expansions;
        // fewer is inconclusive, never a wrong answer.
        assert_eq!(
            reverse_reachable_within(&g, NodeId(0), NodeId(5), &mut s, 3),
            None
        );
        assert_eq!(
            reverse_reachable_within(&g, NodeId(0), NodeId(5), &mut s, 5),
            Some(true)
        );
        // Exhausting the ancestor frontier inside the budget is a
        // definite no: node 0 has no in-edges.
        assert_eq!(
            reverse_reachable_within(&g, NodeId(4), NodeId(0), &mut s, 3),
            Some(false)
        );
        // Unknown source can never be an ancestor.
        assert_eq!(
            reverse_reachable_within(&g, NodeId(40), NodeId(0), &mut s, 3),
            Some(false)
        );
    }

    #[test]
    fn spread_memo_upholds_the_exactness_invariant() {
        // Line 0 -> 1 -> 2; spreads 3, 2, 1.
        let mut g = line_graph(3);
        let mut s = ReachScratch::new();
        let mut memo = SpreadMemo::new();
        memo.begin_batch(g.node_index_bound());
        assert_eq!(memo.lookup(NodeId(0)), None, "cold memo serves nothing");
        for i in 0..3u32 {
            let n = reach_count(&g, NodeId(i), &mut s);
            memo.store(NodeId(i), n);
        }
        // Next batch: a novel edge 2 -> 3 dirties ancestors(2) = {0,1,2}.
        g.add_edge(NodeId(2), NodeId(3));
        memo.begin_batch(g.node_index_bound());
        let mut ancestors = Vec::new();
        reverse_reach_collect(&g, NodeId(2), &mut s, &mut ancestors);
        for n in ancestors {
            memo.mark_dirty(n);
        }
        assert_eq!(memo.dirty_len(), 3);
        for i in 0..3u32 {
            assert_eq!(memo.lookup(NodeId(i)), None, "dirty nodes must recompute");
        }
        // A redundant batch (no novel edges) serves every stored value.
        for i in 0..3u32 {
            memo.store(NodeId(i), reach_count(&g, NodeId(i), &mut s));
        }
        memo.begin_batch(g.node_index_bound());
        assert_eq!(memo.lookup(NodeId(0)), Some(4));
        assert_eq!(memo.lookup(NodeId(2)), Some(2));
        assert_eq!(memo.lookup(NodeId(3)), None, "never stored");
        memo.clear_cache();
        assert_eq!(memo.lookup(NodeId(0)), None, "cleared cache serves nothing");
    }

    #[test]
    fn reverse_reach_multi_collect_unions_ancestor_sets() {
        // 0 -> 2, 1 -> 2, 3 -> 4 (two components).
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(3), NodeId(4));
        let mut s = ReachScratch::new();
        let mut out = Vec::new();
        reverse_reach_union_ordered(&g, &[NodeId(2), NodeId(4)], &mut s, &mut out);
        out.sort();
        assert_eq!(
            out,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        // Duplicate starts dedup; empty starts yield the empty set.
        reverse_reach_union_ordered(&g, &[NodeId(2), NodeId(2)], &mut s, &mut out);
        assert_eq!(out.len(), 3);
        reverse_reach_union_ordered(&g, &[], &mut s, &mut out);
        assert!(out.is_empty());
    }

    /// Deterministic random digraph for differential traversal tests.
    fn random_graph(seed: u64, nodes: u32, edges: usize) -> AdnGraph {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        let mut g = AdnGraph::new();
        for _ in 0..edges {
            let (u, v) = (rnd(nodes), rnd(nodes));
            if u != v {
                g.add_edge(NodeId(u), NodeId(v));
            }
        }
        g
    }

    #[test]
    fn union_ordered_matches_per_source_full_bfs_merge() {
        // The shared-sweep fast path must reproduce, node for node in
        // order, what the per-source full reverse BFS + dedup merge (the
        // V̄_t construction both spread modes replay) produces.
        for seed in 0..30u64 {
            let g = random_graph(seed, 24, 40);
            let mut state = seed.wrapping_add(7) | 1;
            let mut rnd = move |m: u32| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as u32) % m
            };
            let sources: Vec<NodeId> = (0..1 + rnd(8)).map(|_| NodeId(rnd(24))).collect();
            let mut s = ReachScratch::new();
            // Reference: full BFS per source, merged with dedup in order.
            let mut reference = Vec::new();
            let mut seen = crate::hash::FxHashSet::default();
            let mut one = Vec::new();
            for &src in &sources {
                reverse_reach_collect(&g, src, &mut s, &mut one);
                for &a in &one {
                    if seen.insert(a) {
                        reference.push(a);
                    }
                }
            }
            let mut got = Vec::new();
            reverse_reach_union_ordered(&g, &sources, &mut s, &mut got);
            assert_eq!(got, reference, "seed {seed} sources {sources:?}");
        }
    }

    // The four `batch64` tests below pin the one-word (64-lane) top-down
    // kernels — the `Fixed { lanes: 64, direction: TopDown }` grid cell —
    // on their original cases; the width-generic tests further down cover
    // the wider labels and the `Auto` direction.

    #[test]
    fn reach_count_batch64_matches_scalar_counts() {
        for seed in 0..20u64 {
            let g = random_graph(seed, 40, 90);
            let sources: Vec<NodeId> = (0..40).map(NodeId).collect();
            let mut s = ReachScratch::new();
            for chunk in sources.chunks(BATCH_LANES) {
                let mut counts = vec![0u64; chunk.len()];
                reach_count_batch_wide(&g, chunk, 1, SweepDirection::TopDown, &mut s, &mut counts);
                for (&src, &got) in chunk.iter().zip(&counts) {
                    assert_eq!(got, reach_count(&g, src, &mut s), "seed {seed} src {src:?}");
                }
            }
        }
    }

    #[test]
    fn reach_count_batch64_handles_lane_edges() {
        let g = line_graph(4);
        let mut s = ReachScratch::new();
        // Empty batch is a no-op.
        reach_count_batch_wide(&g, &[], 1, SweepDirection::TopDown, &mut s, &mut []);
        // Duplicate sources occupy independent lanes with equal counts; a
        // 64-lane full batch exercises the top bit.
        let sources: Vec<NodeId> = (0..64).map(|i| NodeId(i % 4)).collect();
        let mut counts = vec![0u64; 64];
        reach_count_batch_wide(
            &g,
            &sources,
            1,
            SweepDirection::TopDown,
            &mut s,
            &mut counts,
        );
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, 4 - (i as u64 % 4));
        }
    }

    #[test]
    fn reverse_batch64_lanes_match_multi_collect() {
        for seed in 0..20u64 {
            let g = random_graph(seed.wrapping_add(100), 30, 55);
            let lane_sources: Vec<Vec<NodeId>> = (0..10)
                .map(|i| {
                    (0..1 + (seed + i) % 3)
                        .map(|j| NodeId(((seed * 7 + i * 5 + j * 11) % 30) as u32))
                        .collect()
                })
                .collect();
            let lanes: Vec<&[NodeId]> = lane_sources.iter().map(Vec::as_slice).collect();
            let mut s = ReachScratch::new();
            let mut per_node: Vec<u64> = vec![0; 30];
            reverse_reach_batch::<1, _>(
                &g,
                &lanes,
                |_, _| [0],
                SweepDirection::TopDown,
                &mut s,
                |n, w| per_node[n.index()] = w[0],
            );
            let mut expect = Vec::new();
            for (i, srcs) in lane_sources.iter().enumerate() {
                reverse_reach_union_ordered(&g, srcs, &mut s, &mut expect);
                for n in 0..30u32 {
                    let in_lane = expect.contains(&NodeId(n));
                    let bit = per_node[n as usize] >> i & 1 == 1;
                    assert_eq!(bit, in_lane, "seed {seed} lane {i} node {n}");
                }
            }
        }
    }

    #[test]
    fn batched_old_sink_deltas_match_sequential_patch() {
        for seed in 0..15u64 {
            let mut g = random_graph(seed.wrapping_add(500), 25, 40);
            // Pick some "sinks" and attach fresh in-edges to them.
            let mut state = seed | 1;
            let mut rnd = move |m: u32| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as u32) % m
            };
            let mut sinks: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            for i in 0..1 + rnd(4) {
                let sink = NodeId(25 + i);
                let fresh: Vec<NodeId> = (0..1 + rnd(3)).map(|_| NodeId(rnd(25))).collect();
                for &f in &fresh {
                    g.add_edge(f, sink);
                }
                sinks.push((sink, fresh));
            }
            let bound = g.node_index_bound();
            let mut s = ReachScratch::new();
            let mut seq = SpreadMemo::new();
            seq.begin_batch(bound);
            for (sink, fresh) in &sinks {
                seq.apply_old_sink_delta(&g, *sink, fresh, &mut s);
            }
            let mut batched = SpreadMemo::new();
            batched.begin_batch(bound);
            batched.apply_old_sink_deltas_wide(&g, &sinks, 1, SweepDirection::TopDown, &mut s);
            for n in 0..bound as u32 {
                assert_eq!(
                    batched.delta_of(NodeId(n)),
                    seq.delta_of(NodeId(n)),
                    "seed {seed} node {n}"
                );
            }
        }
    }

    #[test]
    fn epoch_wrap_cannot_alias_marks_at_any_width() {
        let g = line_graph(5);
        let sources = [NodeId(0), NodeId(2)];
        for words in [1usize, 2, 4] {
            for dir in [SweepDirection::TopDown, SweepDirection::Auto] {
                let mut s = ReachScratch::new();
                s.force_epochs_near_wrap();
                for _ in 0..5 {
                    // Repeated calls across the wrap keep answers exact.
                    let mut counts = [0u64; 2];
                    reach_count_batch_wide(&g, &sources, words, dir, &mut s, &mut counts);
                    assert_eq!(counts, [5, 3], "words {words} dir {dir:?}");
                    let mut out = Vec::new();
                    reverse_reach_union_ordered(&g, &[NodeId(4)], &mut s, &mut out);
                    assert_eq!(out.len(), 5);
                }
            }
        }
    }

    #[test]
    fn wide_reverse_matches_multi_collect_across_widths_and_directions() {
        // Up to 256 lanes: every shipped width × direction must produce
        // exactly the per-lane reverse reachability sets. Lanes carry 1–3
        // sources each, so a lane's set is a multi-source union.
        for seed in 0..6u64 {
            let g = random_graph(seed.wrapping_add(900), 120, 360);
            let lane_sources: Vec<Vec<NodeId>> = (0..MAX_BATCH_LANES as u64)
                .map(|i| {
                    (0..1 + (seed + i) % 3)
                        .map(|j| NodeId(((seed * 13 + i * 7 + j * 11) % 120) as u32))
                        .collect()
                })
                .collect();
            let mut s = ReachScratch::new();
            let mut expect_bits: Vec<[u64; 4]> = vec![[0; 4]; 120];
            let mut one = Vec::new();
            for (i, srcs) in lane_sources.iter().enumerate() {
                reverse_reach_union_ordered(&g, srcs, &mut s, &mut one);
                for &n in &one {
                    expect_bits[n.index()][i >> 6] |= 1u64 << (i & 63);
                }
            }
            for &(words, lanes_used) in &[(1usize, 64usize), (2, 128), (4, 256)] {
                for dir in [SweepDirection::TopDown, SweepDirection::Auto] {
                    let lanes: Vec<&[NodeId]> = lane_sources[..lanes_used]
                        .iter()
                        .map(Vec::as_slice)
                        .collect();
                    let mut got: Vec<[u64; 4]> = vec![[0; 4]; 120];
                    let mut visits = 0usize;
                    reverse_reach_batch_wide(&g, &lanes, words, dir, &mut s, |n, mask| {
                        got[n.index()] = mask;
                        visits += 1;
                    });
                    for n in 0..120usize {
                        let mut want = expect_bits[n];
                        for (w, word) in want.iter_mut().enumerate() {
                            // Mask expectation down to the lanes this width ran.
                            if (w + 1) * 64 > lanes_used {
                                *word &= if w * 64 >= lanes_used {
                                    0
                                } else {
                                    u64::MAX >> (64 - (lanes_used - w * 64))
                                };
                            }
                        }
                        assert_eq!(
                            got[n], want,
                            "seed {seed} words {words} dir {dir:?} node {n}"
                        );
                    }
                    let reached = expect_bits
                        .iter()
                        .enumerate()
                        .filter(|(n, _)| {
                            lane_sources[..lanes_used]
                                .iter()
                                .flatten()
                                .any(|src| src.index() == *n)
                                || got[*n] != [0; 4]
                        })
                        .count();
                    assert_eq!(visits, reached, "visit fires once per reached node");
                }
            }
        }
    }

    #[test]
    fn wide_counts_match_scalar_across_widths_and_directions() {
        for seed in 0..6u64 {
            let g = random_graph(seed.wrapping_add(1300), 150, 420);
            // Duplicates occupy independent lanes with equal counts.
            let sources: Vec<NodeId> = (0..MAX_BATCH_LANES)
                .map(|i| NodeId(((seed * 11 + i as u64 * 5) % 150) as u32))
                .collect();
            let mut s = ReachScratch::new();
            let expect: Vec<u64> = sources
                .iter()
                .map(|&src| reach_count(&g, src, &mut s))
                .collect();
            // The empty batch is a no-op; full batches set each width's top bit.
            for &(words, lanes_used) in &[(1usize, 0usize), (1, 64), (2, 128), (4, 256)] {
                for dir in [SweepDirection::TopDown, SweepDirection::Auto] {
                    let mut counts = vec![0u64; lanes_used];
                    reach_count_batch_wide(
                        &g,
                        &sources[..lanes_used],
                        words,
                        dir,
                        &mut s,
                        &mut counts,
                    );
                    assert_eq!(
                        counts,
                        expect[..lanes_used],
                        "seed {seed} words {words} dir {dir:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_direction_runs_bottom_up_on_wide_frontiers_with_equal_labels() {
        // A dense graph (large enough to clear the minimum-frontier floor)
        // with 64 seed lanes makes the pending frontier exceed live/8, so
        // Auto must take bottom-up rounds — and still produce bit-identical
        // labels and counts.
        let g = random_graph(77, 6000, 60_000);
        let lane_sources: Vec<NodeId> = (0..64).map(|i| NodeId((i * 37) % 6000)).collect();
        let lanes: Vec<&[NodeId]> = lane_sources.iter().map(std::slice::from_ref).collect();
        let mut s = ReachScratch::new();
        let mut top: Vec<u64> = vec![0; 6000];
        reverse_reach_batch::<1, _>(
            &g,
            &lanes,
            |_, _| [0],
            SweepDirection::TopDown,
            &mut s,
            |n, w| top[n.index()] = w[0],
        );
        assert_eq!(s.bottom_up_rounds(), 0, "TopDown never scans bottom-up");
        let mut auto: Vec<u64> = vec![0; 6000];
        reverse_reach_batch::<1, _>(
            &g,
            &lanes,
            |_, _| [0],
            SweepDirection::Auto,
            &mut s,
            |n, w| auto[n.index()] = w[0],
        );
        assert!(
            s.bottom_up_rounds() > 0,
            "dense flash-crowd frontier must trigger the direction switch"
        );
        assert!(bottom_up_sweeps() > 0, "process-wide switch tally moved");
        assert_eq!(auto, top, "direction changes labels never");
        // Forward counting: same switch, same counts.
        let mut counts_top = vec![0u64; 64];
        reach_count_batch::<1, _>(
            &g,
            &lane_sources,
            SweepDirection::TopDown,
            &mut s,
            &mut counts_top,
        );
        let mut counts_auto = vec![0u64; 64];
        reach_count_batch::<1, _>(
            &g,
            &lane_sources,
            SweepDirection::Auto,
            &mut s,
            &mut counts_auto,
        );
        assert!(s.bottom_up_rounds() > 0);
        assert_eq!(counts_auto, counts_top);
    }

    #[test]
    fn wide_old_sink_deltas_match_sequential_patch() {
        for seed in 0..12u64 {
            let mut g = random_graph(seed.wrapping_add(2100), 60, 140);
            let mut state = seed.wrapping_add(3) | 1;
            let mut rnd = move |m: u32| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as u32) % m
            };
            // A handful of sinks (one partial pair-lane word), then enough
            // sinks to span multiple pair-lane words at width 1.
            let sink_count = if seed < 4 { 1 + rnd(4) } else { 40 + rnd(30) };
            let mut sinks: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            for i in 0..sink_count {
                let sink = NodeId(60 + i);
                let fresh: Vec<NodeId> = (0..1 + rnd(3)).map(|_| NodeId(rnd(60))).collect();
                for &f in &fresh {
                    g.add_edge(f, sink);
                }
                sinks.push((sink, fresh));
            }
            let bound = g.node_index_bound();
            let mut s = ReachScratch::new();
            let mut seq = SpreadMemo::new();
            seq.begin_batch(bound);
            for (sink, fresh) in &sinks {
                seq.apply_old_sink_delta(&g, *sink, fresh, &mut s);
            }
            for words in [1usize, 2, 4] {
                for dir in [SweepDirection::TopDown, SweepDirection::Auto] {
                    let mut wide = SpreadMemo::new();
                    wide.begin_batch(bound);
                    wide.apply_old_sink_deltas_wide(&g, &sinks, words, dir, &mut s);
                    for n in 0..bound as u32 {
                        assert_eq!(
                            wide.delta_of(NodeId(n)),
                            seq.delta_of(NodeId(n)),
                            "seed {seed} words {words} dir {dir:?} node {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn drain_compaction_work_stays_linear_on_reentrant_growth() {
        // Adversarial re-entrant growth: 64 lanes seeded at staggered
        // depths of one long path. Every prefix node's label grows once
        // per deeper lane that reaches it, re-entering the worklist each
        // time — the drain heuristic must still move at most one queue
        // entry per push (no quadratic re-drain).
        let n = 4096u32;
        let g = line_graph(n);
        let seeds: Vec<NodeId> = (0..64).map(|i| NodeId(n - 1 - i * 60)).collect();
        let lanes: Vec<&[NodeId]> = seeds.iter().map(std::slice::from_ref).collect();
        let mut s = ReachScratch::new();
        let mut reached = 0u64;
        reverse_reach_batch::<1, _>(
            &g,
            &lanes,
            |_, _| [0],
            SweepDirection::TopDown,
            &mut s,
            |_, _| reached += 1,
        );
        assert_eq!(reached, n as u64, "every path node is some lane's ancestor");
        let (pushes, compactions, moved) = s.drain_stats();
        assert!(
            compactions > 0,
            "the adversarial queue must actually trigger compaction"
        );
        assert!(
            moved <= pushes,
            "compaction moved {moved} entries for {pushes} pushes — super-linear re-drain"
        );
    }

    #[test]
    fn lane_width_selection_and_chunking() {
        assert_eq!(lane_width_for(0), 1);
        assert_eq!(lane_width_for(1), 1);
        assert_eq!(lane_width_for(BATCH_LANES), 1);
        assert_eq!(lane_width_for(BATCH_LANES + 1), 2);
        assert_eq!(lane_width_for(128), 2);
        assert_eq!(lane_width_for(129), 4);
        assert_eq!(lane_width_for(MAX_BATCH_LANES), 4);
        let items: Vec<u32> = (0..300).collect();
        let sizes: Vec<usize> = lane_chunks(&items, MAX_BATCH_LANES)
            .map(<[u32]>::len)
            .collect();
        assert_eq!(sizes, vec![256, 44]);
        assert_eq!(lane_width_for(sizes[1]), 1, "short tail drops to 64-bit");
        let sizes64: Vec<usize> = lane_chunks(&items, BATCH_LANES).map(<[u32]>::len).collect();
        assert_eq!(sizes64.len(), 5);
        assert!(std::panic::catch_unwind(|| lane_width_for(MAX_BATCH_LANES + 1)).is_err());
    }

    #[test]
    fn spread_memo_accumulates_exact_deltas() {
        let mut memo = SpreadMemo::new();
        memo.begin_batch(4);
        memo.store(NodeId(0), 5);
        memo.begin_batch(4);
        memo.add_delta(NodeId(0));
        memo.add_delta(NodeId(0));
        memo.add_delta(NodeId(1));
        assert_eq!(memo.delta_of(NodeId(0)), 2);
        assert_eq!(memo.delta_of(NodeId(2)), 0);
        assert_eq!(memo.lookup_patched(NodeId(0)), Some(7));
        assert_eq!(memo.lookup_patched(NodeId(1)), None, "no stored base value");
        // Deltas are per batch: the next begin_batch forgets them.
        memo.begin_batch(4);
        assert_eq!(memo.delta_of(NodeId(0)), 0);
        assert_eq!(memo.lookup_patched(NodeId(0)), Some(5));
    }

    #[test]
    fn spread_stats_clones_share_and_restore() {
        let a = SpreadStats::new();
        let b = a.clone();
        a.note_redundant();
        b.note_novel(true);
        b.add_cache_hits(5);
        a.add_cache_misses(2);
        a.note_batch(false);
        b.note_batch(true);
        a.note_sink_delta();
        a.note_sink_delta();
        let snap = a.snapshot();
        assert_eq!(snap.redundant_edges, 1);
        assert_eq!(snap.sink_delta_edges, 2);
        assert_eq!(snap.novel_edges, 1);
        assert_eq!(snap.probe_budget_exhausted, 1);
        assert_eq!(snap.cache_hits, 5);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.patched_batches, 1);
        assert_eq!(snap.rebuilt_batches, 1);
        let fresh = SpreadStats::new();
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap);
        let mut w = codec::Writer::new();
        snap.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        assert_eq!(SpreadStatsSnapshot::read_snapshot(&mut r).unwrap(), snap);
        r.finish().unwrap();
    }

    #[test]
    fn spread_memo_snapshot_round_trip_and_validation() {
        let mut memo = SpreadMemo::new();
        memo.begin_batch(4);
        memo.store(NodeId(0), 3);
        memo.store(NodeId(2), 1);
        let mut w = codec::Writer::new();
        memo.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        let mut back = SpreadMemo::read_snapshot(&mut r, 4).expect("round trip");
        r.finish().expect("fully consumed");
        back.begin_batch(4);
        assert_eq!(back.lookup(NodeId(0)), Some(3));
        assert_eq!(back.lookup(NodeId(1)), None);
        assert_eq!(back.lookup(NodeId(2)), Some(1));
        // Larger than the owning graph: rejected.
        let mut r = codec::Reader::new(&bytes);
        assert!(SpreadMemo::read_snapshot(&mut r, 3).is_err());
        // Every truncation errors instead of panicking.
        for cut in 0..bytes.len() {
            let mut r = codec::Reader::new(&bytes[..cut]);
            let res = SpreadMemo::read_snapshot(&mut r, 4).and_then(|_| r.finish());
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
        // Hand-encoded payloads: slot count, validity bitmap, value run,
        // then the probe counters (run, hit, skips).
        let encode = |n: u64, bitmap: &[u64], values: &[u64], run: u64, hit: u64| {
            let mut w = codec::Writer::new();
            w.put_u64(n);
            w.put_u64_run(bitmap);
            w.put_u64_run(values);
            for v in [run, hit, 0] {
                w.put_u64(v);
            }
            w.into_vec()
        };
        let decode = |bytes: &[u8]| SpreadMemo::read_snapshot(&mut codec::Reader::new(bytes), 4);
        decode(&encode(1, &[1], &[4], 2, 1)).expect("valid hand encoding");
        // A stored spread of 0 (or beyond the bound) is semantically
        // impossible and must be a typed error, not trusted data.
        for bad in [0u64, 5] {
            assert!(decode(&encode(1, &[1], &[bad], 0, 0)).is_err(), "{bad}");
        }
        // Probe hits cannot exceed probes run.
        assert!(decode(&encode(1, &[1], &[4], 1, 2)).is_err());
        // The bitmap must have one word per 64 slots, mark no slot past
        // the end, and agree with the value run.
        assert!(decode(&encode(1, &[], &[], 0, 0)).is_err());
        assert!(decode(&encode(1, &[0b11], &[4, 4], 0, 0)).is_err());
        assert!(decode(&encode(2, &[0b11], &[4], 0, 0)).is_err());
    }

    #[test]
    fn spread_memo_raw_snapshot_matches_element_wise() {
        let mut memo = SpreadMemo::new();
        memo.begin_batch(130); // spans three bitmap words
        memo.store(NodeId(0), 3);
        memo.store(NodeId(64), 1);
        memo.store(NodeId(129), 100);
        memo.note_probe(true);
        memo.note_probe(false);
        let mut w = codec::Writer::new();
        memo.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        let mut back = SpreadMemo::read_snapshot(&mut r, 130).expect("round trip");
        r.finish().expect("fully consumed");
        // The restored memo answers exactly like the live one, slot by
        // slot, and carries the same probe-gate counters.
        back.begin_batch(130);
        memo.begin_batch(130);
        for n in 0..130 {
            assert_eq!(back.lookup(NodeId(n)), memo.lookup(NodeId(n)), "slot {n}");
        }
        assert_eq!((back.probes_run, back.probes_hit), (2, 1));
        // ...and both evolve identically: same gate decisions through the
        // warm-up window and beyond, same bytes afterwards.
        for (i, m) in [&mut memo, &mut back].into_iter().enumerate() {
            m.begin_batch(200);
            m.mark_dirty(NodeId(64));
            m.store(NodeId(64), 7);
            m.store(NodeId(150), 2);
            let gates: Vec<bool> = (0..100)
                .map(|j| {
                    let open = m.probe_gate();
                    m.note_probe(j % 50 == 0);
                    open
                })
                .collect();
            assert!(gates.iter().any(|&g| !g), "copy {i}: gate never closed");
        }
        let bytes_of = |m: &SpreadMemo| {
            let mut w = codec::Writer::new();
            m.write_snapshot(&mut w);
            w.into_vec()
        };
        assert_eq!(bytes_of(&back), bytes_of(&memo));
    }

    #[test]
    fn memo_release_memory_returns_billed_bytes() {
        let mut memo = SpreadMemo::new();
        memo.begin_batch(1000);
        for i in 0..1000 {
            memo.store(NodeId(i), 1);
        }
        memo.mark_dirty(NodeId(3));
        let before = memo.approx_bytes();
        assert!(before >= 1000 * std::mem::size_of::<u64>());
        let released = memo.release_memory();
        // Accounting identity: what release reports is exactly the drop in
        // what approx_bytes bills — no hidden allocations either way.
        assert_eq!(before - memo.approx_bytes(), released);
        assert!(released >= 1000 * std::mem::size_of::<u64>());
        // The memo remains usable and exact: values are simply gone.
        memo.begin_batch(1000);
        assert_eq!(memo.lookup(NodeId(5)), None);
        memo.store(NodeId(5), 7);
        assert_eq!(memo.lookup(NodeId(5)), Some(7));
    }

    #[test]
    fn cover_bills_its_word_array_and_iterates_canonically() {
        // One node at index 1023 needs exactly 16 words: billed, but not
        // wildly over-reported.
        let mut cover = CoverSet::new();
        cover.insert(NodeId(1023));
        assert!(cover.approx_bytes() >= 16 * 8, "word array not billed");
        assert!(
            cover.approx_bytes() <= 4 * 16 * 8 + 64,
            "{} bytes billed for 16 words",
            cover.approx_bytes()
        );
        // Covers iterate (and therefore checkpoint) in ascending order.
        cover.insert(NodeId(3));
        let order: Vec<u32> = cover.iter().map(|n| n.0).collect();
        assert_eq!(order, vec![3, 1023]);
    }

    #[test]
    fn cover_word_snapshot_matches_element_wise() {
        let cover: CoverSet = [3u32, 64, 700].into_iter().map(NodeId).collect();
        let mut w = codec::Writer::new();
        cover.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        let mut back = CoverSet::read_snapshot(&mut r).expect("round trip");
        r.finish().expect("fully consumed");
        assert_eq!(back.len(), 3);
        let a: Vec<NodeId> = cover.iter().collect();
        let b: Vec<NodeId> = back.iter().collect();
        assert_eq!(a, b);
        // The restored cover keeps growing like the live one would.
        let mut live = cover.clone();
        for n in [3u32, 65, 4000] {
            assert_eq!(back.insert(NodeId(n)), live.insert(NodeId(n)), "{n}");
        }
        assert!(back.iter().eq(live.iter()));
        // Every truncation errors instead of panicking.
        for cut in 0..bytes.len() {
            let mut r = codec::Reader::new(&bytes[..cut]);
            let res = CoverSet::read_snapshot(&mut r).and_then(|_| r.finish());
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn shed_counters_tally_and_survive_v3_round_trip() {
        let stats = SpreadStats::new();
        stats.note_shed(1);
        stats.note_shed(2);
        stats.note_shed(2);
        stats.note_shed(3);
        let snap = stats.snapshot();
        assert_eq!(
            (snap.shed_memo, snap.shed_arena, snap.shed_fallback),
            (1, 2, 1)
        );
        // The checkpoint layout carries all eleven tallies, shed counters
        // included.
        let mut w = codec::Writer::new();
        snap.write_snapshot(&mut w);
        let bytes = w.into_vec();
        assert_eq!(bytes.len(), 11 * 8);
        let mut r = codec::Reader::new(&bytes);
        assert_eq!(SpreadStatsSnapshot::read_snapshot(&mut r).unwrap(), snap);
        r.finish().unwrap();
        for cut in 0..bytes.len() {
            let mut r = codec::Reader::new(&bytes[..cut]);
            assert!(SpreadStatsSnapshot::read_snapshot(&mut r).is_err());
        }
    }
}
