//! SIEVEADN (Alg. 1): threshold-sieve tracking of influential nodes over an
//! *addition-only* dynamic interaction network.
//!
//! Differences from plain SIEVESTREAMING that the paper's Theorem 2 handles
//! and this implementation mirrors:
//!
//! * nodes may re-appear in the node stream (`V̄_t` = nodes whose spread
//!   changed, recomputed per batch via reverse BFS from new edge sources);
//! * the objective `f_t` grows over time as edges accumulate. Each
//!   threshold keeps its reach *cover* `R_θ = reach(S_θ)` incrementally
//!   up to date: inserting edge `(u, v)` with `u` covered extends the cover
//!   by `reach(v)`. This keeps `f_t(S_θ) = |R_θ|` exact at all times, so
//!   query-time `argmax` needs no extra oracle calls.
//!
//! Oracle-call accounting: one call per singleton evaluation, per marginal
//! gain test, and per cover-extension BFS. Thresholds dropped by a ladder
//! shift *within the same batch* are never evaluated (batch-lazy sieving),
//! so the tally is independent of thread count by construction.
//!
//! ## Parallel decomposition (see DESIGN.md "Concurrency architecture")
//!
//! [`SieveAdn::feed`] runs in phases. Graph insertion and the Δ-ladder
//! replay are serial (order-sensitive, O(1) per event); everything
//! expensive — cover maintenance per threshold, singleton spreads per
//! affected node, and candidate admission per threshold — fans out on the
//! execution engine over *independent* state, each worker holding a
//! thread-confined [`ScratchPool`] arena. Every threshold's admission
//! decisions depend only on its own cover and the (fixed) `V̄_t` order, so
//! results are bit-identical at any `TDN_THREADS` setting.
//!
//! ## Incremental spread maintenance (see DESIGN.md)
//!
//! Under [`SpreadMode::Incremental`] (the default), the batch's fresh
//! edges are classified on insert: a new pair `(u, v)` whose target was
//! already reachable from its source changes **no** node's reach set, so
//! only the ancestors of *novel* edge sources are marked dirty in an
//! epoch-tagged [`SpreadMemo`]. Phase 4a then serves clean nodes' spreads
//! from the memo and recomputes only the dirty ones (a cost model falls
//! back to a full rebuild when the dirty set dominates `V̄_t`). Served
//! values are exactly what a BFS would return, `V̄_t`'s membership and
//! order are computed identically, and the oracle tally still charges one
//! call per singleton evaluation — so solutions and tallies are
//! bit-identical to [`SpreadMode::FullRecompute`], the retained
//! pre-engine reference path (`tests/differential_spread.rs` is the
//! enforcing oracle).

use crate::config::TrackerConfig;
use crate::tracker::{InfluenceTracker, Solution};
use std::collections::BTreeMap;
use tdn_graph::{
    lane_chunks, lane_width_for, marginal_gain, reach_count, reach_count_batch_wide,
    reverse_reach_batch_wide, reverse_reach_collect, reverse_reach_union_ordered, AdnGraph,
    CoverSet, EdgeInsert, FxHashMap, FxHashSet, Graph, NodeId, ScratchPool, SketchParams,
    SketchPool, SpreadMemo, SpreadStats, SpreadStatsSnapshot, SweepDirection, Time,
    MAX_BATCH_LANES,
};
use tdn_streams::TimedEdge;
use tdn_submodular::{OracleCounter, ThresholdLadder};

/// How SIEVEADN evaluates the singleton spreads of `V̄_t` each batch.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SpreadMode {
    /// The incremental spread-maintenance engine: redundancy-classified
    /// inserts, epoch-tagged dirty sets, memoised spreads with a
    /// patch-vs-rebuild cost model. Bit-identical outputs, much less BFS.
    #[default]
    Incremental,
    /// The reference path: full recomputation of every `V̄_t` spread per
    /// batch (one reverse BFS per edge source, one forward BFS per node).
    /// Retained verbatim as the differential-testing oracle (and as the
    /// baseline the `engine` experiment measures against).
    FullRecompute,
    /// Bounded-error estimation: singleton spreads are served from a
    /// [`SketchPool`] of reverse-reachable sets maintained under inserts,
    /// within `ε·n` of the exact value w.p. ≥ 1 − δ per estimate (see
    /// DESIGN.md § Sketch-based spread estimation). Covers — and therefore
    /// reported solution *values* — stay exact; only the sieve's view of
    /// `f({v})` is approximate. Deterministic at any thread count and
    /// across checkpoint/restore (`tests/sketch_conformance.rs`).
    Sketch(SketchParams),
}

impl SpreadMode {
    /// Serializes the mode: a tag byte, plus the sketch params for
    /// [`SpreadMode::Sketch`].
    pub(crate) fn write_snapshot(self, w: &mut codec::Writer) {
        match self {
            SpreadMode::Incremental => w.put_u8(1),
            SpreadMode::FullRecompute => w.put_u8(2),
            SpreadMode::Sketch(p) => {
                w.put_u8(3);
                p.write_snapshot(w);
            }
        }
    }

    /// Parses a mode written by [`Self::write_snapshot`].
    pub(crate) fn read_snapshot(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        match r.get_u8()? {
            1 => Ok(SpreadMode::Incremental),
            2 => Ok(SpreadMode::FullRecompute),
            3 => Ok(SpreadMode::Sketch(SketchParams::read_snapshot(r)?)),
            _ => Err(codec::CodecError::Invalid("unknown spread mode tag")),
        }
    }
}

/// How the incremental engine batches its bit-parallel traversal kernels
/// (phase-3 dirty/delta marking and phase-3b old-sink patches, which sweep
/// in reverse, and phase-4a spread rebuilds, which count forward on the
/// cone's SCC condensation and have no direction). Every setting produces
/// bit-identical solutions, oracle tallies and engine tallies. Production
/// runs [`Self::Wide`]; [`Self::Fixed`] exists so differential tests can
/// pin any point of the width × direction grid.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TraversalKind {
    /// The wide-lane direction-optimizing engine: lane batches are sized
    /// to the work (up to [`MAX_BATCH_LANES`] = 256 lanes per traversal,
    /// word width chosen per chunk), and every reverse sweep may switch
    /// between top-down worklist rounds and prefetched bottom-up scans
    /// ([`SweepDirection::Auto`]).
    #[default]
    Wide,
    /// A pinned point of the batched grid: exactly `lanes` lanes per
    /// traversal (rounded to a label width of 1, 2 or 4 words), reverse
    /// sweeps in `direction`. Differential tests iterate this variant to
    /// prove the whole grid bit-identical; [`Self::Wide`] picks the same
    /// code paths adaptively.
    Fixed {
        /// Max multi-source lanes per traversal (1..=[`MAX_BATCH_LANES`]).
        lanes: usize,
        /// Sweep policy for every reverse sweep this setting issues.
        direction: SweepDirection,
    },
}

/// Resolved batching parameters of a [`TraversalKind`].
#[derive(Copy, Clone)]
struct BatchParams {
    /// Max lanes per traversal; work is chunked to this.
    max_lanes: usize,
    /// Sweep policy handed to every reverse sweep.
    direction: SweepDirection,
    /// Label width in words, or `None` to size per chunk
    /// ([`lane_width_for`] of the chunk length).
    pinned_width: Option<usize>,
}

impl BatchParams {
    /// Label width in words for a chunk of `chunk_len` lanes.
    fn width_for(&self, chunk_len: usize) -> usize {
        self.pinned_width
            .unwrap_or_else(|| lane_width_for(chunk_len))
    }
}

impl TraversalKind {
    /// The batching parameters the lane-batched phases run with.
    fn batch_params(self) -> BatchParams {
        match self {
            TraversalKind::Wide => BatchParams {
                max_lanes: MAX_BATCH_LANES,
                direction: SweepDirection::Auto,
                pinned_width: None,
            },
            TraversalKind::Fixed { lanes, direction } => BatchParams {
                max_lanes: lanes,
                direction,
                pinned_width: Some(lane_width_for(lanes)),
            },
        }
    }
}

/// Cost-model knob: max BFS expansions a redundancy probe may spend before
/// giving up (classifying the edge novel — sound, just less savings). Keeps
/// the probe strictly cheaper than the ancestor invalidation it avoids.
const PROBE_BUDGET: usize = 512;

/// Cost-model knob: when at least `3/4` of `V̄_t` is dirty, patching is
/// pointless — rebuild every spread without consulting the memo.
const REBUILD_NUM: usize = 3;
/// Denominator of the rebuild threshold (see [`REBUILD_NUM`]).
const REBUILD_DEN: usize = 4;

/// One threshold's partial solution: seeds plus their reach cover.
#[derive(Clone, Debug, Default)]
struct Slot {
    seeds: Vec<NodeId>,
    cover: CoverSet,
}

/// A SIEVEADN instance (Alg. 1).
///
/// Cloning an instance copies its graph and sieves but *shares* the oracle
/// counter — exactly what HISTAPPROX's instance copies need.
#[derive(Clone)]
pub struct SieveAdn {
    graph: AdnGraph,
    ladder: ThresholdLadder,
    slots: BTreeMap<i64, Slot>,
    k: usize,
    singleton_prune: bool,
    counter: OracleCounter,
    scratch: ScratchPool,
    mode: SpreadMode,
    traversal: TraversalKind,
    memo: SpreadMemo,
    /// Present iff `mode` is [`SpreadMode::Sketch`]: the reverse-reachable
    /// sketch pool singleton spreads are served from.
    sketch: Option<SketchPool>,
}

impl SieveAdn {
    /// Creates an instance with budget `k` and accuracy `eps`, charging
    /// oracle calls to `counter`. Spreads are maintained incrementally
    /// ([`SpreadMode::Incremental`]); see [`Self::with_spread_mode`].
    pub fn new(k: usize, eps: f64, singleton_prune: bool, counter: OracleCounter) -> Self {
        SieveAdn {
            graph: AdnGraph::new(),
            ladder: ThresholdLadder::new(eps, k),
            slots: BTreeMap::new(),
            k,
            singleton_prune,
            counter,
            scratch: ScratchPool::new(),
            mode: SpreadMode::default(),
            traversal: TraversalKind::default(),
            memo: SpreadMemo::new(),
            sketch: None,
        }
    }

    /// Creates an instance from a [`TrackerConfig`].
    pub fn from_config(cfg: &TrackerConfig, counter: OracleCounter) -> Self {
        SieveAdn::new(cfg.k, cfg.eps, cfg.singleton_prune, counter)
    }

    /// Sets the spread-maintenance mode (builder form).
    pub fn with_spread_mode(mut self, mode: SpreadMode) -> Self {
        self.set_spread_mode(mode);
        self
    }

    /// Sets the spread-maintenance mode. Switching modes forgets the memo
    /// (a cache that stopped observing mutations can no longer be trusted)
    /// and re-derives the sketch pool: switching *to* [`SpreadMode::Sketch`]
    /// seeds a pool from the accumulated graph (universe in ascending node
    /// order — deterministic regardless of hash ordering); switching away
    /// drops it.
    pub fn set_spread_mode(&mut self, mode: SpreadMode) {
        if self.mode != mode {
            self.mode = mode;
            self.memo.clear_cache();
            self.sketch = match mode {
                SpreadMode::Sketch(p) => Some(SketchPool::init_from_graph(
                    p,
                    &self.graph,
                    self.graph.nodes().collect(),
                )),
                _ => None,
            };
        }
    }

    /// The active spread-maintenance mode.
    pub fn spread_mode(&self) -> SpreadMode {
        self.mode
    }

    /// Sets the traversal backend (builder form). Pure strategy — outputs
    /// are bit-identical either way — so no state is invalidated and the
    /// knob is not serialized (restored instances use the default).
    pub fn with_traversal(mut self, traversal: TraversalKind) -> Self {
        self.set_traversal(traversal);
        self
    }

    /// Sets the traversal backend.
    pub fn set_traversal(&mut self, traversal: TraversalKind) {
        self.traversal = traversal;
    }

    /// The active traversal backend.
    pub fn traversal(&self) -> TraversalKind {
        self.traversal
    }

    /// Replaces the incremental engine's stats handle (clones of the
    /// handle share one tally; trackers aggregate across instances).
    pub fn share_spread_stats(&mut self, stats: SpreadStats) {
        self.memo.set_stats(stats);
    }

    /// Current incremental-engine tallies for the stats handle this
    /// instance bills.
    pub fn spread_stats(&self) -> SpreadStatsSnapshot {
        self.memo.stats().snapshot()
    }

    /// The accumulated ADN.
    pub fn graph(&self) -> &AdnGraph {
        &self.graph
    }

    /// The reverse-reachable sketch pool, present iff the active mode is
    /// [`SpreadMode::Sketch`] (read access for conformance harnesses).
    pub fn sketch_pool(&self) -> Option<&SketchPool> {
        self.sketch.as_ref()
    }

    /// Number of active thresholds.
    pub fn num_thresholds(&self) -> usize {
        self.slots.len()
    }

    /// Feeds a batch of edges (Alg. 1 lines 2–11) and updates all sieves.
    ///
    /// Expensive phases fan out on the execution engine (see the module
    /// docs); the answer and the oracle-call tally are bit-identical at any
    /// thread count.
    pub fn feed<I>(&mut self, edges: I)
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let incremental = self.mode == SpreadMode::Incremental;
        // Phase 1 (serial, order-sensitive): lines 2–3, insert the batch.
        // Incremental mode classifies each fresh pair on insert: an edge
        // `(u, v)` with `v` already reachable from `u` (probed in the graph
        // as of that insert, within PROBE_BUDGET expansions) changes no
        // node's reach set; an edge into a never-seen target is deferred to
        // the batch-end sink check below.
        let mut fresh: Vec<(NodeId, NodeId)> = Vec::new();
        let mut classes: Vec<EdgeInsert> = Vec::new();
        let mut novel_sources: FxHashSet<NodeId> = FxHashSet::default();
        // Pre-existing sinks and their fresh in-edge sources, in
        // first-appearance order of the sink (patched as `A ∖ B`, phase
        // 3b). Batch-new sinks need no such list: a TargetNew class fires
        // exactly once per target (the insert puts it in the node set), so
        // each contributes one `+1` to exactly its source's ancestor set —
        // counted per source below and marked for free during phase 3's
        // reverse BFS. A second fresh in-edge into a batch-new sink
        // classifies TargetSink and routes through the old-sink patch,
        // whose `B` side walks the first fresh edge and so never double
        // counts.
        let mut old_sink_targets: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        let mut delta_source_count: FxHashMap<NodeId, u32> = FxHashMap::default();
        if incremental {
            let graph = &mut self.graph;
            let memo = &mut self.memo;
            let fresh = &mut fresh;
            let classes = &mut classes;
            let mut it = edges.into_iter();
            // Peek before checking out a probe arena: empty batches must
            // stay allocation-free (memory accounting counts warm arenas).
            if let Some(head) = it.next() {
                self.scratch.with(move |s| {
                    for (u, v) in std::iter::once(head).chain(it) {
                        // Adaptive probe budget, consulted lazily so the
                        // gate only meters probe-eligible edges (known
                        // target with out-edges) — duplicates and sink
                        // candidates never advance or re-open it. A closed
                        // gate classifies conservatively at zero cost.
                        let mut gate_open = None;
                        let mut class = graph.add_edge_classified(u, v, s, || {
                            let open = memo.probe_gate();
                            gate_open = Some(open);
                            if open {
                                PROBE_BUDGET
                            } else {
                                0
                            }
                        });
                        match gate_open {
                            Some(true) => memo.note_probe(class == EdgeInsert::Redundant),
                            // Gate closed: the probe never ran, so this is
                            // a plain novel edge, not an exhausted probe.
                            Some(false) => class = EdgeInsert::Novel,
                            None => {}
                        }
                        if class.inserted() {
                            fresh.push((u, v));
                            classes.push(class);
                        }
                    }
                });
            }
        } else {
            for (u, v) in edges {
                if self.graph.add_edge(u, v) {
                    fresh.push((u, v));
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        if incremental {
            // Batch-end resolution (the graph is final now): an edge whose
            // target is still a sink is an exact `+1` delta on the nodes
            // newly reaching that sink — a sink contributes nothing beyond
            // itself, so no BFS is needed to know how each upstream spread
            // changed. Everything else that is not provably redundant
            // dirties its source's ancestors.
            let stats = self.memo.stats().clone();
            let mut old_index: FxHashMap<NodeId, usize> = FxHashMap::default();
            for (&(u, v), &class) in fresh.iter().zip(classes.iter()) {
                match class {
                    EdgeInsert::Redundant => stats.note_redundant(),
                    EdgeInsert::TargetNew | EdgeInsert::TargetSink
                        if self.graph.out_neighbors(v).is_empty() =>
                    {
                        stats.note_sink_delta();
                        if class == EdgeInsert::TargetNew {
                            *delta_source_count.entry(u).or_insert(0) += 1;
                        } else {
                            let at = *old_index.entry(v).or_insert_with(|| {
                                old_sink_targets.push((v, Vec::new()));
                                old_sink_targets.len() - 1
                            });
                            old_sink_targets[at].1.push(u);
                        }
                    }
                    other => {
                        stats.note_novel(other == EdgeInsert::NovelUnproven);
                        novel_sources.insert(u);
                    }
                }
            }
            // New batch: grow the memo to the (possibly larger) node bound
            // and clear the previous batch's dirty and delta marks in O(1).
            self.memo.begin_batch(self.graph.node_index_bound());
        }
        // Sketch mode: fold the fresh edges into the pool before spreads
        // are served from it. Serial — every RNG decision (reservoir root
        // redraws) happens here, so pool state is thread-count invariant.
        if let Some(pool) = &mut self.sketch {
            pool.absorb_batch(&self.graph, &fresh);
        }
        let graph = &self.graph;
        let scratch = &self.scratch;
        let counter = &self.counter;
        let memo = &mut self.memo;
        // Phase 2 (parallel across thresholds): cover maintenance — keep
        // every slot's cover closed under reachability. Each slot's cover
        // evolves independently of the others.
        {
            let fresh = &fresh;
            let mut slots: Vec<&mut Slot> = self.slots.values_mut().collect();
            exec::par_for_each_mut(&mut slots, |slot| {
                let mut calls = counter.batch();
                scratch.with(|s| {
                    let mut gained = Vec::new();
                    for &(u, v) in fresh {
                        if slot.cover.contains(u) && !slot.cover.contains(v) {
                            calls.incr();
                            marginal_gain(graph, v, &slot.cover, s, &mut gained);
                            for &n in &gained {
                                slot.cover.insert(n);
                            }
                        }
                    }
                });
            });
        }
        // Phase 3: V̄_t and (incremental mode) dirty/delta marking. The
        // incremental engine builds `V̄_t` with one shared ordered sweep and
        // marks its sources in lane-batched reverse traversals; the other
        // modes run one reverse BFS per source. `vbar`'s membership AND
        // order are identical across spread modes, lane batching, and
        // thread counts — the sieve replay below depends on it.
        let mut sources: Vec<NodeId> = Vec::new();
        {
            let mut seen_src: FxHashSet<NodeId> = FxHashSet::default();
            for &(u, _) in &fresh {
                if seen_src.insert(u) {
                    sources.push(u);
                }
            }
        }
        let params = self.traversal.batch_params();
        let mut vbar: Vec<NodeId> = Vec::new();
        if incremental {
            // One shared sweep: sources in order, each appending its
            // not-yet-seen ancestors in single-source BFS order — exactly
            // the merge order of the per-source paths below (see the
            // `reverse_reach_union_ordered` docs for the argument).
            scratch.with(|s| reverse_reach_union_ordered(graph, &sources, s, &mut vbar));
            // Marking sweep: one lane per source that needs it, so each
            // marked set is a union of complete ancestor sets. Lane label
            // words arrive per chunk (fanned out across workers on the
            // stealing scheduler — chunk costs are skewed by cone size);
            // the merge applies dirty marks and exact deltas serially, so
            // the sets and per-node counts the memo consults do not depend
            // on the thread count (order within the EpochSets may, which
            // nothing observes).
            let mark: Vec<(NodeId, bool, u32)> = sources
                .iter()
                .filter_map(|&u| {
                    let novel = novel_sources.contains(&u);
                    let k = delta_source_count.get(&u).copied().unwrap_or(0);
                    (novel || k > 0).then_some((u, novel, k))
                })
                .collect();
            let chunks: Vec<&[(NodeId, bool, u32)]> =
                lane_chunks(&mark, params.max_lanes).collect();
            let labeled: Vec<Vec<(NodeId, [u64; 4])>> = exec::par_map_steal(&chunks, |chunk| {
                scratch.with(|s| {
                    let lanes: Vec<&[NodeId]> = chunk
                        .iter()
                        .map(|(u, _, _)| std::slice::from_ref(u))
                        .collect();
                    let mut out = Vec::new();
                    reverse_reach_batch_wide(
                        graph,
                        &lanes,
                        params.width_for(chunk.len()),
                        params.direction,
                        s,
                        |n, mask| {
                            out.push((n, mask));
                        },
                    );
                    out
                })
            });
            for (chunk, nodes) in chunks.iter().zip(&labeled) {
                // Lane `i` of the chunk lives in bit `i % 64` of mask word
                // `i / 64` (widths below 4 words leave the upper words 0).
                let mut novel_mask = [0u64; 4];
                for (i, (_, novel, _)) in chunk.iter().enumerate() {
                    if *novel {
                        novel_mask[i >> 6] |= 1u64 << (i & 63);
                    }
                }
                for &(n, mask) in nodes {
                    if mask.iter().zip(&novel_mask).any(|(m, nm)| m & nm != 0) {
                        memo.mark_dirty(n);
                    }
                    let mut k_total = 0u32;
                    for (w, &word) in mask.iter().enumerate() {
                        let mut lanes_left = word;
                        while lanes_left != 0 {
                            k_total += chunk[(w << 6) + lanes_left.trailing_zeros() as usize].2;
                            lanes_left &= lanes_left - 1;
                        }
                    }
                    if k_total > 0 {
                        memo.add_delta_n(n, k_total);
                    }
                }
            }
        } else if exec::threads() <= 1 {
            // Serial path keeps the subsumption skip: if `u` is already a
            // known ancestor, ancestors(u) ⊆ seen (reverse reachability is
            // transitive), so its BFS is provably redundant. The skip only
            // elides work — `vbar` is identical either way.
            let mut seen: FxHashSet<NodeId> = FxHashSet::default();
            scratch.with(|s| {
                let mut ancestors = Vec::new();
                for &u in &sources {
                    if !seen.contains(&u) {
                        reverse_reach_collect(graph, u, s, &mut ancestors);
                        for &a in &ancestors {
                            if seen.insert(a) {
                                vbar.push(a);
                            }
                        }
                    }
                }
            });
        } else {
            let ancestor_sets: Vec<Vec<NodeId>> = exec::par_map(&sources, |&u| {
                scratch.with(|s| {
                    let mut out = Vec::new();
                    reverse_reach_collect(graph, u, s, &mut out);
                    out
                })
            });
            let mut seen: FxHashSet<NodeId> = FxHashSet::default();
            for ancestors in &ancestor_sets {
                for &a in ancestors {
                    if seen.insert(a) {
                        vbar.push(a);
                    }
                }
            }
        }
        // Phase 4a (parallel across nodes): singleton spreads f({v}) for
        // every affected node — the heavy oracle calls of lines 4–5. The
        // graph is frozen for the rest of the batch, so these match what
        // the serial loop would compute one at a time. The serial path
        // checks one arena out for the whole loop instead of per node.
        //
        // Incremental mode serves clean nodes from the memo (their reach
        // provably did not change, so the stored value IS the BFS answer)
        // and recomputes only dirty or never-seen nodes, unless the cost
        // model finds the dirty set so large that patching cannot pay.
        // Either way the values — and the oracle tally, which charges one
        // call per singleton evaluation regardless of how it is serviced —
        // are bit-identical to full recomputation.
        let singletons: Vec<u64> = if let Some(pool) = &self.sketch {
            // Sketch mode: estimates instead of BFS answers. The pool is
            // final for the batch (absorbed above), so this is a pure
            // table read — deterministic and O(1) per node. The oracle
            // tally still charges one call per singleton evaluation
            // (below), keeping accounting comparable across modes.
            vbar.iter().map(|&v| pool.estimate_rounded(v)).collect()
        } else if !incremental {
            if exec::threads() <= 1 {
                scratch.with(|s| vbar.iter().map(|&v| reach_count(graph, v, s)).collect())
            } else {
                exec::par_map(&vbar, |&v| scratch.with(|s| reach_count(graph, v, s)))
            }
        } else {
            // Patch-vs-rebuild cost model: when the dirty set dominates
            // V̄_t, nearly everything needs a BFS anyway — skip the delta
            // accounting and memo consultation entirely.
            let rebuild = memo.dirty_len() * REBUILD_DEN >= vbar.len() * REBUILD_NUM;
            memo.stats().note_batch(rebuild);
            if !rebuild && !old_sink_targets.is_empty() {
                // Phase 3b: the sink deltas phase 3 could not fuse —
                // pre-existing sinks, whose `+1` applies only to nodes
                // that could not already reach the sink through its old
                // in-edges (`A ∖ B`: two lanes per sink, 32 sinks per
                // label word).
                let words = params.width_for((old_sink_targets.len() * 2).min(MAX_BATCH_LANES));
                scratch.with(|s| {
                    memo.apply_old_sink_deltas_wide(
                        graph,
                        &old_sink_targets,
                        words,
                        params.direction,
                        s,
                    );
                });
            }
            // Serve clean nodes from the patched memo in one serial
            // (deterministic) planning pass; the rest are misses.
            let mut values = vec![0u64; vbar.len()];
            let mut need: Vec<usize> = Vec::new();
            for (j, &v) in vbar.iter().enumerate() {
                let patched = if rebuild {
                    None
                } else {
                    memo.lookup_patched(v)
                };
                match patched {
                    Some(n) => {
                        memo.store(v, n);
                        values[j] = n;
                    }
                    None => need.push(j),
                }
            }
            // Evaluate the misses in wide counting batches: dirty sources
            // are ancestors of the same novel edges, so their downstream
            // cones overlap heavily and one pass over the shared cone's
            // SCC condensation replaces up to `max_lanes` cone re-walks.
            // Counts are exactly what per-node BFS returns, so the values
            // — and the tally, charged per evaluation below — are
            // unchanged. Chunk costs are skewed (cone sizes vary wildly),
            // hence the stealing fan-out.
            let computed: Vec<u64> = if need.len() <= 1 {
                scratch.with(|s| {
                    need.iter()
                        .map(|&j| reach_count(graph, vbar[j], s))
                        .collect()
                })
            } else {
                let chunks: Vec<&[usize]> = lane_chunks(&need, params.max_lanes).collect();
                exec::par_map_steal(&chunks, |chunk| {
                    scratch.with(|s| {
                        let srcs: Vec<NodeId> = chunk.iter().map(|&j| vbar[j]).collect();
                        let mut counts = vec![0u64; srcs.len()];
                        reach_count_batch_wide(
                            graph,
                            &srcs,
                            params.width_for(chunk.len()),
                            s,
                            &mut counts,
                        );
                        counts
                    })
                })
                .concat()
            };
            for (&j, &n) in need.iter().zip(&computed) {
                values[j] = n;
                memo.store(vbar[j], n);
            }
            let hits = (vbar.len() - need.len()) as u64;
            memo.stats().add_cache_hits(hits);
            memo.stats().add_cache_misses(vbar.len() as u64 - hits);
            values
        };
        counter.add(vbar.len() as u64);
        // Phase 4b (serial, order-sensitive): replay the Δ/ladder updates,
        // recording each surviving slot's *birth index* in the V̄_t
        // sequence. Slots dropped by a later shift die with their state —
        // batch-lazy sieving never evaluates them at all.
        let mut pending: BTreeMap<i64, (Slot, usize)> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(|(i, slot)| (i, (slot, 0)))
            .collect();
        for (j, &singleton) in singletons.iter().enumerate() {
            if let Some(change) = self.ladder.update_delta(singleton as f64) {
                pending.retain(|i, _| change.kept.contains(i));
                for i in change.added {
                    pending.insert(i, (Slot::default(), j));
                }
            }
        }
        // Phase 4c (parallel across thresholds): per-slot admission replay
        // (lines 6–11). A slot's decisions depend only on its own cover and
        // the fixed (v, singleton) sequence from its birth onward, so the
        // fan-out is deterministic and equals the serial interleaving.
        let k = self.k;
        let prune = self.singleton_prune;
        let ladder = &self.ladder;
        let (vbar, singletons) = (&vbar, &singletons);
        let mut entries: Vec<(i64, Slot, usize)> = pending
            .into_iter()
            .map(|(i, (slot, birth))| (i, slot, birth))
            .collect();
        exec::par_for_each_mut(&mut entries, |(i, slot, birth)| {
            let theta = ladder.theta(*i);
            let mut calls = counter.batch();
            scratch.with(|s| {
                let mut gained = Vec::new();
                for j in *birth..vbar.len() {
                    if slot.seeds.len() >= k {
                        break;
                    }
                    let v = vbar[j];
                    if prune && (singletons[j] as f64) < theta {
                        // δ_S(v) ≤ f({v}) < θ: cannot be accepted; skip the
                        // oracle call.
                        continue;
                    }
                    calls.incr();
                    let gain = marginal_gain(graph, v, &slot.cover, s, &mut gained) as f64;
                    if gain >= theta {
                        for &n in &gained {
                            slot.cover.insert(n);
                        }
                        slot.seeds.push(v);
                    }
                }
            });
        });
        self.slots = entries.into_iter().map(|(i, slot, _)| (i, slot)).collect();
    }

    /// Current best solution across thresholds (Alg. 1 line 12). Free of
    /// oracle calls thanks to the maintained covers.
    pub fn query(&self) -> Solution {
        let mut best: Option<&Slot> = None;
        for slot in self.slots.values() {
            if best.is_none_or(|b| slot.cover.len() > b.cover.len()) {
                best = Some(slot);
            }
        }
        match best {
            Some(slot) if !slot.seeds.is_empty() => Solution {
                seeds: slot.seeds.clone(),
                value: slot.cover.len() as u64,
            },
            _ => Solution::empty(),
        }
    }

    /// Approximate heap footprint in bytes: instance graph, all threshold
    /// slots (Theorem 3's `O(k ε⁻¹ log k)` state, in practice), and the
    /// per-worker BFS scratch arenas — parallelism must not hide memory
    /// from the Fig. 13/14-style accounting.
    pub fn approx_bytes(&self) -> usize {
        let slots: usize = self
            .slots
            .values()
            .map(|s| s.cover.approx_bytes() + s.seeds.capacity() * 4 + 64)
            .sum();
        let sketch = self.sketch.as_ref().map_or(0, |p| p.approx_bytes());
        self.graph.approx_bytes()
            + slots
            + self.scratch.approx_bytes()
            + self.memo.approx_bytes()
            + sketch
    }

    /// Serializes the instance's full sieve state as named sections under
    /// `prefix`:
    ///
    /// - `{prefix}meta`: spread mode, budget `k`, prune flag, node bound.
    /// - `{prefix}graph.{out,inc}.<c>`: the accumulated ADN
    ///   ([`AdnGraph::write_sections`]; adjacency order verbatim — it
    ///   drives `V̄_t` replay order).
    /// - `{prefix}sieve`: threshold ladder plus every slot's seeds and
    ///   cover (word runs).
    /// - `{prefix}memo`: the spread memo, so a warm restart resumes with
    ///   the same cache, not a cold one.
    /// - `{prefix}sketch` (sketch mode only): the reverse-reachable pool —
    ///   roots, per-sketch RNG states, member sets.
    ///
    /// The shared [`OracleCounter`] is *not* written here; ownership of the
    /// tally lives with the enclosing tracker (HISTAPPROX checkpoints many
    /// instances billing one counter, which must be saved exactly once).
    /// The shared [`SpreadStats`] tally is tracker-owned for the same
    /// reason.
    pub fn write_sections(&self, sink: &mut codec::SectionSink, prefix: &str) {
        let mut w = codec::Writer::new();
        self.mode.write_snapshot(&mut w);
        w.put_u64(self.k as u64);
        w.put_bool(self.singleton_prune);
        w.put_len(self.graph.node_index_bound());
        sink.put(&format!("{prefix}meta"), w.into_vec());
        self.graph.write_sections(sink, &format!("{prefix}graph."));
        let mut w = codec::Writer::new();
        self.ladder.write_snapshot(&mut w);
        w.put_len(self.slots.len());
        for (&i, slot) in &self.slots {
            w.put_i64(i);
            let seeds: Vec<u32> = slot.seeds.iter().map(|s| s.0).collect();
            w.put_u32_run(&seeds);
            slot.cover.write_snapshot(&mut w);
        }
        sink.put(&format!("{prefix}sieve"), w.into_vec());
        let mut w = codec::Writer::new();
        self.memo.write_snapshot(&mut w);
        sink.put(&format!("{prefix}memo"), w.into_vec());
        if let Some(pool) = &self.sketch {
            let mut w = codec::Writer::new();
            pool.write_snapshot(&mut w);
            sink.put(&format!("{prefix}sketch"), w.into_vec());
        }
    }

    /// Reconstructs an instance from the sections [`Self::write_sections`]
    /// emitted under `prefix`, billing future oracle calls to `counter`.
    /// Scratch arenas start cold (they hold no logical state); the spread
    /// memo is restored warm.
    pub fn read_sections(
        map: &codec::SectionMap,
        prefix: &str,
        counter: OracleCounter,
    ) -> Result<Self, codec::SectionError> {
        let invalid =
            |msg: &'static str| codec::SectionError::Codec(codec::CodecError::Invalid(msg));
        let mut r = map.reader(&format!("{prefix}meta"))?;
        let mode = SpreadMode::read_snapshot(&mut r)?;
        let k = r.get_u64()?;
        if k == 0 || k > usize::MAX as u64 {
            return Err(invalid("sieve budget k out of range"));
        }
        let k = k as usize;
        let singleton_prune = r.get_bool()?;
        // The bound is the meta section's last field, so `get_len`'s
        // bytes-remaining guard cannot apply; the graph reader checks it
        // against the stored chunk sections before allocating.
        let bound = r.get_u64()? as usize;
        r.finish()?;
        let graph = AdnGraph::read_sections(map, &format!("{prefix}graph."), bound)?;
        let mut r = map.reader(&format!("{prefix}sieve"))?;
        let ladder = ThresholdLadder::read_snapshot(&mut r)?;
        let n_slots = r.get_len(8)?;
        let mut slots = BTreeMap::new();
        for _ in 0..n_slots {
            let i = r.get_i64()?;
            let seeds: Vec<NodeId> = r.get_u32_run()?.into_iter().map(NodeId).collect();
            if seeds.len() > k {
                return Err(invalid("sieve slot exceeds budget k"));
            }
            let cover = CoverSet::read_snapshot(&mut r)?;
            if slots.insert(i, Slot { seeds, cover }).is_some() {
                return Err(invalid("duplicate sieve threshold slot"));
            }
        }
        r.finish()?;
        let mut r = map.reader(&format!("{prefix}memo"))?;
        let memo = SpreadMemo::read_snapshot(&mut r, graph.node_index_bound())?;
        r.finish()?;
        let sketch = if let SpreadMode::Sketch(p) = mode {
            let mut r = map.reader(&format!("{prefix}sketch"))?;
            let pool = SketchPool::read_snapshot(&mut r)?;
            r.finish()?;
            if pool.params() != p {
                return Err(invalid("sketch pool params disagree with the spread mode"));
            }
            Some(pool)
        } else {
            None
        };
        Ok(SieveAdn {
            graph,
            ladder,
            slots,
            k,
            singleton_prune,
            counter,
            scratch: ScratchPool::new(),
            mode,
            traversal: TraversalKind::default(),
            memo,
            sketch,
        })
    }

    /// Takes shedding level `level` of the memory-budget ladder (see
    /// DESIGN.md "Memory budget"). Every level preserves answers, oracle
    /// tallies and engine tallies:
    ///
    /// 1. drop the spread memo's allocations, keeping only the probe-gate
    ///    counters (every future lookup misses and recomputes the exact
    ///    BFS answer);
    /// 2. return recycled adjacency-arena blocks, excess hash capacity and
    ///    pooled BFS scratch to the allocator (pure layout: contents,
    ///    traversal order and snapshot bytes are unaffected);
    /// 3. fall back to [`SpreadMode::FullRecompute`] and drop the memo, so
    ///    it stops regrowing.
    ///
    /// Returns the approximate bytes released.
    ///
    /// # Panics
    /// Panics if `level` is not 1, 2 or 3.
    pub fn shed(&mut self, level: u8) -> usize {
        match level {
            1 => self.memo.release_memory(),
            2 => self.graph.release_recycled_memory() + self.scratch.release_memory(),
            3 => {
                self.set_spread_mode(SpreadMode::FullRecompute);
                self.memo.release_memory()
            }
            _ => panic!("shedding levels are 1, 2 and 3, not {level}"),
        }
    }

    /// Current best value `g_t` (the histogram ordinate in HISTAPPROX).
    pub fn best_value(&self) -> u64 {
        self.slots
            .values()
            .map(|s| s.cover.len() as u64)
            .max()
            .unwrap_or(0)
    }
}

/// SIEVEADN exposed as a tracker over addition-only streams: lifetimes are
/// ignored (treated as infinite), matching the special problem of §III-A.
pub struct SieveAdnTracker {
    inner: SieveAdn,
    counter: OracleCounter,
    /// Approximate heap ceiling ([`TrackerConfig::memory_budget`]);
    /// enforced after every step by the shedding ladder (see
    /// DESIGN.md "Memory budget").
    budget: Option<usize>,
}

impl SieveAdnTracker {
    /// Creates the tracker (lifetimes in fed batches are disregarded).
    pub fn new(cfg: &TrackerConfig) -> Self {
        let counter = OracleCounter::new();
        SieveAdnTracker {
            inner: SieveAdn::from_config(cfg, counter.clone()),
            counter,
            budget: cfg.memory_budget,
        }
    }

    /// Sets or clears the approximate heap ceiling at runtime (restored
    /// trackers come back unbudgeted — the budget is operational state and
    /// deliberately not checkpointed; see [`TrackerConfig::memory_budget`]).
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    /// Approximate heap footprint in bytes (what the budget meters).
    pub fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }

    /// Sets the spread-maintenance mode (builder form).
    pub fn with_spread_mode(mut self, mode: SpreadMode) -> Self {
        self.inner.set_spread_mode(mode);
        self
    }

    /// The active spread-maintenance mode.
    pub fn spread_mode(&self) -> SpreadMode {
        self.inner.spread_mode()
    }

    /// Sets the traversal backend (builder form).
    pub fn with_traversal(mut self, traversal: TraversalKind) -> Self {
        self.inner.set_traversal(traversal);
        self
    }

    /// The active traversal backend.
    pub fn traversal(&self) -> TraversalKind {
        self.inner.traversal()
    }

    /// Current incremental-engine tallies.
    pub fn spread_stats(&self) -> SpreadStatsSnapshot {
        self.inner.spread_stats()
    }

    /// Read access to the wrapped instance.
    pub fn instance(&self) -> &SieveAdn {
        &self.inner
    }

    /// Budget-enforcement ladder, run after every step: while the
    /// footprint exceeds the ceiling, take the next [`SieveAdn::shed`]
    /// level, tallied in [`SpreadStatsSnapshot`]'s shed counters. Never
    /// fails: a workload whose irreducible live state exceeds the ceiling
    /// keeps running at level 3.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.budget else { return };
        for level in 1..=3 {
            if self.inner.approx_bytes() <= budget {
                return;
            }
            self.inner.shed(level);
            self.inner.memo.stats().note_shed(level);
        }
    }

    /// Serializes the tracker as named sections: a `meta` section (oracle
    /// tally + engine tallies, including the shed counters) plus the
    /// instance's sections under the `adn.` prefix.
    pub fn write_sections(&self, sink: &mut codec::SectionSink) {
        let mut w = codec::Writer::new();
        w.put_u64(self.counter.get());
        self.inner.spread_stats().write_snapshot(&mut w);
        sink.put("meta", w.into_vec());
        self.inner.write_sections(sink, "adn.");
    }

    /// Reconstructs a tracker from the sections [`Self::write_sections`]
    /// emitted. The restored tracker resumes the oracle and engine tallies
    /// at the saved counts; the memory budget is operational state and
    /// comes back unset (see [`Self::set_memory_budget`]).
    pub fn read_sections(map: &codec::SectionMap) -> Result<Self, codec::SectionError> {
        let mut r = map.reader("meta")?;
        let calls = r.get_u64()?;
        let stats_snap = SpreadStatsSnapshot::read_snapshot(&mut r)?;
        r.finish()?;
        let counter = OracleCounter::new();
        counter.set(calls);
        let inner = SieveAdn::read_sections(map, "adn.", counter.clone())?;
        inner.memo.stats().restore(&stats_snap);
        Ok(SieveAdnTracker {
            inner,
            counter,
            budget: None,
        })
    }
}

impl InfluenceTracker for SieveAdnTracker {
    fn name(&self) -> &'static str {
        "SieveADN"
    }

    fn step(&mut self, _t: Time, batch: &[TimedEdge]) -> Solution {
        self.inner.feed(batch.iter().map(|e| (e.src, e.dst)));
        let sol = self.inner.query();
        // Enforced after the query: the post-step footprint is what an
        // operator meters between steps, so that is the state the ceiling
        // must bound (whenever the irreducible live state fits under it).
        self.enforce_budget();
        sol
    }

    fn oracle_calls(&self) -> u64 {
        self.counter.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdn_graph::ReachScratch;

    /// Saves `inst` as a lone base container of `adn.`-prefixed sections.
    fn sections_of(inst: &SieveAdn) -> Vec<u8> {
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        inst.write_sections(&mut sink, "adn.");
        sink.finish().0
    }

    fn restore(blob: &[u8], counter: OracleCounter) -> Result<SieveAdn, codec::SectionError> {
        SieveAdn::read_sections(&codec::SectionMap::from_single(blob)?, "adn.", counter)
    }

    fn inst(k: usize, eps: f64) -> SieveAdn {
        SieveAdn::new(k, eps, true, OracleCounter::new())
    }

    #[test]
    fn empty_instance_answers_empty() {
        let s = inst(3, 0.1);
        assert_eq!(s.query(), Solution::empty());
        assert_eq!(s.best_value(), 0);
    }

    #[test]
    fn single_star_is_found() {
        let mut s = inst(1, 0.1);
        s.feed([
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(2)),
            (NodeId(0), NodeId(3)),
        ]);
        let sol = s.query();
        assert_eq!(sol.seeds, vec![NodeId(0)]);
        assert_eq!(sol.value, 4);
    }

    #[test]
    fn covers_stay_fresh_as_edges_arrive() {
        // Select node 0 early (star of size 3), then grow its reach; the
        // maintained value must track f without re-querying.
        let mut s = inst(1, 0.1);
        s.feed([(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]);
        assert_eq!(s.query().value, 3);
        // Extend via an edge out of a covered node.
        s.feed([(NodeId(2), NodeId(7))]);
        assert_eq!(s.query().value, 4);
        // And via a chain of new nodes hanging off the cover.
        s.feed([(NodeId(7), NodeId(8)), (NodeId(8), NodeId(9))]);
        assert_eq!(s.query().value, 6);
    }

    #[test]
    fn two_seeds_cover_two_communities() {
        let mut s = inst(2, 0.1);
        let mut edges = Vec::new();
        for i in 1..=5u32 {
            edges.push((NodeId(0), NodeId(i)));
            edges.push((NodeId(100), NodeId(100 + i)));
        }
        s.feed(edges);
        let sol = s.query();
        assert_eq!(sol.value, 12);
        assert!(sol.seeds.contains(&NodeId(0)) && sol.seeds.contains(&NodeId(100)));
    }

    #[test]
    fn respects_budget() {
        let mut s = inst(2, 0.2);
        let edges: Vec<_> = (0..10u32)
            .map(|i| (NodeId(i * 10), NodeId(i * 10 + 1)))
            .collect();
        s.feed(edges);
        assert!(s.query().seeds.len() <= 2);
    }

    #[test]
    fn duplicate_edges_change_nothing() {
        let mut a = inst(2, 0.1);
        a.feed([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        let before = a.query();
        a.feed([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        assert_eq!(a.query(), before);
    }

    #[test]
    fn clone_shares_oracle_counter_but_not_state() {
        let counter = OracleCounter::new();
        let mut a = SieveAdn::new(1, 0.1, true, counter.clone());
        a.feed([(NodeId(0), NodeId(1))]);
        let mut b = a.clone();
        b.feed([(NodeId(1), NodeId(2))]);
        assert_eq!(a.query().value, 2);
        assert_eq!(b.query().value, 3);
        let calls_before = counter.get();
        b.feed([(NodeId(2), NodeId(3))]);
        assert!(
            counter.get() > calls_before,
            "clone must bill shared counter"
        );
    }

    #[test]
    fn tracker_interface_ignores_lifetimes() {
        let mut t = SieveAdnTracker::new(&TrackerConfig::new(2, 0.1, 100));
        let sol = t.step(
            0,
            &[TimedEdge::new(0u32, 1u32, 1), TimedEdge::new(0u32, 2u32, 1)],
        );
        assert_eq!(sol.value, 3);
        // Lifetime-1 edges would be gone in a TDN, but an ADN keeps them.
        let sol = t.step(50, &[]);
        assert_eq!(sol.value, 3);
        assert!(t.oracle_calls() > 0);
        assert_eq!(t.name(), "SieveADN");
    }

    #[test]
    fn sketch_mode_maintains_a_pool_and_survives_mode_switches() {
        let params = SketchParams::new(0.2, 0.1, 42);
        let mut s = inst(2, 0.1).with_spread_mode(SpreadMode::Sketch(params));
        let pool = s.sketch_pool().expect("sketch mode carries a pool");
        assert_eq!(pool.len(), params.pool_size());
        assert_eq!(pool.universe_len(), 0);
        s.feed([
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(2)),
            (NodeId(5), NodeId(6)),
        ]);
        let pool = s.sketch_pool().unwrap();
        assert_eq!(pool.universe_len(), 5, "pool absorbed the batch");
        // Covers stay exact in sketch mode, so values are true cover sizes.
        let sol = s.query();
        assert!(!sol.seeds.is_empty() && sol.value >= 2);
        // Switching away drops the pool; switching back re-seeds it from
        // the accumulated graph (mid-run adoption).
        s.set_spread_mode(SpreadMode::Incremental);
        assert!(s.sketch_pool().is_none());
        s.set_spread_mode(SpreadMode::Sketch(params));
        assert_eq!(s.sketch_pool().unwrap().universe_len(), 5);
        // Snapshot round trip preserves the pool bit-for-bit.
        let bytes = sections_of(&s);
        let back = restore(&bytes, OracleCounter::new()).expect("round trip");
        assert_eq!(back.spread_mode(), SpreadMode::Sketch(params));
        assert_eq!(bytes, sections_of(&back));
    }

    /// The incremental engine's contract in miniature: identical solutions
    /// and oracle tallies to the full-recompute reference on random
    /// batched streams (the full differential suite lives in
    /// `tests/differential_spread.rs`).
    #[test]
    fn incremental_and_full_recompute_agree_exactly() {
        let mut state = 0x5EED_CAFE_u64;
        let mut rnd = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        let inc_counter = OracleCounter::new();
        let full_counter = OracleCounter::new();
        let mut inc = SieveAdn::new(3, 0.15, true, inc_counter.clone());
        let mut full = SieveAdn::new(3, 0.15, true, full_counter.clone())
            .with_spread_mode(SpreadMode::FullRecompute);
        assert_eq!(inc.spread_mode(), SpreadMode::Incremental);
        assert_eq!(full.spread_mode(), SpreadMode::FullRecompute);
        for _ in 0..30 {
            let batch: Vec<(NodeId, NodeId)> = (0..1 + rnd(8))
                .map(|_| (NodeId(rnd(20) as u32), NodeId(rnd(20) as u32)))
                .collect();
            inc.feed(batch.clone());
            full.feed(batch);
            assert_eq!(inc.query(), full.query());
            assert_eq!(inc.best_value(), full.best_value());
            assert_eq!(inc_counter.get(), full_counter.get(), "tallies diverged");
        }
        let stats = inc.spread_stats();
        assert_eq!(
            stats.novel_edges + stats.redundant_edges + stats.sink_delta_edges,
            inc.graph().edge_count() as u64,
            "every stored pair was classified exactly once"
        );
        assert!(
            full.spread_stats() == SpreadStatsSnapshot::default(),
            "the reference path must not touch the engine"
        );
    }

    /// Lane batching is pure strategy: the adaptive default and every
    /// point of the width × direction grid must agree bit for bit with
    /// the full-recompute reference (solutions, oracle tallies) and with
    /// each other (engine tallies, checkpoint bytes) on random streams.
    #[test]
    fn traversal_backends_are_bit_identical() {
        let mut grid = vec![TraversalKind::Wide];
        for lanes in [64, 128, 256] {
            for direction in [SweepDirection::TopDown, SweepDirection::Auto] {
                grid.push(TraversalKind::Fixed { lanes, direction });
            }
        }
        let full_counter = OracleCounter::new();
        let mut full = SieveAdn::new(3, 0.15, true, full_counter.clone())
            .with_spread_mode(SpreadMode::FullRecompute);
        let mut cells: Vec<(SieveAdn, OracleCounter)> = grid
            .iter()
            .map(|&tr| {
                let counter = OracleCounter::new();
                let inst = SieveAdn::new(3, 0.15, true, counter.clone()).with_traversal(tr);
                (inst, counter)
            })
            .collect();
        assert_eq!(cells[0].0.traversal(), TraversalKind::Wide, "default");
        let mut state = 0xB17B_A7C4_u64;
        let mut rnd = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        for _ in 0..40 {
            let batch: Vec<(NodeId, NodeId)> = (0..1 + rnd(10))
                .map(|_| (NodeId(rnd(70) as u32), NodeId(rnd(70) as u32)))
                .collect();
            full.feed(batch.clone());
            for (inst, counter) in &mut cells {
                inst.feed(batch.clone());
                let tr = inst.traversal();
                assert_eq!(inst.query(), full.query(), "{tr:?}");
                assert_eq!(inst.best_value(), full.best_value(), "{tr:?}");
                assert_eq!(
                    counter.get(),
                    full_counter.get(),
                    "tallies diverged ({tr:?})"
                );
            }
        }
        let (wide, _) = &cells[0];
        for (inst, _) in &cells[1..] {
            let tr = inst.traversal();
            assert_eq!(
                inst.spread_stats(),
                wide.spread_stats(),
                "engine tallies must not depend on lane batching ({tr:?})"
            );
            assert!(
                sections_of(inst) == sections_of(wide),
                "checkpoint bytes must not depend on lane batching ({tr:?})"
            );
        }
    }

    #[test]
    fn redundant_batches_are_served_from_the_memo() {
        let mut s = inst(2, 0.2);
        // Two chains...
        s.feed([
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(2)),
            (NodeId(2), NodeId(3)),
            (NodeId(100), NodeId(101)),
            (NodeId(101), NodeId(102)),
        ]);
        let before = s.spread_stats();
        let sol_before = s.query();
        // ...then *new* pairs that only shortcut existing paths. (0,2)'s
        // target has out-edges, so the probe proves it redundant; (100,102)
        // lands on a sink, whose `A ∖ B` patch works out to zero deltas —
        // 100 already reached 102 via 101. Either way: no BFS, no change.
        s.feed([(NodeId(0), NodeId(2)), (NodeId(100), NodeId(102))]);
        let after = s.spread_stats();
        assert_eq!(after.redundant_edges - before.redundant_edges, 1);
        assert_eq!(after.sink_delta_edges - before.sink_delta_edges, 1);
        assert_eq!(after.novel_edges, before.novel_edges);
        assert!(
            after.cache_hits > before.cache_hits,
            "clean V̄_t nodes must be memo-served"
        );
        assert_eq!(after.cache_misses, before.cache_misses);
        assert_eq!(s.query(), sol_before, "redundant edges change no answer");
    }

    #[test]
    fn new_sink_targets_patch_ancestors_without_bfs() {
        let mut s = inst(1, 0.2);
        // Chain 0 -> 1 -> 2: (1,2)'s target stays a sink, so it lands as a
        // delta edge; (0,1)'s target grows an out-edge, so it is novel.
        s.feed([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        let mid = s.spread_stats();
        assert_eq!(mid.sink_delta_edges, 1);
        assert_eq!(mid.novel_edges, 1);
        // A new leaf under node 2: V̄_t = {2, 1, 0}; 1 and 0 are clean and
        // cached, so their +1 comes from the delta patch, no BFS.
        s.feed([(NodeId(2), NodeId(3))]);
        let after = s.spread_stats();
        assert_eq!(after.sink_delta_edges, 2);
        assert_eq!(after.novel_edges, 1, "no new novel edges");
        assert_eq!(after.cache_hits - mid.cache_hits, 2, "0 and 1 patched");
        assert_eq!(after.cache_misses - mid.cache_misses, 1, "only 2 BFS'd");
        assert_eq!(s.query().value, 4, "patched spread is exact");
    }

    #[test]
    fn snapshot_round_trips_mode_and_memo() {
        for mode in [SpreadMode::Incremental, SpreadMode::FullRecompute] {
            let counter = OracleCounter::new();
            let mut a = SieveAdn::new(2, 0.2, true, counter.clone()).with_spread_mode(mode);
            a.feed([
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(2)),
                (NodeId(5), NodeId(6)),
            ]);
            let bytes = sections_of(&a);
            let mut b = restore(&bytes, counter.clone()).expect("round trip");
            assert_eq!(b.spread_mode(), mode);
            // Both copies evolve identically (same counter: feed them the
            // same batch one after the other and compare answers).
            b.feed([(NodeId(2), NodeId(7)), (NodeId(6), NodeId(0))]);
            a.feed([(NodeId(2), NodeId(7)), (NodeId(6), NodeId(0))]);
            assert_eq!(a.query(), b.query(), "mode {mode:?}");
            // A corrupt mode tag, budget, node bound, ladder, or memo is a
            // typed error, never a panic.
            let map = codec::SectionMap::from_single(&bytes).unwrap();
            let tamper = |name: &str, at: usize, byte: u8| {
                let mut w = codec::SectionWriter::new();
                for entry in codec::SectionReader::parse(&bytes).unwrap().toc().entries() {
                    let mut payload = map.payload(&entry.name).unwrap().to_vec();
                    if entry.name == name {
                        payload[at] = byte;
                    }
                    w.put_section(&entry.name, payload);
                }
                restore(&w.finish(), counter.clone())
            };
            assert!(tamper("adn.meta", 0, 9).is_err(), "mode tag");
            assert!(tamper("adn.meta", 1, 0).is_err(), "k = 0");
            assert!(
                tamper("adn.meta", 10, 0xFF).is_err(),
                "bound past the chunks"
            );
            assert!(
                tamper("adn.memo", 0, 0xFF).is_err(),
                "memo larger than graph"
            );
            assert!(tamper("adn.sieve", 7, 0xFF).is_err(), "ladder eps");
        }
    }

    /// Sectioned saves must restore bit-identically (same future
    /// evolution) and a delta save against an unchanged-graph parent must
    /// reference the stable adjacency chunks instead of re-serializing
    /// them.
    #[test]
    fn tracker_sectioned_save_round_trips_and_deltas_skip_stable_chunks() {
        let mut t = SieveAdnTracker::new(&TrackerConfig::new(2, 0.2, 100));
        t.step(
            0,
            &[TimedEdge::new(0u32, 1u32, 1), TimedEdge::new(1u32, 2u32, 1)],
        );
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        t.write_sections(&mut sink);
        let (base, parent) = sink.finish();
        // Restore from the base alone and check identical evolution.
        let map = codec::SectionMap::from_single(&base).expect("resolve base");
        let mut back = SieveAdnTracker::read_sections(&map).expect("restore base");
        assert_eq!(back.oracle_calls(), t.oracle_calls());
        assert_eq!(back.spread_stats(), t.spread_stats());
        let batch = [TimedEdge::new(2u32, 3u32, 1), TimedEdge::new(3u32, 4u32, 1)];
        let a = t.step(1, &batch);
        let b = back.step(1, &batch);
        assert_eq!(a, b, "restored tracker must evolve identically");
        assert_eq!(back.oracle_calls(), t.oracle_calls());
        // Delta save against the base: both graph chunks changed (the
        // batch grew the node bound), so this delta is all-fresh — the
        // ref-heavy case is exercised by
        // `unchanged_graph_chunks_become_refs_in_delta_saves`.
        let mut sink = codec::SectionSink::new(parent);
        t.write_sections(&mut sink);
        let (delta, _) = sink.finish();
        // Chain restore (tip first) equals a direct sectioned restore.
        let chained = codec::SectionMap::resolve(&[&delta, &base]).expect("resolve chain");
        let mut from_chain = SieveAdnTracker::read_sections(&chained).expect("restore chain");
        let batch2 = [TimedEdge::new(4u32, 0u32, 1)];
        let c = t.step(2, &batch2);
        let d = from_chain.step(2, &batch2);
        assert_eq!(c, d, "chain-restored tracker must evolve identically");
        assert_eq!(from_chain.oracle_calls(), t.oracle_calls());
    }

    /// A stable parent graph makes every adjacency chunk a ref: feed
    /// enough edges to span two chunks, save, then save again without
    /// touching the graph.
    #[test]
    fn unchanged_graph_chunks_become_refs_in_delta_saves() {
        use tdn_graph::arena::SNAPSHOT_CHUNK;
        let counter = OracleCounter::new();
        let mut s = SieveAdn::new(2, 0.2, true, counter.clone());
        let far = SNAPSHOT_CHUNK as u32 + 10;
        s.feed([(NodeId(0), NodeId(1)), (NodeId(far), NodeId(far + 1))]);
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        s.write_sections(&mut sink, "adn.");
        let (fresh_base, refs_base) = sink.counts();
        let (base, parent) = sink.finish();
        assert!(fresh_base >= 7, "base emits everything inline");
        assert_eq!(refs_base, 0);
        let mut sink = codec::SectionSink::new(parent);
        s.write_sections(&mut sink, "adn.");
        let (fresh_delta, refs_delta) = sink.counts();
        let (delta, _) = sink.finish();
        // Nothing changed between the saves, so every section — four graph
        // chunks plus meta, sieve and memo — refs the parent by checksum.
        assert_eq!(refs_delta, 7, "unchanged instance → all sections ref");
        assert_eq!(fresh_delta, 0);
        assert!(delta.len() < base.len());
        let map = codec::SectionMap::resolve(&[&delta, &base]).expect("resolve chain");
        let mut back =
            SieveAdn::read_sections(&map, "adn.", counter.clone()).expect("restore chain");
        assert_eq!(back.query(), s.query());
        // Both copies evolve identically.
        back.feed([(NodeId(1), NodeId(2))]);
        s.feed([(NodeId(1), NodeId(2))]);
        assert_eq!(back.query(), s.query());
        // A lone delta cannot resolve: its refs have no parent.
        assert!(matches!(
            codec::SectionMap::resolve(&[&delta]),
            Err(codec::SectionError::Unresolved { .. })
        ));
    }

    /// The memory budget is enforced by correctness-preserving shedding:
    /// a tightly budgeted tracker of every family answers bit-identically
    /// to an unconstrained control while tallying shed events.
    #[test]
    fn memory_budget_sheds_without_changing_answers() {
        use crate::{BasicReduction, HistApprox, TrackerEngine};
        fn check<T: TrackerEngine>(
            stats: fn(&T) -> SpreadStatsSnapshot,
            mode: fn(&T) -> SpreadMode,
        ) {
            let cfg = TrackerConfig::new(2, 0.2, 100);
            // A ceiling far below the workload's natural footprint forces
            // the full ladder, including the FullRecompute fallback.
            let tight = cfg.clone().with_memory_budget(1);
            let mut budgeted = T::from_config(&tight);
            let mut control = T::from_config(&cfg);
            let mut state = 0xB06E7u64;
            let mut rnd = move |m: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) % m
            };
            let name = budgeted.name();
            for t in 0..20u64 {
                let batch: Vec<TimedEdge> = (0..3)
                    .map(|_| TimedEdge::new(rnd(30) as u32, rnd(30) as u32, 1 + (t % 5) as u32))
                    .collect();
                let a = budgeted.step(t, &batch);
                let b = control.step(t, &batch);
                assert_eq!(a, b, "{name}: shedding must not change answers (t={t})");
                assert_eq!(budgeted.oracle_calls(), control.oracle_calls(), "{name}");
            }
            let shed = stats(&budgeted);
            assert!(shed.shed_memo >= 1, "{name}: level 1 must have fired");
            assert!(shed.shed_arena >= 1, "{name}: level 2 must have fired");
            assert!(shed.shed_fallback >= 1, "{name}: level 3 must have fired");
            assert_eq!(
                mode(&budgeted),
                SpreadMode::FullRecompute,
                "{name}: fallback sticks"
            );
            assert_eq!(stats(&control).shed_memo, 0, "{name}");
            // A generous ceiling sheds nothing.
            let roomy = cfg.clone().with_memory_budget(1 << 30);
            let mut easy = T::from_config(&roomy);
            easy.step(0, &[TimedEdge::new(0u32, 1u32, 1)]);
            assert_eq!(stats(&easy).shed_memo, 0, "{name}");
            assert_eq!(mode(&easy), SpreadMode::Incremental, "{name}");
        }
        check(SieveAdnTracker::spread_stats, SieveAdnTracker::spread_mode);
        check(BasicReduction::spread_stats, BasicReduction::spread_mode);
        check(HistApprox::spread_stats, HistApprox::spread_mode);
    }

    /// Golden-path guarantee check: SieveADN ≥ (1/2−ε)·OPT on a stream of
    /// random ADN batches, with OPT from exhaustive search over a small
    /// universe.
    #[test]
    fn approximation_guarantee_on_random_adn_streams() {
        use tdn_graph::reach::CoverSet;
        let mut state = 0xDEADBEEFu64;
        let mut rnd = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for trial in 0..10 {
            let n = 12u32;
            let k = 2usize;
            let eps = 0.1;
            let mut s = inst(k, eps);
            let mut g = AdnGraph::new();
            for _ in 0..4 {
                let batch: Vec<(NodeId, NodeId)> = (0..6)
                    .map(|_| (NodeId(rnd(n)), NodeId(rnd(n))))
                    .filter(|(a, b)| a != b)
                    .collect();
                for &(a, b) in &batch {
                    g.add_edge(a, b);
                }
                s.feed(batch);
            }
            // OPT by brute force over all pairs of nodes.
            let nodes: Vec<NodeId> = g.nodes().collect();
            let mut scratch = ReachScratch::new();
            let mut opt = 0u64;
            for i in 0..nodes.len() {
                for j in i..nodes.len() {
                    let mut cover = CoverSet::new();
                    let mut gained = Vec::new();
                    let mut val = 0;
                    for &x in [nodes[i], nodes[j]].iter() {
                        val += marginal_gain(&g, x, &cover, &mut scratch, &mut gained);
                        for &y in &gained {
                            cover.insert(y);
                        }
                    }
                    opt = opt.max(val);
                }
            }
            let got = s.query().value;
            assert!(
                got as f64 >= (0.5 - eps) * opt as f64 - 1e-9,
                "trial {trial}: got {got}, OPT {opt}"
            );
        }
    }
}
