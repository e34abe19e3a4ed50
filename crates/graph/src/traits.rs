//! The graph access trait shared by the append-only and time-decaying graphs.

use crate::node::NodeId;

/// Read access to both adjacency directions of a graph.
///
/// Both [`crate::adn::AdnGraph`] and [`crate::tdn::TdnGraph`] implement this,
/// so the reachability routines in [`crate::reach`] work on either. The
/// forward (influence-direction) adjacency drives spreads and marginal
/// gains; the reverse adjacency (who points *to* a node) computes `V̄_t` —
/// the set of nodes whose influence spread changed after an edge batch
/// (Alg. 1 line 3) — and samples reverse-reachable sets in the IC
/// baselines. The reverse bit-parallel sweeps need both: a bottom-up round
/// pulls across out-edges, opposite to the in-edges a top-down round
/// pushes across.
pub trait Graph {
    /// Calls `f` once per live out-neighbor of `u` (duplicates possible when
    /// multi-edges are stored; callers must deduplicate via visited marks).
    fn for_each_out(&self, u: NodeId, f: impl FnMut(NodeId));

    /// Calls `f` once per live in-neighbor of `v` (duplicates possible).
    fn for_each_in(&self, v: NodeId, f: impl FnMut(NodeId));

    /// An upper bound (exclusive) on node indices present in the graph, used
    /// to size visited-mark scratch.
    fn node_index_bound(&self) -> usize;

    /// Whether `u` currently participates in the graph (has at least one
    /// live incident edge, or was explicitly added).
    fn contains_node(&self, u: NodeId) -> bool;

    /// Number of nodes currently participating in the graph. Drives the
    /// direction-optimizing traversals' frontier-vs-graph switch heuristic;
    /// the default (the index bound) only makes bottom-up sweeps less
    /// eager, never incorrect.
    fn live_node_count(&self) -> usize {
        self.node_index_bound()
    }

    /// Hints the CPU to pull `u`'s out-adjacency block toward the cache.
    /// Purely an optimization hook for the reverse sweeps' bottom-up scan
    /// loops — the default is a no-op and implementations must have no
    /// observable effect.
    #[inline]
    fn prefetch_out(&self, u: NodeId) {
        let _ = u;
    }
}
