//! Offline graph analysis: Tarjan SCC condensation and exact all-nodes
//! reachability spreads via DAG bitsets.
//!
//! The streaming algorithms never need this (they evaluate spreads with
//! incremental pruned BFS), but analysis and debugging do: computing the
//! exact influence spread of *every* node at once explains workload
//! behaviour (e.g. a dense strongly-connected core makes `V̄_t` large) and
//! gives tests an independent oracle to cross-check the BFS path.

use crate::node::NodeId;
use crate::traits::Graph;

/// Strongly connected components of a graph snapshot, with the condensation
/// DAG and per-node exact reach counts.
pub struct Condensation {
    /// `comp[i]` = component id of node index `i` (`u32::MAX` for indices
    /// not present in the graph).
    pub comp: Vec<u32>,
    /// Members per component.
    pub members: Vec<Vec<NodeId>>,
    /// Condensation DAG edges (deduplicated), `dag[c]` = successor comps.
    pub dag: Vec<Vec<u32>>,
    /// Exact reach count (number of nodes) for each component's members.
    pub reach: Vec<u64>,
}

impl Condensation {
    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.members.len()
    }

    /// Component id of `n`, if present.
    pub fn component_of(&self, n: NodeId) -> Option<u32> {
        match self.comp.get(n.index()) {
            Some(&c) if c != u32::MAX => Some(c),
            _ => None,
        }
    }

    /// Exact influence spread `f({n})` of a single node.
    pub fn spread_of(&self, n: NodeId) -> Option<u64> {
        self.component_of(n).map(|c| self.reach[c as usize])
    }

    /// Size of the largest SCC (the "dense core" diagnostic).
    pub fn largest_scc(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The nodes with the largest exact singleton spreads (ties broken by
    /// node id for determinism).
    pub fn top_spreads(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut all: Vec<(NodeId, u64)> = self
            .members
            .iter()
            .enumerate()
            .flat_map(|(c, ms)| ms.iter().map(move |&n| (n, c)))
            .map(|(n, c)| (n, self.reach[c]))
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Computes the SCC condensation of the nodes in `nodes` and the exact
/// reach count of every node, using an iterative Tarjan plus bitset DAG
/// propagation (exact set-union semantics, O(V·C/64) words).
pub fn condense<G: Graph>(g: &G, nodes: impl IntoIterator<Item = NodeId>) -> Condensation {
    let nodes: Vec<NodeId> = nodes.into_iter().collect();
    let bound = g
        .node_index_bound()
        .max(nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0));
    // Iterative Tarjan.
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; bound];
    let mut low = vec![0u32; bound];
    let mut on_stack = vec![false; bound];
    let mut comp = vec![u32::MAX; bound];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    let mut counter = 0u32;
    // Explicit DFS frames: (node, out-neighbor cursor).
    for &root in &nodes {
        if index[root.index()] != UNSEEN {
            continue;
        }
        let mut frames: Vec<(NodeId, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                index[v.index()] = counter;
                low[v.index()] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v.index()] = true;
            }
            // Collect out-neighbors once per visit step (cursor indexes it).
            let mut outs: Vec<NodeId> = Vec::new();
            g.for_each_out(v, |w| outs.push(w));
            let mut advanced = false;
            while *cursor < outs.len() {
                let w = outs[*cursor];
                *cursor += 1;
                if index[w.index()] == UNSEEN {
                    frames.push((w, 0));
                    advanced = true;
                    break;
                } else if on_stack[w.index()] {
                    low[v.index()] = low[v.index()].min(index[w.index()]);
                }
            }
            if advanced {
                continue;
            }
            // v is finished: maybe an SCC root.
            if low[v.index()] == index[v.index()] {
                let cid = members.len() as u32;
                let mut ms = Vec::new();
                loop {
                    let w = stack.pop().expect("stack underflow");
                    on_stack[w.index()] = false;
                    comp[w.index()] = cid;
                    ms.push(w);
                    if w == v {
                        break;
                    }
                }
                members.push(ms);
            }
            frames.pop();
            if let Some(&mut (parent, _)) = frames.last_mut() {
                let pl = low[parent.index()].min(low[v.index()]);
                low[parent.index()] = pl;
            }
        }
    }
    // Condensation DAG (dedup edges).
    let ncomp = members.len();
    let mut dag: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
    for (c, ms) in members.iter().enumerate() {
        let mut succs: Vec<u32> = Vec::new();
        for &v in ms {
            g.for_each_out(v, |w| {
                let cw = comp[w.index()];
                if cw != c as u32 {
                    succs.push(cw);
                }
            });
        }
        succs.sort_unstable();
        succs.dedup();
        dag[c] = succs;
    }
    // Reach counts via bitsets in reverse topological order. Tarjan emits
    // components in reverse topological order already (successors first).
    let words = ncomp.div_ceil(64);
    let mut bits: Vec<Vec<u64>> = vec![vec![0u64; words]; ncomp];
    let mut reach = vec![0u64; ncomp];
    for c in 0..ncomp {
        // Mark self.
        bits[c][c / 64] |= 1u64 << (c % 64);
        // Successor components were emitted earlier by Tarjan.
        let succs = dag[c].clone();
        for s in succs {
            let (head, tail) = bits.split_at_mut(c.max(s as usize));
            let (dst, src) = if (s as usize) < c {
                (&mut tail[0], &head[s as usize])
            } else {
                // Tarjan guarantees successors first, but guard anyway.
                continue;
            };
            for (d, w) in dst.iter_mut().zip(src.iter()) {
                *d |= *w;
            }
        }
        // Count nodes across all reachable components.
        let mut total = 0u64;
        for (word_idx, word) in bits[c].iter().enumerate() {
            let mut w = *word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                total += members[word_idx * 64 + b].len() as u64;
                w &= w - 1;
            }
        }
        reach[c] = total;
    }
    Condensation {
        comp,
        members,
        dag,
        reach,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adn::AdnGraph;
    use crate::reach::{reach_count, ReachScratch};

    fn graph(edges: &[(u32, u32)]) -> AdnGraph {
        let mut g = AdnGraph::new();
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    #[test]
    fn line_graph_has_singleton_components() {
        let g = graph(&[(0, 1), (1, 2), (2, 3)]);
        let c = condense(&g, g.nodes());
        assert_eq!(c.num_components(), 4);
        assert_eq!(c.largest_scc(), 1);
        assert_eq!(c.spread_of(NodeId(0)), Some(4));
        assert_eq!(c.spread_of(NodeId(3)), Some(1));
    }

    #[test]
    fn cycle_collapses_to_one_component() {
        let g = graph(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = condense(&g, g.nodes());
        assert_eq!(c.num_components(), 2);
        assert_eq!(c.largest_scc(), 3);
        for i in 0..3 {
            assert_eq!(c.spread_of(NodeId(i)), Some(4));
        }
        assert_eq!(c.spread_of(NodeId(3)), Some(1));
    }

    #[test]
    fn diamond_dag_counts_union_not_sum() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: reach(0) must be 4, not 5.
        let g = graph(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = condense(&g, g.nodes());
        assert_eq!(c.spread_of(NodeId(0)), Some(4));
        assert_eq!(c.spread_of(NodeId(1)), Some(2));
    }

    #[test]
    fn spreads_match_bfs_on_random_graphs() {
        let mut state = 0xABCDu64;
        let mut rnd = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        for _ in 0..20 {
            let mut g = AdnGraph::new();
            for _ in 0..60 {
                let u = rnd(25) as u32;
                let v = rnd(25) as u32;
                if u != v {
                    g.add_edge(NodeId(u), NodeId(v));
                }
            }
            let c = condense(&g, g.nodes());
            let mut scratch = ReachScratch::new();
            for n in g.nodes() {
                let exact = c.spread_of(n).expect("node present");
                let bfs = reach_count(&g, n, &mut scratch);
                assert_eq!(exact, bfs, "node {n:?}");
            }
        }
    }

    #[test]
    fn top_spreads_are_sorted_and_deterministic() {
        let g = graph(&[(0, 1), (0, 2), (5, 6)]);
        let c = condense(&g, g.nodes());
        let top = c.top_spreads(2);
        assert_eq!(top[0], (NodeId(0), 3));
        assert_eq!(top[1], (NodeId(5), 2));
    }

    #[test]
    fn empty_input_is_empty() {
        let g = AdnGraph::new();
        let c = condense(&g, std::iter::empty());
        assert_eq!(c.num_components(), 0);
        assert_eq!(c.largest_scc(), 0);
        assert!(c.top_spreads(3).is_empty());
    }
}
