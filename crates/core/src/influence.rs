//! The influence-spread oracle of Definition 3 as an
//! [`IncrementalObjective`], used by the Greedy and Random baselines (and by
//! anything wanting `f_t` over the live graph).
//!
//! `f_t(S)` = number of distinct nodes reachable from `S` in `G_t`
//! (a node reaches itself). The objective state is the reach cover of the
//! current seed set; marginal gains are pruned BFS counts.

use tdn_graph::{marginal_gain, reach::CoverSet, Graph, NodeId, ReachScratch};
use tdn_submodular::{IncrementalObjective, OracleCounter};

/// Influence spread over a borrowed graph snapshot.
pub struct InfluenceObjective<'g, G: Graph> {
    graph: &'g G,
    scratch: ReachScratch,
    gained: Vec<NodeId>,
    counter: OracleCounter,
}

impl<'g, G: Graph> InfluenceObjective<'g, G> {
    /// Creates the objective over `graph`, charging oracle calls to
    /// `counter`.
    pub fn new(graph: &'g G, counter: OracleCounter) -> Self {
        InfluenceObjective {
            graph,
            scratch: ReachScratch::new(),
            gained: Vec::new(),
            counter,
        }
    }

    /// Evaluates `f(S)` for an explicit seed list (used to *score* seed sets
    /// chosen by other methods, e.g. the IC baselines in Fig. 13).
    pub fn evaluate_seeds(&mut self, seeds: &[NodeId]) -> u64 {
        let mut cover = CoverSet::new();
        let mut total = 0u64;
        for &s in seeds {
            if !self.graph.contains_node(s) {
                // A vanished node covers only itself; still counts once.
                if cover.insert(s) {
                    total += 1;
                }
                continue;
            }
            self.counter.incr();
            total += marginal_gain(self.graph, s, &cover, &mut self.scratch, &mut self.gained);
            for &n in &self.gained {
                cover.insert(n);
            }
        }
        total
    }
}

impl<G: Graph> IncrementalObjective for InfluenceObjective<'_, G> {
    type Elem = NodeId;
    type State = CoverSet;

    fn gain(&mut self, state: &CoverSet, e: NodeId) -> f64 {
        self.counter.incr();
        marginal_gain(self.graph, e, state, &mut self.scratch, &mut self.gained) as f64
    }

    fn commit(&mut self, state: &mut CoverSet, e: NodeId) -> f64 {
        self.counter.incr();
        let g = marginal_gain(self.graph, e, state, &mut self.scratch, &mut self.gained);
        for &n in &self.gained {
            state.insert(n);
        }
        g as f64
    }

    fn value(&self, state: &CoverSet) -> f64 {
        state.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdn_graph::AdnGraph;
    use tdn_submodular::lazy_greedy;

    fn star_and_chain() -> AdnGraph {
        // 0 -> {1,2,3}; 10 -> 11 -> 12
        let mut g = AdnGraph::new();
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(0), NodeId(3));
        g.add_edge(NodeId(10), NodeId(11));
        g.add_edge(NodeId(11), NodeId(12));
        g
    }

    #[test]
    fn greedy_over_influence_objective() {
        let g = star_and_chain();
        let counter = OracleCounter::new();
        let mut obj = InfluenceObjective::new(&g, counter.clone());
        let cands: Vec<NodeId> = g.nodes().collect();
        let res = lazy_greedy(&mut obj, cands, 2);
        assert_eq!(res.value, 7.0); // {0, 10} covers everything
        assert!(res.seeds.contains(&NodeId(0)));
        assert!(res.seeds.contains(&NodeId(10)));
        assert!(counter.get() > 0);
    }

    #[test]
    fn evaluate_seeds_counts_distinct_reach() {
        let g = star_and_chain();
        let mut obj = InfluenceObjective::new(&g, OracleCounter::new());
        assert_eq!(obj.evaluate_seeds(&[NodeId(0)]), 4);
        assert_eq!(obj.evaluate_seeds(&[NodeId(0), NodeId(1)]), 4); // 1 ⊂ reach(0)
        assert_eq!(obj.evaluate_seeds(&[NodeId(0), NodeId(10)]), 7);
        assert_eq!(obj.evaluate_seeds(&[]), 0);
    }

    #[test]
    fn evaluate_seeds_handles_unknown_nodes() {
        let g = star_and_chain();
        let mut obj = InfluenceObjective::new(&g, OracleCounter::new());
        // Node 99 is not in the graph: it covers itself only.
        assert_eq!(obj.evaluate_seeds(&[NodeId(99)]), 1);
        assert_eq!(obj.evaluate_seeds(&[NodeId(99), NodeId(99)]), 1);
    }
}
