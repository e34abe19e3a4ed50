//! DIM (Ohsaka et al., VLDB 2016 \[17\]) — a dynamically *updatable* RR-set
//! index for fully dynamic graphs, with sketch-size parameter `β`.
//!
//! Maintained state: a pool of RR sketches with an inverted node→sketch
//! index. Reproduction of the update rules (DESIGN.md §5):
//!
//! * **edge insertion** `(u, v)`: every sketch containing `v` but not `u`
//!   flips the edge's IC coin and, on success, absorbs `u` plus whatever
//!   reaches `u` under fresh coins (exactly Ohsaka's incremental expansion);
//! * **edge deletion**: a sketch is *dirty* iff it contains both endpoints
//!   (its membership may have depended on the deleted edge) — dirty
//!   sketches are regenerated from a fresh uniform root. This is a
//!   conservative superset of the truly affected sketches, trading a little
//!   update work for exactness of the sampled distribution;
//! * **pool size**: `β · k · ⌈ln n⌉` sketches, resized as `n` changes (the
//!   original ties pool size to `β` and the graph size; same scaling);
//! * **vertex churn**: a round-robin slice of the pool (1/8 per step) is
//!   resampled from fresh uniform roots, so the root distribution tracks
//!   node additions/removals with bounded per-step work.
//!
//! Queries run greedy max-coverage over the pool; like the other baselines
//! the returned seeds are scored with the reachability oracle.

use crate::max_cover::max_cover;
use crate::rr::{extend_rr_on_insert, sample_rr, RrSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tdn_core::{InfluenceObjective, InfluenceTracker, Solution, TrackerConfig};
use tdn_graph::{FxHashMap, FxHashSet, Graph, Lifetime, NodeId, TdnGraph, Time};
use tdn_streams::TimedEdge;
use tdn_submodular::OracleCounter;

/// The DIM tracker.
pub struct DimTracker {
    k: usize,
    beta: usize,
    max_lifetime: Lifetime,
    graph: TdnGraph,
    sketches: Vec<RrSet>,
    /// node → indices of sketches containing it.
    index: FxHashMap<NodeId, FxHashSet<u32>>,
    rng: StdRng,
    counter: OracleCounter,
    query_every: u64,
    last: Solution,
    steps_seen: u64,
    /// Round-robin cursor for root re-mixing (see module docs).
    refresh_cursor: usize,
}

impl DimTracker {
    /// Creates the tracker with sketch parameter `beta` (§V-C uses 32).
    pub fn new(cfg: &TrackerConfig, beta: usize, seed: u64) -> Self {
        DimTracker {
            k: cfg.k,
            beta: beta.max(1),
            max_lifetime: cfg.max_lifetime,
            graph: TdnGraph::new(),
            sketches: Vec::new(),
            index: FxHashMap::default(),
            rng: StdRng::seed_from_u64(seed),
            counter: OracleCounter::new(),
            query_every: 1,
            last: Solution::empty(),
            steps_seen: 0,
            refresh_cursor: 0,
        }
    }

    /// Re-solve cadence (1 = every step; updates always run).
    pub fn with_query_every(mut self, n: u64) -> Self {
        assert!(n >= 1);
        self.query_every = n;
        self
    }

    /// Current number of sketches.
    pub fn pool_size(&self) -> usize {
        self.sketches.len()
    }

    fn target_pool(&self) -> usize {
        let n = self.graph.node_count();
        if n == 0 {
            return 0;
        }
        self.beta * self.k * ((n as f64).ln().ceil() as usize).max(1)
    }

    fn index_add(&mut self, sketch_id: u32, nodes: &[NodeId]) {
        for &n in nodes {
            self.index.entry(n).or_default().insert(sketch_id);
        }
    }

    fn index_remove(&mut self, sketch_id: u32, nodes: &[NodeId]) {
        for n in nodes {
            if let Some(s) = self.index.get_mut(n) {
                s.remove(&sketch_id);
                if s.is_empty() {
                    self.index.remove(n);
                }
            }
        }
    }

    /// Replaces sketch `id` with a freshly sampled one (uniform root).
    fn regenerate(&mut self, id: u32) {
        let old_nodes = std::mem::take(&mut self.sketches[id as usize].nodes);
        self.index_remove(id, &old_nodes);
        if let Some(rr) = sample_rr(&self.graph, &mut self.rng) {
            let nodes = rr.nodes.clone();
            self.sketches[id as usize] = rr;
            self.index_add(id, &nodes);
        } else {
            // Graph is empty: leave a hollow sketch; pool resize removes it.
            self.sketches[id as usize].nodes = old_nodes;
            self.sketches[id as usize].nodes.clear();
        }
    }

    /// Re-mixes a slice of the pool each step so sketch roots track the
    /// *current* live-node distribution (the original DIM adds/retires
    /// sketches on vertex churn; round-robin refresh has the same fixed
    /// point and bounded per-step cost).
    fn refresh_roots(&mut self) {
        let pool = self.sketches.len();
        if pool == 0 {
            return;
        }
        let quota = (pool / 8).max(1);
        for _ in 0..quota {
            let id = (self.refresh_cursor % pool) as u32;
            self.refresh_cursor = (self.refresh_cursor + 1) % pool;
            self.regenerate(id);
        }
    }

    fn resize_pool(&mut self) {
        let target = self.target_pool();
        while self.sketches.len() < target {
            match sample_rr(&self.graph, &mut self.rng) {
                Some(rr) => {
                    let id = self.sketches.len() as u32;
                    let nodes = rr.nodes.clone();
                    self.sketches.push(rr);
                    self.index_add(id, &nodes);
                }
                None => break,
            }
        }
        while self.sketches.len() > target {
            let id = (self.sketches.len() - 1) as u32;
            let nodes = std::mem::take(&mut self.sketches[id as usize].nodes);
            self.index_remove(id, &nodes);
            self.sketches.pop();
        }
    }
}

impl InfluenceTracker for DimTracker {
    fn name(&self) -> &'static str {
        "DIM"
    }

    fn step(&mut self, t: Time, batch: &[TimedEdge]) -> Solution {
        // Deletions: collect dirty sketches while the graph evicts.
        let mut dirty: FxHashSet<u32> = FxHashSet::default();
        {
            let index = &self.index;
            self.graph.advance_to_with(t, |u, v| {
                if let (Some(su), Some(sv)) = (index.get(&u), index.get(&v)) {
                    let (small, large) = if su.len() <= sv.len() {
                        (su, sv)
                    } else {
                        (sv, su)
                    };
                    for &id in small {
                        if large.contains(&id) {
                            dirty.insert(id);
                        }
                    }
                }
            });
        }
        for id in dirty {
            self.regenerate(id);
        }
        // Insertions: incremental sketch expansion per new edge.
        for e in batch {
            let l = e.lifetime.min(self.max_lifetime).max(1);
            self.graph.add_edge(e.src, e.dst, l);
            if let Some(ids) = self.index.get(&e.dst) {
                let candidates: Vec<u32> = ids.iter().copied().collect();
                for id in candidates {
                    let sketch = &mut self.sketches[id as usize];
                    let before = sketch.nodes.len();
                    if extend_rr_on_insert(&self.graph, sketch, e.src, e.dst, &mut self.rng) {
                        let added: Vec<NodeId> =
                            self.sketches[id as usize].nodes[before..].to_vec();
                        self.index_add(id, &added);
                    }
                }
            }
        }
        // Roots that died invalidate their sketches.
        let dead_roots: Vec<u32> = self
            .sketches
            .iter()
            .enumerate()
            .filter(|(_, rr)| !rr.nodes.is_empty() && !self.graph.contains_node(rr.root))
            .map(|(i, _)| i as u32)
            .collect();
        for id in dead_roots {
            self.regenerate(id);
        }
        self.resize_pool();
        self.refresh_roots();
        self.steps_seen += 1;
        if (self.steps_seen - 1).is_multiple_of(self.query_every) {
            let res = max_cover(&self.sketches, self.k, self.graph.node_count());
            let mut obj = InfluenceObjective::new(&self.graph, self.counter.clone());
            let value = obj.evaluate_seeds(&res.seeds);
            self.last = Solution {
                seeds: res.seeds,
                value,
            };
        }
        self.last.clone()
    }

    fn oracle_calls(&self) -> u64 {
        self.counter.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: usize) -> TrackerConfig {
        TrackerConfig::new(k, 0.1, 1000)
    }

    fn hub_batch(center: u32, spokes: u32, mult: usize, lifetime: Lifetime) -> Vec<TimedEdge> {
        let mut b = Vec::new();
        for i in 1..=spokes {
            for _ in 0..mult {
                b.push(TimedEdge::new(center, center + i, lifetime));
            }
        }
        b
    }

    #[test]
    fn finds_a_dense_hub() {
        let mut dim = DimTracker::new(&cfg(1), 8, 11);
        let sol = dim.step(0, &hub_batch(0, 6, 20, 100));
        assert_eq!(sol.seeds, vec![NodeId(0)]);
        assert_eq!(sol.value, 7);
        assert!(dim.pool_size() > 0);
    }

    #[test]
    fn adapts_after_expiry() {
        let mut dim = DimTracker::new(&cfg(1), 8, 12);
        let mut batch = hub_batch(0, 6, 20, 2); // big hub, short-lived
        batch.extend(hub_batch(100, 2, 20, 50)); // small hub, long-lived
        let sol = dim.step(0, &batch);
        assert_eq!(sol.seeds, vec![NodeId(0)]);
        // After the big hub expires, the small one must take over.
        let sol = dim.step(2, &[]);
        assert_eq!(sol.seeds, vec![NodeId(100)]);
        assert_eq!(sol.value, 3);
    }

    #[test]
    fn incremental_insertion_grows_sketch_coverage() {
        let mut dim = DimTracker::new(&cfg(1), 8, 13);
        dim.step(0, &hub_batch(0, 3, 20, 100));
        // New super-source feeding the hub: 50 -> 0, heavy multiplicity.
        let batch: Vec<TimedEdge> = (0..20).map(|_| TimedEdge::new(50u32, 0u32, 100)).collect();
        dim.step(1, &batch);
        // 50 reaches everything 0 reaches plus 0 itself, so once root
        // re-mixing has caught up with the vertex addition it must win.
        let mut sol = Solution::empty();
        for t in 2..=12 {
            sol = dim.step(t, &[]);
        }
        assert_eq!(sol.seeds, vec![NodeId(50)]);
        assert_eq!(sol.value, 5);
    }

    #[test]
    fn empty_graph_is_fine() {
        let mut dim = DimTracker::new(&cfg(2), 4, 1);
        assert_eq!(dim.step(0, &[]), Solution::empty());
        assert_eq!(dim.pool_size(), 0);
    }

    #[test]
    fn index_stays_consistent() {
        let mut dim = DimTracker::new(&cfg(2), 4, 14);
        for round in 0..10u32 {
            let batch = hub_batch(round * 10, 3, 5, 3);
            dim.step(round as u64, &batch);
        }
        // Every index entry must point to a sketch actually containing it.
        for (&node, ids) in dim.index.iter() {
            for &id in ids {
                assert!(
                    dim.sketches[id as usize].nodes.contains(&node),
                    "stale index entry {node:?} -> sketch {id}"
                );
            }
        }
        // And every sketch member must be indexed.
        for (i, rr) in dim.sketches.iter().enumerate() {
            for &n in &rr.nodes {
                assert!(dim.index[&n].contains(&(i as u32)));
            }
        }
    }
}
