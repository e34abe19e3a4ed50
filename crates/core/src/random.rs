//! The Random baseline (§V-C): `k` live nodes drawn uniformly at random,
//! scored with the same influence oracle — the quality floor in Fig. 8.

use crate::config::TrackerConfig;
use crate::influence::InfluenceObjective;
use crate::tracker::{InfluenceTracker, Solution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdn_graph::{Lifetime, NodeId, TdnGraph, Time};
use tdn_streams::TimedEdge;
use tdn_submodular::OracleCounter;

/// Uniformly random seed selection over live nodes.
pub struct RandomTracker {
    k: usize,
    max_lifetime: Lifetime,
    graph: TdnGraph,
    counter: OracleCounter,
    rng: StdRng,
}

impl RandomTracker {
    /// Creates the tracker with a deterministic sampling seed.
    pub fn new(cfg: &TrackerConfig, seed: u64) -> Self {
        RandomTracker {
            k: cfg.k,
            max_lifetime: cfg.max_lifetime,
            graph: TdnGraph::new(),
            counter: OracleCounter::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Serializes the tracker as named sections: `meta` holds the
    /// parameters, oracle tally, and the generator's exact internal state;
    /// `g.` holds the live TDN (whose live-node *position order* the
    /// sampler indexes into, [`TdnGraph::write_sections`]).
    pub fn write_sections(&self, sink: &mut codec::SectionSink) {
        let mut w = codec::Writer::new();
        w.put_u64(self.k as u64);
        w.put_u32(self.max_lifetime);
        w.put_u64(self.counter.get());
        for word in self.rng.state() {
            w.put_u64(word);
        }
        sink.put("meta", w.into_vec());
        self.graph.write_sections(sink, "g.");
    }

    /// Reconstructs a tracker from the sections [`Self::write_sections`]
    /// emitted. The restored generator resumes the interrupted run's
    /// random stream, so future draws match an uninterrupted run exactly.
    pub fn read_sections(map: &codec::SectionMap) -> Result<Self, codec::SectionError> {
        let invalid =
            |msg: &'static str| codec::SectionError::Codec(codec::CodecError::Invalid(msg));
        let mut r = map.reader("meta")?;
        let k = r.get_u64()?;
        if k == 0 || k > usize::MAX as u64 {
            return Err(invalid("sampler budget k out of range"));
        }
        let max_lifetime = r.get_u32()?;
        if max_lifetime == 0 {
            return Err(invalid("sampler lifetime bound L is zero"));
        }
        let calls = r.get_u64()?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        r.finish()?;
        let graph = TdnGraph::read_sections(map, "g.")?;
        let counter = OracleCounter::new();
        counter.set(calls);
        Ok(RandomTracker {
            k: k as usize,
            max_lifetime,
            graph,
            counter,
            rng: StdRng::from_state(state),
        })
    }

    /// Draws `min(k, |V_t|)` distinct live nodes.
    fn sample_seeds(&mut self) -> Vec<NodeId> {
        let live = self.graph.live_nodes();
        let n = live.len();
        if n == 0 {
            return Vec::new();
        }
        if n <= self.k {
            return live.iter().collect();
        }
        // Floyd-style distinct sampling over the indexable set.
        let mut picked: Vec<NodeId> = Vec::with_capacity(self.k);
        let mut seen = std::collections::HashSet::with_capacity(self.k);
        while picked.len() < self.k {
            let idx = self.rng.gen_range(0..n);
            if seen.insert(idx) {
                picked.push(live.get(idx).expect("idx < len"));
            }
        }
        picked
    }
}

impl InfluenceTracker for RandomTracker {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn step(&mut self, t: Time, batch: &[TimedEdge]) -> Solution {
        self.graph.advance_to(t);
        for e in batch {
            self.graph
                .add_edge(e.src, e.dst, e.lifetime.min(self.max_lifetime).max(1));
        }
        let seeds = self.sample_seeds();
        let mut obj = InfluenceObjective::new(&self.graph, self.counter.clone());
        let value = obj.evaluate_seeds(&seeds);
        Solution { seeds, value }
    }

    fn oracle_calls(&self) -> u64 {
        self.counter.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: u32, d: u32, l: Lifetime) -> TimedEdge {
        TimedEdge::new(s, d, l)
    }

    #[test]
    fn samples_distinct_live_nodes() {
        let mut r = RandomTracker::new(&TrackerConfig::new(3, 0.1, 100), 7);
        let batch: Vec<TimedEdge> = (0..20u32).map(|i| e(i, 100 + i, 10)).collect();
        let sol = r.step(0, &batch);
        assert_eq!(sol.seeds.len(), 3);
        let distinct: std::collections::HashSet<_> = sol.seeds.iter().collect();
        assert_eq!(distinct.len(), 3);
        assert!(sol.value >= 3, "each seed covers at least itself");
    }

    #[test]
    fn small_graphs_return_all_nodes() {
        let mut r = RandomTracker::new(&TrackerConfig::new(10, 0.1, 100), 7);
        let sol = r.step(0, &[e(0, 1, 5)]);
        assert_eq!(sol.seeds.len(), 2);
        assert_eq!(sol.value, 2);
    }

    #[test]
    fn empty_graph_returns_empty() {
        let mut r = RandomTracker::new(&TrackerConfig::new(3, 0.1, 100), 7);
        let sol = r.step(0, &[]);
        assert_eq!(sol, Solution::empty());
        let sol = r.step(5, &[]);
        assert_eq!(sol, Solution::empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let batch: Vec<TimedEdge> = (0..30u32).map(|i| e(i, 100 + i, 10)).collect();
        let mut a = RandomTracker::new(&TrackerConfig::new(5, 0.1, 100), 42);
        let mut b = RandomTracker::new(&TrackerConfig::new(5, 0.1, 100), 42);
        assert_eq!(a.step(0, &batch).seeds, b.step(0, &batch).seeds);
    }
}
