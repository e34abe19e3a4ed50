//! BASICREDUCTION (Alg. 2): tracking over general TDNs by maintaining `L`
//! staggered SIEVEADN instances.
//!
//! At time `t`, instance `A_i` has processed exactly the edges that will
//! still be alive `i − 1` steps from now (it is fed every arriving edge
//! whose lifetime is at least its index). Because an edge always outlives
//! every instance it is fed to, each instance's accumulated graph is an
//! ADN whose content equals a *suffix-by-lifetime* of `G_t`; in particular
//! `A_1`'s graph is exactly `G_t`, so its sieve output answers Problem 1
//! with the `(1/2 − ε)` guarantee (Theorem 4).
//!
//! After answering, `A_1` dies, everyone shifts left, and a fresh instance
//! joins at index `L` (Fig. 4(b)) — implemented with a `VecDeque` rotate.

use crate::config::TrackerConfig;
use crate::sieve_adn::{SieveAdn, SpreadMode, TraversalKind};
use crate::tracker::{InfluenceTracker, Solution};
use std::collections::VecDeque;
use tdn_graph::{Lifetime, NodeId, SpreadStats, SpreadStatsSnapshot, Time};
use tdn_streams::TimedEdge;
use tdn_submodular::OracleCounter;

/// Largest `L` the tracker materializes instances for.
const MAX_LIFETIME: u64 = 1_000_000;

/// The BASICREDUCTION tracker.
pub struct BasicReduction {
    cfg: TrackerConfig,
    /// `instances[i]` is `A_{i+1}`; front answers the current step.
    instances: VecDeque<SieveAdn>,
    counter: OracleCounter,
    /// Spread-maintenance mode applied to every instance (current and
    /// future — `shift` keeps minting them).
    mode: SpreadMode,
    /// Traversal backend applied to every instance, like `mode`.
    traversal: TraversalKind,
    /// Incremental-engine tally shared by all instances (like `counter`).
    spread_stats: SpreadStats,
    last_t: Option<Time>,
    /// The last step's answer, kept because the answering instance `A_1`
    /// is destroyed by the post-query shift. Serves the standing-query
    /// read path ([`crate::TrackerEngine::query`]), and is checkpointed so
    /// a restored tracker answers exactly what the interrupted one did.
    last_solution: Option<Solution>,
}

impl BasicReduction {
    /// Creates the tracker; allocates `L = cfg.max_lifetime` instances.
    ///
    /// # Panics
    /// Panics if `L` is so large that per-step instance maintenance is
    /// clearly unintended (`L > 10⁶`); use HISTAPPROX for long lifetimes.
    pub fn new(cfg: &TrackerConfig) -> Self {
        assert!(
            cfg.max_lifetime as u64 <= MAX_LIFETIME,
            "BasicReduction materializes L instances; L = {} is impractical",
            cfg.max_lifetime
        );
        let counter = OracleCounter::new();
        let mode = SpreadMode::default();
        let spread_stats = SpreadStats::new();
        let instances = (0..cfg.max_lifetime)
            .map(|_| SieveAdn::from_config_with(cfg, counter.clone(), mode, spread_stats.clone()))
            .collect();
        BasicReduction {
            cfg: cfg.clone(),
            instances,
            counter,
            mode,
            traversal: TraversalKind::default(),
            spread_stats,
            last_t: None,
            last_solution: None,
        }
    }

    /// Sets the spread-maintenance mode for every current and future
    /// instance (builder form; call before feeding).
    pub fn with_spread_mode(mut self, mode: SpreadMode) -> Self {
        self.mode = mode;
        for inst in &mut self.instances {
            inst.set_spread_mode(mode);
        }
        self
    }

    /// The active spread-maintenance mode.
    pub fn spread_mode(&self) -> SpreadMode {
        self.mode
    }

    /// Sets the traversal backend for every current and future instance
    /// (builder form).
    pub fn with_traversal(mut self, traversal: TraversalKind) -> Self {
        self.traversal = traversal;
        for inst in &mut self.instances {
            inst.set_traversal(traversal);
        }
        self
    }

    /// The active traversal backend.
    pub fn traversal(&self) -> TraversalKind {
        self.traversal
    }

    /// Current incremental-engine tallies, aggregated across all
    /// instances the tracker ever ran.
    pub fn spread_stats(&self) -> SpreadStatsSnapshot {
        self.spread_stats.snapshot()
    }

    /// Number of live SIEVEADN instances (always `L`).
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Read access to the staggered instances in window order (`A_1`
    /// first — the instance that answers the current step). Conformance
    /// harnesses use this to probe per-instance sketch pools.
    pub fn instances(&self) -> impl Iterator<Item = &SieveAdn> {
        self.instances.iter()
    }

    /// The answer the last [`step`](InfluenceTracker::step) returned, if
    /// any. `A_1` is destroyed by the post-query shift, so this cache is
    /// the only way to re-read a step's answer; checkpoints carry it.
    pub fn last_solution(&self) -> Option<&Solution> {
        self.last_solution.as_ref()
    }

    /// Approximate heap footprint across all instances (Theorem 5's `L`
    ///-fold state; compare with [`crate::HistApprox::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.instances.iter().map(|i| i.approx_bytes()).sum()
    }

    /// The tick window position 0 answers at: the one after the last
    /// processed tick (0 before the first step). Position `i` answers at
    /// `base + i`, a name that stays fixed as the window shifts.
    fn window_base(last_t: Option<Time>) -> Time {
        last_t.map_or(0, |t| t.wrapping_add(1))
    }

    /// Serializes the tracker as named sections:
    ///
    /// - `meta`: config, oracle tally, spread mode, engine tallies, the
    ///   last processed tick, the instance count, and the last answer;
    /// - `inst.{deadline}.`: all `L` staggered instances
    ///   ([`SieveAdn::write_sections`]), each named by the tick it answers
    ///   at, so an instance whose state did not change since the parent
    ///   save becomes refs however far the window shifted.
    pub fn write_sections(&self, sink: &mut codec::SectionSink) {
        let mut w = codec::Writer::new();
        self.cfg.write_snapshot(&mut w);
        w.put_u64(self.counter.get());
        self.mode.write_snapshot(&mut w);
        self.spread_stats.snapshot().write_snapshot(&mut w);
        w.put_bool(self.last_t.is_some());
        w.put_u64(self.last_t.unwrap_or(0));
        w.put_len(self.instances.len());
        w.put_bool(self.last_solution.is_some());
        if let Some(sol) = &self.last_solution {
            let seeds: Vec<u32> = sol.seeds.iter().map(|s| s.0).collect();
            w.put_u32_run(&seeds);
            w.put_u64(sol.value);
        }
        sink.put("meta", w.into_vec());
        let base = Self::window_base(self.last_t);
        for (i, inst) in self.instances.iter().enumerate() {
            inst.write_sections(sink, &format!("inst.{}.", base.wrapping_add(i as Time)));
        }
    }

    /// Reconstructs a tracker from the sections [`Self::write_sections`]
    /// emitted. All restored instances bill one fresh counter seeded with
    /// the saved tally, exactly like the interrupted run's shared counter
    /// (the engine tally is shared and re-seeded the same way).
    pub fn read_sections(map: &codec::SectionMap) -> Result<Self, codec::SectionError> {
        let invalid =
            |msg: &'static str| codec::SectionError::Codec(codec::CodecError::Invalid(msg));
        let mut r = map.reader("meta")?;
        let cfg = TrackerConfig::read_snapshot(&mut r)?;
        let calls = r.get_u64()?;
        let mode = SpreadMode::read_snapshot(&mut r)?;
        let stats_snap = SpreadStatsSnapshot::read_snapshot(&mut r)?;
        let has_last = r.get_bool()?;
        let last_t = has_last.then_some(r.get_u64()?);
        let n = r.get_u64()?;
        let last_solution = if r.get_bool()? {
            let seeds: Vec<NodeId> = r.get_u32_run()?.into_iter().map(NodeId).collect();
            if seeds.len() > cfg.k {
                return Err(invalid("BasicReduction last answer exceeds budget k"));
            }
            let value = r.get_u64()?;
            Some(Solution { seeds, value })
        } else {
            None
        };
        r.finish()?;
        if cfg.max_lifetime as u64 > MAX_LIFETIME {
            return Err(invalid("BasicReduction lifetime bound L out of range"));
        }
        if n != cfg.max_lifetime as u64 {
            return Err(invalid("BasicReduction instance count differs from L"));
        }
        let counter = OracleCounter::new();
        counter.set(calls);
        let spread_stats = SpreadStats::new();
        spread_stats.restore(&stats_snap);
        let base = Self::window_base(last_t);
        let mut instances = VecDeque::with_capacity(n as usize);
        for i in 0..n {
            let prefix = format!("inst.{}.", base.wrapping_add(i));
            let mut inst = SieveAdn::read_sections(map, &prefix, counter.clone())?;
            if inst.spread_mode() != mode {
                return Err(invalid(
                    "BasicReduction instance spread mode differs from tracker",
                ));
            }
            inst.share_spread_stats(spread_stats.clone());
            instances.push_back(inst);
        }
        Ok(BasicReduction {
            cfg,
            instances,
            counter,
            mode,
            traversal: TraversalKind::default(),
            spread_stats,
            last_t,
            last_solution,
        })
    }

    /// Sets or clears the approximate heap ceiling at runtime (restored
    /// trackers come back unbudgeted; see
    /// [`TrackerConfig::memory_budget`]).
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.cfg.memory_budget = budget;
    }

    /// Budget-enforcement ladder, run after every step (see DESIGN.md
    /// "Memory budget"): escalate through the correctness-preserving
    /// shedding levels across all `L` instances — (1) drop memo entries,
    /// (2) return recycled arenas and scratch, (3) fall back to
    /// [`SpreadMode::FullRecompute`] for current and future instances.
    /// Each level taken is tallied once in the shared engine stats.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.cfg.memory_budget else {
            return;
        };
        if self.approx_bytes() <= budget {
            return;
        }
        for inst in &mut self.instances {
            inst.release_memo_memory();
        }
        self.spread_stats.note_shed(1);
        if self.approx_bytes() <= budget {
            return;
        }
        for inst in &mut self.instances {
            inst.release_recycled_memory();
        }
        self.spread_stats.note_shed(2);
        if self.approx_bytes() <= budget {
            return;
        }
        self.mode = SpreadMode::FullRecompute;
        for inst in &mut self.instances {
            inst.set_spread_mode(SpreadMode::FullRecompute);
            inst.release_memo_memory();
        }
        self.spread_stats.note_shed(3);
    }

    /// Advances the instance window by one step: drop `A_1`, append a new
    /// `A_L` (Alg. 2 lines 5–7).
    fn shift(&mut self) {
        self.instances.pop_front();
        let mut fresh = SieveAdn::from_config_with(
            &self.cfg,
            self.counter.clone(),
            self.mode,
            self.spread_stats.clone(),
        );
        fresh.set_traversal(self.traversal);
        self.instances.push_back(fresh);
    }
}

impl InfluenceTracker for BasicReduction {
    fn name(&self) -> &'static str {
        "BasicReduction"
    }

    fn step(&mut self, t: Time, batch: &[TimedEdge]) -> Solution {
        // Catch up on skipped (empty) ticks: each one still shifts the
        // window, since indices are remaining lifetimes.
        if let Some(last) = self.last_t {
            assert!(t > last, "time must strictly increase per step");
            for _ in 0..(t - last - 1) {
                self.shift();
            }
        }
        self.last_t = Some(t);
        // Feed: edge with (clamped) lifetime l goes to A_1 … A_l. The L
        // instances are fully independent SIEVEADN states, so the feeds fan
        // out across the execution engine's workers; each instance consumes
        // its filtered batch in arrival order, exactly as the serial loop
        // did, so results are bit-identical at any thread count. Batch
        // sizes shrink with the lifetime index, so per-instance cost is
        // skewed and the stealing scheduler rebalances the tail.
        let l_max = self.cfg.max_lifetime;
        let mut work: Vec<(Lifetime, &mut SieveAdn)> = self
            .instances
            .iter_mut()
            .enumerate()
            .map(|(idx, inst)| ((idx + 1) as Lifetime, inst))
            .collect();
        exec::par_for_each_mut_steal(&mut work, |(min_l, inst)| {
            let min_l = *min_l;
            inst.feed(
                batch
                    .iter()
                    .filter(|e| e.lifetime.min(l_max) >= min_l)
                    .map(|e| (e.src, e.dst)),
            );
        });
        let sol = self.instances.front().expect("L ≥ 1 instances").query();
        self.last_solution = Some(sol.clone());
        self.shift();
        // Enforced after the shift so the post-step footprint — including
        // the freshly appended `A_L` — is bounded by the ceiling whenever
        // the irreducible live state fits under it.
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
    use tdn_graph::NodeId;

    fn cfg(k: usize, l: Lifetime) -> TrackerConfig {
        TrackerConfig::new(k, 0.1, l)
    }

    fn e(s: u32, d: u32, l: Lifetime) -> TimedEdge {
        TimedEdge::new(s, d, l)
    }

    #[test]
    fn expired_influence_is_forgotten() {
        let mut br = BasicReduction::new(&cfg(1, 3));
        // A big star with lifetime 1; a small star with lifetime 3.
        let sol = br.step(
            0,
            &[
                e(0, 1, 1),
                e(0, 2, 1),
                e(0, 3, 1),
                e(0, 4, 1),
                e(10, 11, 3),
                e(10, 12, 3),
            ],
        );
        assert_eq!(sol.seeds, vec![NodeId(0)]);
        assert_eq!(sol.value, 5);
        // One step later the big star is gone: node 10 rules.
        let sol = br.step(1, &[]);
        assert_eq!(sol.seeds, vec![NodeId(10)]);
        assert_eq!(sol.value, 3);
        // After the small star expires too, nothing remains.
        let sol = br.step(3, &[]);
        assert_eq!(sol, Solution::empty());
    }

    #[test]
    fn lifetimes_above_l_are_clamped() {
        let mut br = BasicReduction::new(&cfg(1, 2));
        let sol = br.step(0, &[e(0, 1, 99), e(0, 2, 99)]);
        assert_eq!(sol.value, 3);
        let sol = br.step(1, &[]);
        assert_eq!(sol.value, 3, "clamped edges live L steps");
        let sol = br.step(2, &[]);
        assert_eq!(sol, Solution::empty());
    }

    #[test]
    fn skipped_ticks_shift_the_window() {
        let mut br = BasicReduction::new(&cfg(1, 5));
        br.step(0, &[e(0, 1, 2), e(0, 2, 2)]);
        // Jump straight to t = 4: the lifetime-2 edges died at t = 2.
        let sol = br.step(4, &[]);
        assert_eq!(sol, Solution::empty());
    }

    #[test]
    fn fig2_worked_example() {
        // BasicReduction over the TDN of Fig. 2 with L = 3, k = 2.
        let (u1, u5, u6, u7) = (1u32, 5u32, 6u32, 7u32);
        let mut br = BasicReduction::new(&cfg(2, 3));
        let sol_t = br.step(
            0,
            &[
                e(u1, 2, 1),
                e(u1, 3, 1),
                e(u1, 4, 2),
                e(u5, 3, 3),
                e(u6, 4, 1),
                e(u6, 7, 1),
            ],
        );
        // At time t: u1 reaches {1,2,3,4}, u6 reaches {6,4,7};
        // f({u1,u6}) = |{1,2,3,4,6,7}| = 6, the optimum for k = 2.
        // The paper's Fig. 2 marks {u1, u6}.
        assert_eq!(sol_t.value, 6);
        assert!(sol_t.seeds.contains(&NodeId(1)) && sol_t.seeds.contains(&NodeId(6)));
        let sol_t1 = br.step(1, &[e(u5, 2, 1), e(u7, 4, 2), e(u7, u6, 3)]);
        // Live edges now: (1,4), (5,3), (5,2), (7,4), (7,6).
        // u5 reaches {5,3,2}; u7 reaches {7,4,6}; together 6 nodes —
        // matching Fig. 2's influential set {u5, u7}.
        assert_eq!(sol_t1.value, 6);
        assert!(sol_t1.seeds.contains(&NodeId(5)) && sol_t1.seeds.contains(&NodeId(7)));
    }

    #[test]
    fn instance_count_is_constant() {
        let mut br = BasicReduction::new(&cfg(2, 4));
        assert_eq!(br.num_instances(), 4);
        for t in 0..10 {
            br.step(t, &[e(t as u32, t as u32 + 1, 2)]);
            assert_eq!(br.num_instances(), 4);
        }
    }

    #[test]
    fn memory_grows_with_live_edges_and_shrinks_after_expiry() {
        let mut br = BasicReduction::new(&cfg(2, 4));
        let empty = br.approx_bytes();
        let mut batch = Vec::new();
        for i in 0..50u32 {
            batch.push(e(i, i + 100, 4));
        }
        br.step(0, &batch);
        let loaded = br.approx_bytes();
        assert!(loaded > empty, "adding edges must grow the footprint");
        // After all edges expire (and their instances rotate out), the
        // footprint returns to the empty baseline.
        for t in 1..=5 {
            br.step(t, &[]);
        }
        assert_eq!(br.approx_bytes(), empty);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_repeated_time() {
        let mut br = BasicReduction::new(&cfg(1, 2));
        br.step(0, &[]);
        br.step(0, &[]);
    }
}
