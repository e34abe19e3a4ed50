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
//! joins at index `L` (Fig. 4(b)). Instances are keyed by the tick they
//! answer at (`A_i` at `t + i − 1`), so the shift renames nothing: it
//! drops the first key and appends one past the last.

use crate::config::TrackerConfig;
use crate::instances::InstanceSet;
use crate::sieve_adn::{SieveAdn, SpreadMode, TraversalKind};
use crate::tracker::{InfluenceTracker, Solution};
use tdn_graph::{Lifetime, NodeId, SpreadStatsSnapshot, Time};
use tdn_streams::TimedEdge;

/// Largest `L` the tracker materializes instances for.
const MAX_LIFETIME: u64 = 1_000_000;

/// The last tick of an `l`-instance window whose first instance answers
/// at `t`, capped at `Time::MAX`.
fn window_end(t: Time, l: Lifetime) -> Time {
    t.saturating_add(l as Time - 1)
}

/// The BASICREDUCTION tracker.
pub struct BasicReduction {
    /// `A_1 … A_L`, keyed by the tick each answers at; the first answers
    /// the current step.
    set: InstanceSet,
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
        let mut br = BasicReduction {
            set: InstanceSet::new(cfg),
            last_t: None,
            last_solution: None,
        };
        br.slide_to(0);
        br
    }

    /// Sets the spread-maintenance mode for every current and future
    /// instance (builder form; call before feeding).
    pub fn with_spread_mode(mut self, mode: SpreadMode) -> Self {
        self.set.set_mode(mode);
        self
    }

    /// The active spread-maintenance mode.
    pub fn spread_mode(&self) -> SpreadMode {
        self.set.mode()
    }

    /// Sets the traversal backend for every current and future instance
    /// (builder form).
    pub fn with_traversal(mut self, traversal: TraversalKind) -> Self {
        self.set.set_traversal(traversal);
        self
    }

    /// The active traversal backend.
    pub fn traversal(&self) -> TraversalKind {
        self.set.traversal()
    }

    /// Current incremental-engine tallies, aggregated across all
    /// instances the tracker ever ran.
    pub fn spread_stats(&self) -> SpreadStatsSnapshot {
        self.set.stats.snapshot()
    }

    /// Number of live SIEVEADN instances: `L`, or fewer once the window
    /// would reach past `Time::MAX` (no step can answer there).
    pub fn num_instances(&self) -> usize {
        self.set.by_deadline.len()
    }

    /// Read access to the staggered instances in window order (`A_1`
    /// first — the instance that answers the current step). Conformance
    /// harnesses use this to probe per-instance sketch pools.
    pub fn instances(&self) -> impl Iterator<Item = &SieveAdn> {
        self.set.by_deadline.values()
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
        self.set.approx_bytes()
    }

    /// Slides the window so its first instance answers at `t`: drops the
    /// instances that answered before `t` and appends fresh ones through
    /// `t + L − 1` (capped at `Time::MAX`). Every instance a per-tick
    /// shift would have created inside the slide is fresh, so the state
    /// equals one shift per tick (Alg. 2 lines 5–7), at `O(min(slide, L))`
    /// drops and spawns however far the window slides.
    fn slide_to(&mut self, t: Time) {
        if let Some(before) = t.checked_sub(1) {
            self.set.expire_through(before);
        }
        let end = window_end(t, self.set.cfg.max_lifetime);
        let start = match self.set.by_deadline.last_key_value() {
            Some((&d, _)) if d >= end => return,
            Some((&d, _)) => d + 1,
            None => t,
        };
        for d in start..=end {
            let fresh = self.set.spawn();
            self.set.by_deadline.insert(d, fresh);
        }
    }

    /// Serializes the tracker as named sections:
    ///
    /// - `meta`: config, oracle tally, spread mode, engine tallies, the
    ///   last processed tick, the instance count, and the last answer;
    /// - `inst.{deadline}.`: the staggered instances
    ///   ([`SieveAdn::write_sections`]), each named by the tick it answers
    ///   at, so an instance whose state did not change since the parent
    ///   save becomes refs however far the window shifted.
    pub fn write_sections(&self, sink: &mut codec::SectionSink) {
        let mut w = codec::Writer::new();
        self.set.write_head(&mut w);
        w.put_bool(self.last_t.is_some());
        w.put_u64(self.last_t.unwrap_or(0));
        w.put_len(self.set.by_deadline.len());
        w.put_bool(self.last_solution.is_some());
        if let Some(sol) = &self.last_solution {
            let seeds: Vec<u32> = sol.seeds.iter().map(|s| s.0).collect();
            w.put_u32_run(&seeds);
            w.put_u64(sol.value);
        }
        sink.put("meta", w.into_vec());
        self.set.write_instances(sink);
    }

    /// Reconstructs a tracker from the sections [`Self::write_sections`]
    /// emitted. All restored instances bill one fresh counter seeded with
    /// the saved tally, exactly like the interrupted run's shared counter
    /// (the engine tally is shared and re-seeded the same way).
    pub fn read_sections(map: &codec::SectionMap) -> Result<Self, codec::SectionError> {
        let invalid =
            |msg: &'static str| codec::SectionError::Codec(codec::CodecError::Invalid(msg));
        let mut r = map.reader("meta")?;
        let mut set = InstanceSet::read_head(&mut r)?;
        let has_last = r.get_bool()?;
        let last_t = has_last.then_some(r.get_u64()?);
        let n = r.get_u64()?;
        let last_solution = if r.get_bool()? {
            let seeds: Vec<NodeId> = r.get_u32_run()?.into_iter().map(NodeId).collect();
            if seeds.len() > set.cfg.k {
                return Err(invalid("BasicReduction last answer exceeds budget k"));
            }
            let value = r.get_u64()?;
            Some(Solution { seeds, value })
        } else {
            None
        };
        r.finish()?;
        if set.cfg.max_lifetime as u64 > MAX_LIFETIME {
            return Err(invalid("BasicReduction lifetime bound L out of range"));
        }
        // The window starts at the tick after the last step (0 before the
        // first).
        let first = last_t.map_or(0, |t| t.saturating_add(1));
        let deadlines: Vec<Time> = (first..=window_end(first, set.cfg.max_lifetime)).collect();
        if n != deadlines.len() as u64 {
            return Err(invalid("BasicReduction instance count differs from L"));
        }
        set.read_instances(map, &deadlines)?;
        Ok(BasicReduction {
            set,
            last_t,
            last_solution,
        })
    }

    /// Sets or clears the approximate heap ceiling at runtime (restored
    /// trackers come back unbudgeted; see
    /// [`TrackerConfig::memory_budget`]).
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.set.cfg.memory_budget = budget;
    }
}

impl InfluenceTracker for BasicReduction {
    fn name(&self) -> &'static str {
        "BasicReduction"
    }

    fn step(&mut self, t: Time, batch: &[TimedEdge]) -> Solution {
        if let Some(last) = self.last_t {
            assert!(t > last, "time must strictly increase per step");
        }
        self.last_t = Some(t);
        // Catch up on skipped (empty) ticks: each one still shifts the
        // window, since indices are remaining lifetimes.
        self.slide_to(t);
        // Feed: edge with (clamped) lifetime l goes to A_1 … A_l, where
        // A_i answers at t + i − 1. The instances are fully independent
        // SIEVEADN states, so the feeds fan out across the execution
        // engine's workers; each instance consumes its filtered batch in
        // arrival order, exactly as the serial loop did, so results are
        // bit-identical at any thread count. Batch sizes shrink with the
        // lifetime index, so per-instance cost is skewed and the stealing
        // scheduler rebalances the tail.
        let l_max = self.set.cfg.max_lifetime;
        let mut work: Vec<(Lifetime, &mut SieveAdn)> = self
            .set
            .by_deadline
            .iter_mut()
            .map(|(&d, inst)| ((d - t + 1) as Lifetime, inst))
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
        let sol = self.set.by_deadline[&t].query();
        self.last_solution = Some(sol.clone());
        self.slide_to(t.saturating_add(1));
        // Enforced after the shift so the post-step footprint — including
        // the freshly appended `A_L` — is bounded by the ceiling whenever
        // the irreducible live state fits under it.
        self.set.enforce_budget(None);
        sol
    }

    fn oracle_calls(&self) -> u64 {
        self.set.counter.get()
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

    /// Saves `br` as a lone base container of sections.
    fn sections_of(br: &BasicReduction) -> Vec<u8> {
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        br.write_sections(&mut sink);
        sink.finish().0
    }

    fn batch_at(t: Time) -> Vec<TimedEdge> {
        let s = (t % 7) as u32;
        vec![
            e(s, s + 1, 1 + (t % 4) as Lifetime),
            e(9, 10 + s, 3),
            e(s + 1, 20, 2),
        ]
    }

    #[test]
    fn gaps_longer_than_l_answer_like_a_fresh_tracker() {
        let mut br = BasicReduction::new(&cfg(2, 4));
        for t in 0..6 {
            br.step(t, &batch_at(t));
        }
        // Every edge fed before the gap expired during it, so the window
        // must hold exactly what a tracker starting at the same tick holds.
        let mut fresh = BasicReduction::new(&cfg(2, 4));
        for t in [40, 41, 43, 44] {
            assert_eq!(
                br.step(t, &batch_at(t)),
                fresh.step(t, &batch_at(t)),
                "t={t}"
            );
            assert_eq!(br.num_instances(), 4);
        }
    }

    #[test]
    fn first_step_after_tick_zero() {
        // Only tick differences matter: a stream starting at t = 7 answers
        // exactly like the same stream starting at t = 0.
        let mut late = BasicReduction::new(&cfg(2, 3));
        let mut early = BasicReduction::new(&cfg(2, 3));
        for dt in [0, 1, 2, 4, 5] {
            let batch = batch_at(dt);
            assert_eq!(late.step(7 + dt, &batch), early.step(dt, &batch), "dt={dt}");
            assert_eq!(late.oracle_calls(), early.oracle_calls());
        }
    }

    #[test]
    fn checkpoint_before_first_step_restores_bit_identically() {
        let mut live = BasicReduction::new(&cfg(2, 3));
        let map = codec::SectionMap::from_single(&sections_of(&live)).unwrap();
        let mut back = BasicReduction::read_sections(&map).expect("restore");
        for t in [5, 6, 8, 12, 13] {
            assert_eq!(
                live.step(t, &batch_at(t)),
                back.step(t, &batch_at(t)),
                "t={t}"
            );
            assert_eq!(live.oracle_calls(), back.oracle_calls());
            assert!(sections_of(&live) == sections_of(&back), "t={t}");
        }
    }

    #[test]
    fn huge_gaps_catch_up_promptly() {
        // Catch-up work is bounded by L, not by the gap: a 2⁴⁰-tick jump
        // returns at once, and the window runs on up to the last tick.
        let mut br = BasicReduction::new(&cfg(1, 8));
        br.step(0, &[e(0, 1, 8), e(0, 2, 8)]);
        let sol = br.step(1 << 40, &[e(3, 4, 2), e(3, 5, 2), e(3, 6, 2)]);
        assert_eq!((sol.seeds, sol.value), (vec![NodeId(3)], 4));
        assert_eq!(br.num_instances(), 8);
        // Near `Time::MAX` the window shrinks instead of overflowing, and
        // checkpoints still round-trip.
        br.step(Time::MAX - 2, &[e(7, 8, 8)]);
        assert_eq!(br.num_instances(), 2);
        for t in [Time::MAX - 1, Time::MAX] {
            assert_eq!(br.step(t, &[]).value, 2, "t={t}");
            let map = codec::SectionMap::from_single(&sections_of(&br)).unwrap();
            let back = BasicReduction::read_sections(&map).expect("restore");
            assert!(sections_of(&back) == sections_of(&br), "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_repeated_time() {
        let mut br = BasicReduction::new(&cfg(1, 2));
        br.step(0, &[]);
        br.step(0, &[]);
    }
}
