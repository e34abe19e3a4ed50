//! The engine boundary the serving layer programs against.
//!
//! [`InfluenceTracker`] is the *streaming* contract: one `step` per tick.
//! A long-running server needs three more capabilities that every
//! shipped tracker already has, but only as inherent methods with
//! per-type names: constructing an instance from a [`TrackerConfig`],
//! answering the standing query without advancing time, and metering /
//! bounding memory. [`TrackerEngine`] lifts those into a trait so
//! `tdn-serve` can host any tracker family generically (monomorphized —
//! the trait is deliberately not object-safe-dependent; serve hosts one
//! engine type per server).
//!
//! ## `query` semantics
//!
//! `query` returns the *standing answer*: the solution for the network
//! state as of the last `step`, without oracle calls and without
//! mutating the tracker. For [`SieveAdnTracker`] and [`BasicReduction`]
//! this is exactly the solution the last `step` returned. For
//! [`HistApprox`] it matches the last `step` in the default
//! (non-refeed) configuration; a refeed-enabled HISTAPPROX answers its
//! steps from a backfilled clone, which `query` does not replicate —
//! replicating it would bill oracle calls on a read path that must stay
//! free. Serving layers that need bit-identical read answers publish
//! the solutions returned by `step` (as `tdn-serve` does) and treat
//! `query` as the between-ticks fallback.

use crate::basic_reduction::BasicReduction;
use crate::config::TrackerConfig;
use crate::hist_approx::HistApprox;
use crate::sieve_adn::SieveAdnTracker;
use crate::tracker::{InfluenceTracker, Solution};

/// A hostable tracker: constructible from config, queryable at rest,
/// and memory-meterable. See the module docs for the `query` contract.
pub trait TrackerEngine: InfluenceTracker {
    /// Builds a fresh engine from the shared tracker configuration.
    fn from_config(cfg: &TrackerConfig) -> Self
    where
        Self: Sized;

    /// The standing solution as of the last [`step`], oracle-free and
    /// non-mutating. Returns the empty solution before the first step.
    ///
    /// [`step`]: InfluenceTracker::step
    fn query(&self) -> Solution;

    /// Approximate heap footprint in bytes (what shard-level memory
    /// accounting meters).
    fn approx_bytes(&self) -> usize;

    /// Sets or clears the approximate heap ceiling at runtime.
    fn set_memory_budget(&mut self, budget: Option<usize>);
}

impl TrackerEngine for SieveAdnTracker {
    fn from_config(cfg: &TrackerConfig) -> Self {
        SieveAdnTracker::new(cfg)
    }

    fn query(&self) -> Solution {
        self.instance().query()
    }

    fn approx_bytes(&self) -> usize {
        SieveAdnTracker::approx_bytes(self)
    }

    fn set_memory_budget(&mut self, budget: Option<usize>) {
        SieveAdnTracker::set_memory_budget(self, budget)
    }
}

impl TrackerEngine for BasicReduction {
    fn from_config(cfg: &TrackerConfig) -> Self {
        BasicReduction::new(cfg)
    }

    /// Answers the cached last-step solution (`A_1` is destroyed by the
    /// post-query shift, so it cannot be re-queried; checkpoints carry the
    /// cache). A tracker that has never stepped falls back to the current
    /// window head's state.
    fn query(&self) -> Solution {
        if let Some(sol) = self.last_solution() {
            return sol.clone();
        }
        self.instances()
            .next()
            .map(|inst| inst.query())
            .unwrap_or_else(Solution::empty)
    }

    fn approx_bytes(&self) -> usize {
        BasicReduction::approx_bytes(self)
    }

    fn set_memory_budget(&mut self, budget: Option<usize>) {
        BasicReduction::set_memory_budget(self, budget)
    }
}

impl TrackerEngine for HistApprox {
    fn from_config(cfg: &TrackerConfig) -> Self {
        HistApprox::new(cfg)
    }

    /// Answers from `A_{x₁}`, the earliest-deadline histogram instance
    /// (Alg. 3's answering instance). See the module docs for the
    /// refeed caveat.
    fn query(&self) -> Solution {
        self.instances()
            .next()
            .map(|(_, inst)| inst.query())
            .unwrap_or_else(Solution::empty)
    }

    fn approx_bytes(&self) -> usize {
        HistApprox::approx_bytes(self)
    }

    fn set_memory_budget(&mut self, budget: Option<usize>) {
        HistApprox::set_memory_budget(self, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdn_streams::TimedEdge;

    fn batch(t: u64) -> Vec<TimedEdge> {
        vec![
            TimedEdge::new((t % 5) as u32, (7 + t % 11) as u32, 2 + (t % 4) as u32),
            TimedEdge::new((1 + t % 3) as u32, (4 + t % 9) as u32, 1 + (t % 6) as u32),
        ]
    }

    /// `query` must reproduce the last step's answer without billing the
    /// oracle or perturbing subsequent steps — the property the serve
    /// read path's correctness argument leans on.
    fn standing_answer_matches_step<T: TrackerEngine>() {
        let cfg = TrackerConfig::new(2, 0.2, 6);
        let mut engine = T::from_config(&cfg);
        assert_eq!(engine.query(), Solution::empty());
        for t in 0..12u64 {
            let stepped = engine.step(t, &batch(t));
            let calls_before = engine.oracle_calls();
            let standing = engine.query();
            assert_eq!(standing, stepped, "t={t}");
            assert_eq!(
                engine.oracle_calls(),
                calls_before,
                "query billed oracle at t={t}"
            );
        }
    }

    #[test]
    fn sieve_standing_answer() {
        standing_answer_matches_step::<SieveAdnTracker>();
    }

    #[test]
    fn basic_standing_answer() {
        standing_answer_matches_step::<BasicReduction>();
    }

    #[test]
    fn hist_standing_answer() {
        standing_answer_matches_step::<HistApprox>();
    }

    #[test]
    fn engines_meter_memory_and_accept_budgets() {
        fn probe<T: TrackerEngine>() {
            let cfg = TrackerConfig::new(2, 0.2, 6);
            let mut engine = T::from_config(&cfg);
            engine.step(0, &batch(0));
            assert!(engine.approx_bytes() > 0);
            engine.set_memory_budget(Some(1));
            engine.step(1, &batch(1));
            engine.set_memory_budget(None);
            engine.step(2, &batch(2));
        }
        probe::<SieveAdnTracker>();
        probe::<BasicReduction>();
        probe::<HistApprox>();
    }
}
