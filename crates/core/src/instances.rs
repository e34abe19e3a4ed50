//! The SIEVEADN instance set BASICREDUCTION (Alg. 2) and HISTAPPROX
//! (Alg. 3) are built around: instances keyed by deadline — the tick at
//! which their remaining lifetime reaches zero — that all bill one oracle
//! counter and one engine tally and share one spread mode and traversal
//! backend. The trackers keep only their algorithms (which instances to
//! spawn, feed, copy and drop); spawning, mode propagation, expiry,
//! metering, the memory-budget ladder and the checkpoint sections live
//! here once.

use crate::config::TrackerConfig;
use crate::sieve_adn::{SieveAdn, SpreadMode, TraversalKind};
use std::collections::BTreeMap;
use tdn_graph::{SpreadStats, SpreadStatsSnapshot, TdnGraph, Time};
use tdn_submodular::OracleCounter;

/// SIEVEADN instances keyed by deadline, plus the state they share.
pub(crate) struct InstanceSet {
    /// The configuration every instance is spawned from (its
    /// `memory_budget` is the ceiling [`Self::enforce_budget`] meters).
    pub(crate) cfg: TrackerConfig,
    /// The oracle tally every instance bills.
    pub(crate) counter: OracleCounter,
    /// The engine tally every instance bills.
    pub(crate) stats: SpreadStats,
    /// Spread mode of every current and future instance.
    mode: SpreadMode,
    /// Traversal backend of every current and future instance.
    traversal: TraversalKind,
    /// The live instances, ascending by deadline. Insert only instances
    /// from [`Self::spawn`] or clones of members, which share the set's
    /// tallies, mode and backend.
    pub(crate) by_deadline: BTreeMap<Time, SieveAdn>,
}

impl InstanceSet {
    /// An empty set spawning from `cfg` in the default mode and backend.
    pub(crate) fn new(cfg: &TrackerConfig) -> Self {
        InstanceSet {
            cfg: cfg.clone(),
            counter: OracleCounter::new(),
            stats: SpreadStats::new(),
            mode: SpreadMode::default(),
            traversal: TraversalKind::default(),
            by_deadline: BTreeMap::new(),
        }
    }

    /// A fresh instance billing the shared tallies, in the set's mode and
    /// backend.
    pub(crate) fn spawn(&self) -> SieveAdn {
        let mut inst = SieveAdn::from_config(&self.cfg, self.counter.clone())
            .with_spread_mode(self.mode)
            .with_traversal(self.traversal);
        inst.share_spread_stats(self.stats.clone());
        inst
    }

    /// The spread mode of every current and future instance.
    pub(crate) fn mode(&self) -> SpreadMode {
        self.mode
    }

    /// The traversal backend of every current and future instance.
    pub(crate) fn traversal(&self) -> TraversalKind {
        self.traversal
    }

    /// Sets the spread mode of every current and future instance.
    pub(crate) fn set_mode(&mut self, mode: SpreadMode) {
        self.mode = mode;
        for inst in self.by_deadline.values_mut() {
            inst.set_spread_mode(mode);
        }
    }

    /// Sets the traversal backend of every current and future instance.
    pub(crate) fn set_traversal(&mut self, traversal: TraversalKind) {
        self.traversal = traversal;
        for inst in self.by_deadline.values_mut() {
            inst.set_traversal(traversal);
        }
    }

    /// Drops every instance whose deadline is at or before `t`, touching
    /// only those (a BasicReduction gap costs at most `L` drops).
    pub(crate) fn expire_through(&mut self, t: Time) {
        while let Some(first) = self.by_deadline.first_entry() {
            if *first.key() > t {
                break;
            }
            first.remove();
        }
    }

    /// Approximate heap footprint of the instances.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.by_deadline.values().map(SieveAdn::approx_bytes).sum()
    }

    /// The memory-budget ladder, run after every step (see DESIGN.md
    /// "Memory budget"): while the footprint — the instances plus `graph`,
    /// the tracker's own `G_t` if it keeps one — exceeds the ceiling, every
    /// instance takes the next [`SieveAdn::shed`] level. Level 2 also
    /// releases `graph`'s recycled memory, level 3 also switches future
    /// instances to [`SpreadMode::FullRecompute`], and each level taken is
    /// tallied once. Never fails: a workload whose irreducible live state
    /// exceeds the ceiling keeps running at level 3.
    pub(crate) fn enforce_budget(&mut self, mut graph: Option<&mut TdnGraph>) {
        let Some(budget) = self.cfg.memory_budget else {
            return;
        };
        for level in 1..=3 {
            let graph_bytes = graph.as_ref().map_or(0, |g| g.approx_bytes());
            if self.approx_bytes() + graph_bytes <= budget {
                return;
            }
            for inst in self.by_deadline.values_mut() {
                inst.shed(level);
            }
            match (level, graph.as_deref_mut()) {
                (2, Some(g)) => {
                    g.release_recycled_memory();
                }
                (3, _) => self.mode = SpreadMode::FullRecompute,
                _ => {}
            }
            self.stats.note_shed(level);
        }
    }

    /// Writes the head of the tracker's `meta` section: config, oracle
    /// tally, spread mode and engine tallies. The tracker appends its own
    /// fields after it.
    pub(crate) fn write_head(&self, w: &mut codec::Writer) {
        self.cfg.write_snapshot(w);
        w.put_u64(self.counter.get());
        self.mode.write_snapshot(w);
        self.stats.snapshot().write_snapshot(w);
    }

    /// Reads what [`Self::write_head`] wrote into an empty set whose
    /// tallies resume at the saved counts. The backend is the default (it
    /// is strategy, never state) and the budget is unset.
    pub(crate) fn read_head(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        let mut set = InstanceSet::new(&TrackerConfig::read_snapshot(r)?);
        set.counter.set(r.get_u64()?);
        set.mode = SpreadMode::read_snapshot(r)?;
        set.stats.restore(&SpreadStatsSnapshot::read_snapshot(r)?);
        Ok(set)
    }

    /// Writes every instance ([`SieveAdn::write_sections`]) under
    /// `inst.{deadline}.`.
    pub(crate) fn write_instances(&self, sink: &mut codec::SectionSink) {
        for (deadline, inst) in &self.by_deadline {
            inst.write_sections(sink, &format!("inst.{deadline}."));
        }
    }

    /// Restores the instances [`Self::write_instances`] saved at
    /// `deadlines`, which must ascend strictly. Each must run in the set's
    /// mode, and comes back billing the set's tallies.
    pub(crate) fn read_instances(
        &mut self,
        map: &codec::SectionMap,
        deadlines: &[Time],
    ) -> Result<(), codec::SectionError> {
        let invalid = |msg| codec::SectionError::Codec(codec::CodecError::Invalid(msg));
        if deadlines.windows(2).any(|w| w[0] >= w[1]) {
            return Err(invalid("instance deadlines repeat or are out of order"));
        }
        for &deadline in deadlines {
            let prefix = format!("inst.{deadline}.");
            let mut inst = SieveAdn::read_sections(map, &prefix, self.counter.clone())?;
            if inst.spread_mode() != self.mode {
                return Err(invalid("instance spread mode differs from tracker"));
            }
            inst.share_spread_stats(self.stats.clone());
            self.by_deadline.insert(deadline, inst);
        }
        Ok(())
    }
}
