//! The three firehose workloads and their deterministic input streams.

use tdn_core::TrackerConfig;
use tdn_graph::Time;
use tdn_serve::TenantId;
use tdn_streams::{TenantWorkload, TenantWorkloadConfig, TimedEdge};

/// Shards of every served workload.
pub const SHARDS: usize = 8;
/// Seed budget `k` of every tenant's tracker.
pub const K: usize = 10;
/// Sieve accuracy `ε` of every tenant's tracker.
pub const EPS: f64 = 0.2;
/// Save cadence of the persist probe on workloads that serve without
/// checkpoints, so every tracker family gets persist figures.
pub const PROBE_CADENCE: u64 = 16;

/// The tracker family a workload hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `SieveAdnTracker` (Alg. 1).
    Sieve,
    /// `HistApprox` (Alg. 3).
    Hist,
    /// `BasicReduction` (Alg. 2).
    Basic,
}

/// One workload: the firehose shape, the serving configuration and the
/// open-loop schedule. Every constant is fixed here and never recomputed
/// per run.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Hosted tracker family.
    pub family: Family,
    /// Tenants in the firehose.
    pub tenants: u32,
    /// Ticks in the stream.
    pub ticks: u64,
    /// Mean batch size of the busiest tenant.
    pub events_per_tick: u32,
    /// Zipf exponent of tenant activity.
    pub tenant_zipf: f64,
    /// Node universe of each tenant.
    pub nodes: u32,
    /// Edge lifetimes are uniform in `1..=max_lifetime`.
    pub max_lifetime: u32,
    /// Served checkpoint cadence in processed ticks (0 = none).
    pub checkpoint_every: u64,
    /// Shortest warm-up prefix in ticks; it is extended until every
    /// tenant has submitted once.
    pub min_warmup: usize,
    /// Open-loop tick period in microseconds.
    pub tick_period_us: u64,
    /// Ticks the open loop sends after the warm-up prefix.
    pub open_ticks: usize,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "firehose_sieve",
        family: Family::Sieve,
        tenants: 600,
        ticks: 400,
        events_per_tick: 28,
        tenant_zipf: 0.9,
        nodes: 400,
        max_lifetime: 12,
        checkpoint_every: 0,
        min_warmup: 96,
        tick_period_us: 16_000,
        open_ticks: 200,
    },
    Spec {
        name: "heavy_hist",
        family: Family::Hist,
        tenants: 4,
        ticks: 220,
        events_per_tick: 20,
        tenant_zipf: 0.3,
        nodes: 4_000,
        max_lifetime: 64,
        checkpoint_every: 0,
        min_warmup: 16,
        tick_period_us: 20_000,
        open_ticks: 200,
    },
    Spec {
        name: "durable_basic",
        family: Family::Basic,
        tenants: 48,
        ticks: 290,
        events_per_tick: 5,
        tenant_zipf: 0.9,
        nodes: 800,
        max_lifetime: 16,
        checkpoint_every: 8,
        min_warmup: 48,
        tick_period_us: 20_000,
        open_ticks: 200,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The tracker configuration shared by every tenant.
    pub fn tracker_config(&self) -> TrackerConfig {
        TrackerConfig::new(K, EPS, self.max_lifetime)
    }

    /// The persist probe's save cadence: the served one, or
    /// [`PROBE_CADENCE`] when the workload serves without checkpoints.
    pub fn probe_cadence(&self) -> u64 {
        if self.checkpoint_every > 0 {
            self.checkpoint_every
        } else {
            PROBE_CADENCE
        }
    }
}

/// One tick of the firehose: `(tenant, batch)` in submission order.
pub type Tick = Vec<(TenantId, Vec<TimedEdge>)>;

/// One tenant's standalone stream: its non-empty batches in tick order.
pub type TenantStream = (TenantId, Vec<(Time, Vec<TimedEdge>)>);

/// A workload's whole input, generated before anything is timed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stream {
    /// `ticks[t]` holds every batch arriving at tick `t`.
    pub ticks: Vec<Tick>,
    /// Length of the warm-up prefix: at least `Spec::min_warmup` ticks,
    /// and long enough that every tenant of the stream has submitted.
    pub warmup: usize,
    /// Events in the whole stream.
    pub events: u64,
}

/// Generates the workload's firehose from `seed`: the same seed gives the
/// same stream.
pub fn generate(spec: &Spec, seed: u64) -> Stream {
    let workload = TenantWorkload::new(TenantWorkloadConfig {
        tenants: spec.tenants,
        ticks: spec.ticks,
        events_per_tick: spec.events_per_tick,
        tenant_zipf: spec.tenant_zipf,
        nodes: spec.nodes,
        node_zipf: 1.0,
        max_lifetime: spec.max_lifetime,
        seed,
    });
    let mut ticks: Vec<Tick> = vec![Vec::new(); spec.ticks as usize];
    let mut first_seen: Vec<Option<usize>> = vec![None; spec.tenants as usize];
    let mut events = 0u64;
    for batch in workload.interleaved() {
        let t = batch.t as usize;
        first_seen[batch.tenant as usize].get_or_insert(t);
        events += batch.edges.len() as u64;
        ticks[t].push((TenantId::from(batch.tenant), batch.edges));
    }
    let provisioned = first_seen.iter().flatten().max().map_or(0, |&t| t + 1);
    let warmup = provisioned.max(spec.min_warmup).min(ticks.len());
    Stream {
        ticks,
        warmup,
        events,
    }
}

impl Stream {
    /// Every tenant that submits, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.ticks.iter().flatten().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Every tenant's standalone stream, ascending by tenant id (tenants
    /// that never submit are absent).
    pub fn tenant_streams(&self) -> Vec<TenantStream> {
        let mut by_tenant: std::collections::BTreeMap<TenantId, Vec<(Time, Vec<TimedEdge>)>> =
            std::collections::BTreeMap::new();
        for (t, tick) in self.ticks.iter().enumerate() {
            for (tenant, edges) in tick {
                by_tenant
                    .entry(*tenant)
                    .or_default()
                    .push((t as Time, edges.clone()));
            }
        }
        by_tenant.into_iter().collect()
    }
}
