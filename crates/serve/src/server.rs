//! The sharded multi-tenant server. See the crate docs for the
//! determinism and failover arguments, and [`crate::health`] for the
//! fault model and supervised-recovery semantics.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use tdn_core::{Solution, TrackerConfig, TrackerEngine};
use tdn_faults::{FaultKind, FaultPlan, FaultyIo};
use tdn_graph::{Published, Time};
use tdn_persist::{
    clean_stale_tmp, list_chain_links, load_newest, ChainLink, CheckpointChain, Persist,
};
use tdn_streams::TimedEdge;

use crate::error::ServeError;
use crate::health::{HealthReport, HealthState, QuarantineReason, RetryPolicy};

/// Tenant identity. External ids of any width hash-shard through
/// [`Server::shard_of`]; the generator's `u32` ids widen losslessly.
pub type TenantId = u64;

/// What to do when a shard's pending queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the incoming batch with [`ServeError::Backpressure`]; the
    /// caller keeps the data (it rides back inside the error) and may
    /// flush and resubmit. Lossless from the caller's point of view.
    #[default]
    RejectNewest,
    /// Evict the oldest queued batch to make room. Lossy, but every
    /// dropped event is counted in [`FlushReport::shed_events`] — loss is
    /// always accounted, never silent.
    DropOldest,
}

/// Serving-layer configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of shards (per-shard worker pools; tenants hash onto them).
    pub shards: usize,
    /// Tracker configuration shared by every tenant's engine (including
    /// any per-tenant memory budget).
    pub tracker: TrackerConfig,
    /// Checkpoint each tenant every this many *processed ticks*
    /// (0 = no automatic checkpoints; [`Server::checkpoint_all`] still
    /// works on demand).
    pub checkpoint_every: u64,
    /// Directory for per-tenant checkpoint chains. Required for any
    /// checkpointing or recovery.
    pub checkpoint_dir: Option<PathBuf>,
    /// Maximum batches a shard queues between flushes (0 = unbounded).
    pub max_pending_per_shard: usize,
    /// What happens to overflow when the queue is bounded.
    pub shed_policy: ShedPolicy,
    /// Bounded retry-with-backoff budget for checkpoint failures.
    pub retry: RetryPolicy,
    /// Seeded fault plan for chaos testing (None in production: no rolls,
    /// no overhead on the hot path beyond an `Option` check).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl ServeConfig {
    /// A server with `shards` shards and no checkpointing.
    pub fn new(shards: usize, tracker: TrackerConfig) -> Self {
        ServeConfig {
            shards,
            tracker,
            checkpoint_every: 0,
            checkpoint_dir: None,
            max_pending_per_shard: 0,
            shed_policy: ShedPolicy::default(),
            retry: RetryPolicy::default(),
            fault_plan: None,
        }
    }

    /// Enables checkpointing to `dir` every `every` processed ticks
    /// (builder form).
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>, every: u64) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every;
        self
    }

    /// Bounds each shard's pending queue at `max` batches with the given
    /// shed policy (builder form).
    pub fn with_queue_limit(mut self, max: usize, policy: ShedPolicy) -> Self {
        self.max_pending_per_shard = max;
        self.shed_policy = policy;
        self
    }

    /// Replaces the checkpoint retry policy (builder form).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arms a seeded fault plan: checkpoint I/O flows through
    /// [`FaultyIo`] and the drain loop rolls for worker panics (builder
    /// form).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// The immutable per-tenant snapshot the read path serves. Published
/// after every processed tick; readers get an `Arc` and never touch the
/// live engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// The tenant the snapshot belongs to.
    pub tenant: TenantId,
    /// Tick of the last processed batch (`None` until the first step, or
    /// right after recovery before any replay reaches this tenant).
    pub t: Option<Time>,
    /// The current top-k answer (Problem 1 at `t`).
    pub solution: Solution,
    /// Influence-oracle evaluations the tenant's engine has billed.
    pub oracle_calls: u64,
}

/// A query handle for one tenant, detached from the server's borrow: it
/// holds the tenant's publication cell, so reads proceed while the
/// server is mid-`flush` (the "reads never block ingest" path).
#[derive(Clone)]
pub struct SnapshotReader {
    cell: Arc<Published<TenantSnapshot>>,
}

impl SnapshotReader {
    /// The current published snapshot.
    pub fn load(&self) -> Arc<TenantSnapshot> {
        self.cell.load()
    }

    /// Publication count (bumps once per processed tick).
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }
}

/// What one [`Server::flush`] processed — and, since the chaos
/// hardening, every way an event can leave the pipeline *without* being
/// applied. The accounting invariant the shed-policy proptest enforces:
///
/// ```text
/// submitted events = events            (applied)
///                  + skipped_events    (idempotence guard)
///                  + rejected_events   (backpressure, returned to caller)
///                  + shed_events       (drop-oldest eviction)
///                  + quarantined_events (tenant out of service)
///                  + panicked_events   (the batch that hit the panic)
///                  + still queued      (submitted after the last flush)
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Ticks stepped across all tenants.
    pub steps: u64,
    /// Edges fed across all stepped batches.
    pub events: u64,
    /// Batches dropped by the idempotent replay guard (`t ≤ last_t`).
    pub skipped: u64,
    /// Edges inside those skipped batches.
    pub skipped_events: u64,
    /// Checkpoints written by the cadence policy (or
    /// [`Server::checkpoint_all`]) since the previous flush report.
    pub checkpoints: u64,
    /// Checkpoint save attempts that failed (each one advances the
    /// owning tenant's health machine).
    pub checkpoint_failures: u64,
    /// Cadence saves skipped because the tenant's backoff window was
    /// still open.
    pub checkpoints_deferred: u64,
    /// Engine panics caught at the worker boundary.
    pub panics: u64,
    /// Edges inside the batches whose step panicked (not applied).
    pub panicked_events: u64,
    /// Batches dropped because their tenant was quarantined.
    pub quarantined_batches: u64,
    /// Edges inside those quarantined batches.
    pub quarantined_events: u64,
    /// Batches evicted by [`ShedPolicy::DropOldest`].
    pub shed_batches: u64,
    /// Edges inside those evicted batches.
    pub shed_events: u64,
    /// Batches refused by [`ShedPolicy::RejectNewest`] (the data rode
    /// back to the caller inside [`ServeError::Backpressure`]).
    pub rejected_batches: u64,
    /// Edges inside those refused batches.
    pub rejected_events: u64,
}

impl FlushReport {
    /// Merges another report into this one (public for harnesses that
    /// aggregate across many flushes).
    pub fn merge(&mut self, other: &FlushReport) {
        self.steps += other.steps;
        self.events += other.events;
        self.skipped += other.skipped;
        self.skipped_events += other.skipped_events;
        self.checkpoints += other.checkpoints;
        self.checkpoint_failures += other.checkpoint_failures;
        self.checkpoints_deferred += other.checkpoints_deferred;
        self.panics += other.panics;
        self.panicked_events += other.panicked_events;
        self.quarantined_batches += other.quarantined_batches;
        self.quarantined_events += other.quarantined_events;
        self.shed_batches += other.shed_batches;
        self.shed_events += other.shed_events;
        self.rejected_batches += other.rejected_batches;
        self.rejected_events += other.rejected_events;
    }

    /// Events that left the pipeline without being applied, all causes.
    pub fn unapplied_events(&self) -> u64 {
        self.skipped_events
            + self.panicked_events
            + self.quarantined_events
            + self.shed_events
            + self.rejected_events
    }
}

/// What [`Server::checkpoint_all`] did, per outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Chains written successfully.
    pub saved: usize,
    /// Save attempts that failed (tenant health advanced accordingly;
    /// details land in the next [`FlushReport`] and
    /// [`Server::health_report`]).
    pub failed: usize,
    /// Tenants skipped because they are quarantined (a suspect state
    /// must never overwrite a good chain).
    pub skipped_quarantined: usize,
    /// Tenants skipped because nothing has been applied yet.
    pub skipped_empty: usize,
}

/// What [`Server::recover`] found in the checkpoint directory.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Tenants restored from a chain link, ascending.
    pub recovered: Vec<TenantId>,
    /// Tenants whose every link failed to restore: provisioned fresh and
    /// quarantined with the last error, ascending. Never silently wrong —
    /// a supervisor must [`Server::reset_tenant`] and replay.
    pub quarantined: Vec<(TenantId, String)>,
    /// Older links restored after a newer link failed (per-tenant
    /// fallback count, summed).
    pub fallbacks: u64,
    /// Stale `.tmp` files removed from the directory (crash debris
    /// between a checkpoint's write and rename).
    pub stale_tmp_removed: usize,
    /// `.tdnc` files whose names do not parse as tenant chains (foreign
    /// data sharing the directory); skipped.
    pub foreign_files: usize,
}

/// One tenant's live state inside a shard.
struct TenantState<T> {
    engine: T,
    last_t: Option<Time>,
    published: Arc<Published<TenantSnapshot>>,
    chain: Option<CheckpointChain>,
    /// Ticks processed since the last checkpoint save.
    ticks_since_save: u64,
    health: HealthState,
}

impl<T: TrackerEngine + Persist> TenantState<T> {
    /// A healthy tenant serving `engine` at watermark `last_t`, publishing
    /// the engine's standing answer (empty for a fresh engine).
    fn new(tenant: TenantId, engine: T, last_t: Option<Time>, cfg: &ServeConfig) -> Self {
        TenantState {
            published: Arc::new(Published::new(TenantSnapshot {
                tenant,
                t: last_t,
                solution: engine.query(),
                oracle_calls: engine.oracle_calls(),
            })),
            engine,
            last_t,
            chain: make_chain(cfg, tenant),
            ticks_since_save: 0,
            health: HealthState::Healthy,
        }
    }
}

/// Builds a tenant's checkpoint chain, routed through [`FaultyIo`] when
/// the configuration arms a fault plan (scope = the tenant id, so every
/// injected I/O fault is attributable and reproducible per tenant).
fn make_chain(cfg: &ServeConfig, tenant: TenantId) -> Option<CheckpointChain> {
    cfg.checkpoint_dir.as_ref().map(|dir| {
        let chain = CheckpointChain::new(dir, tenant_prefix(tenant));
        match &cfg.fault_plan {
            Some(plan) => chain.with_io(Arc::new(FaultyIo::new(Arc::clone(plan), tenant))),
            None => chain,
        }
    })
}

/// One shard: the tenants it owns plus its pending ingest queue.
struct Shard<T> {
    tenants: BTreeMap<TenantId, TenantState<T>>,
    /// Coalesced per-tenant batches in arrival order. The front-end
    /// appends; `drain` consumes; `DropOldest` evicts from the front.
    pending: VecDeque<(TenantId, Time, Vec<TimedEdge>)>,
    /// First internal invariant violation during a parallel drain
    /// (surfaced by `flush` after the barrier). Checkpoint failures do
    /// NOT land here — they go through the tenant health machine.
    error: Option<ServeError>,
    report: FlushReport,
    /// The snapshot of every step the current drain applied, with its
    /// tenant's cell, in drain order: `flush` publishes them after the
    /// shards join.
    applied: Vec<(Arc<Published<TenantSnapshot>>, TenantSnapshot)>,
    /// Scratch for the current `checkpoint_all` sweep.
    ck: CheckpointSummary,
}

impl<T: TrackerEngine + Persist> Shard<T> {
    fn new() -> Self {
        Shard {
            tenants: BTreeMap::new(),
            pending: VecDeque::new(),
            error: None,
            report: FlushReport::default(),
            applied: Vec::new(),
            ck: CheckpointSummary::default(),
        }
    }

    /// Processes the pending queue in arrival order, as one share of
    /// `flush`'s shard fan-out: everything here is intentionally serial —
    /// the determinism argument needs each tenant to see its batches in
    /// submission order. Nested `exec` calls inside tracker steps run
    /// serially whenever other shards are busy too (every share of a
    /// fan-out does), and across the pool when this is the only busy
    /// shard. Each engine step runs under `catch_unwind`, so one tenant's
    /// panic quarantines that tenant and nothing else. Applied snapshots
    /// queue in `applied` for `flush` to publish.
    fn drain(&mut self, cfg: &ServeConfig, tick: u64) {
        let pending = std::mem::take(&mut self.pending);
        for (tenant, t, edges) in pending {
            let Some(state) = self.tenants.get_mut(&tenant) else {
                if self.error.is_none() {
                    self.error = Some(ServeError::Internal {
                        what: "pending batch routed to a shard that does not own its tenant",
                    });
                }
                continue;
            };
            if !state.health.serving() {
                self.report.quarantined_batches += 1;
                self.report.quarantined_events += edges.len() as u64;
                continue;
            }
            // Idempotent at-least-once ingestion: a recovering front-end
            // replays from before the crash, and trackers insist on
            // strictly increasing ticks — anything at or before the
            // tenant's watermark was already applied.
            if state.last_t.is_some_and(|last| t <= last) {
                self.report.skipped += 1;
                self.report.skipped_events += edges.len() as u64;
                continue;
            }
            let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(plan) = &cfg.fault_plan {
                    if plan.roll(FaultKind::WorkerPanic, tenant).is_some() {
                        panic!("injected worker panic (tenant {tenant:#x}, t {t})");
                    }
                }
                state.engine.step(t, &edges)
            }));
            let solution = match stepped {
                Ok(solution) => solution,
                Err(payload) => {
                    // The engine's in-memory state is suspect: do not
                    // advance the watermark, publish, or checkpoint. The
                    // last good published snapshot keeps serving reads.
                    self.report.panics += 1;
                    self.report.panicked_events += edges.len() as u64;
                    state.health = HealthState::Quarantined {
                        reason: QuarantineReason::Panic {
                            detail: panic_detail(payload.as_ref()),
                        },
                        since_tick: tick,
                    };
                    continue;
                }
            };
            self.report.events += edges.len() as u64;
            self.report.steps += 1;
            state.last_t = Some(t);
            if matches!(state.health, HealthState::Recovering { .. }) {
                state.health = HealthState::Healthy;
            }
            self.applied.push((
                Arc::clone(&state.published),
                TenantSnapshot {
                    tenant,
                    t: Some(t),
                    solution,
                    oracle_calls: state.engine.oracle_calls(),
                },
            ));
            state.ticks_since_save += 1;
            if cfg.checkpoint_every > 0 && state.ticks_since_save >= cfg.checkpoint_every {
                if let HealthState::Degraded {
                    next_retry_tick, ..
                } = state.health
                {
                    if tick < next_retry_tick {
                        self.report.checkpoints_deferred += 1;
                        continue;
                    }
                }
                attempt_save(state, tenant, cfg, tick, &mut self.report);
            }
        }
    }
}

/// Renders a caught panic payload for the quarantine record.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Checkpoint-chain filename prefix for a tenant.
fn tenant_prefix(tenant: TenantId) -> String {
    format!("tenant-{tenant:016x}")
}

/// The tenant a chain prefix names: the inverse of [`tenant_prefix`].
fn tenant_of_prefix(prefix: &str) -> Option<TenantId> {
    let tenant = TenantId::from_str_radix(prefix.strip_prefix("tenant-")?, 16).ok()?;
    (tenant_prefix(tenant) == prefix).then_some(tenant)
}

/// Persist's newest-first walk over one tenant's links, re-arming the
/// configured memory budget on the restored engine (checkpoints never
/// carry it).
fn restore_newest<T: TrackerEngine + Persist>(
    links: &[ChainLink],
    cfg: &TrackerConfig,
) -> Result<(u64, T, u64), String> {
    let (step, mut engine, fallbacks) = load_newest::<T>(links, cfg)?;
    engine.set_memory_budget(cfg.memory_budget);
    Ok((step, engine, fallbacks))
}

fn save_tenant<T: TrackerEngine + Persist>(
    state: &mut TenantState<T>,
    tenant: TenantId,
    tracker_cfg: &TrackerConfig,
) -> Result<(), ServeError> {
    let chain = state.chain.as_mut().ok_or(ServeError::NoCheckpointDir)?;
    // Manifest `step` is the resume tick: everything strictly below it
    // has been applied.
    let step = state.last_t.map_or(0, |t| t + 1);
    chain
        .save(&state.engine, tracker_cfg, step)
        .map_err(|source| ServeError::Persist { tenant, source })?;
    state.ticks_since_save = 0;
    Ok(())
}

/// Tries a checkpoint save and advances the tenant's health machine on
/// the outcome: success heals a degraded tenant, failure escalates
/// Healthy → Degraded (with exponential backoff on the flush-tick clock)
/// → Quarantined once the retry budget is spent. Returns whether the
/// save succeeded.
fn attempt_save<T: TrackerEngine + Persist>(
    state: &mut TenantState<T>,
    tenant: TenantId,
    cfg: &ServeConfig,
    tick: u64,
    report: &mut FlushReport,
) -> bool {
    match save_tenant(state, tenant, &cfg.tracker) {
        Ok(()) => {
            report.checkpoints += 1;
            if matches!(state.health, HealthState::Degraded { .. }) {
                state.health = HealthState::Healthy;
            }
            true
        }
        Err(e) => {
            report.checkpoint_failures += 1;
            let attempts = match state.health {
                HealthState::Degraded { attempts, .. } => attempts + 1,
                _ => 1,
            };
            state.health = if attempts > cfg.retry.max_attempts {
                HealthState::Quarantined {
                    reason: QuarantineReason::CheckpointFailed {
                        detail: e.to_string(),
                    },
                    since_tick: tick,
                }
            } else {
                HealthState::Degraded {
                    attempts,
                    next_retry_tick: cfg.retry.next_retry_tick(attempts, tick),
                }
            };
            false
        }
    }
}

/// SplitMix64 finalizer: the tenant→shard hash. Independent of shard
/// *count* ordering concerns — routing is `mix(tenant) % shards`, a pure
/// function of the id and the configuration.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The sharded multi-tenant server. Generic over the hosted engine
/// family (one family per server; monomorphized, no dynamic dispatch on
/// the hot path).
pub struct Server<T> {
    cfg: ServeConfig,
    shards: Vec<Shard<T>>,
    /// Deterministic clock: bumps once per [`Server::flush`]. Drives
    /// checkpoint-retry backoff and health-transition timestamps — never
    /// wall time, so fault schedules replay exactly.
    tick: u64,
}

impl<T: TrackerEngine + Persist + Send> Server<T> {
    /// Creates an empty server. Tenants are provisioned on first submit.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        if cfg.shards == 0 {
            return Err(ServeError::NoShards);
        }
        let shards = (0..cfg.shards).map(|_| Shard::new()).collect();
        Ok(Server {
            cfg,
            shards,
            tick: 0,
        })
    }

    /// The shard owning `tenant` (deterministic hash routing).
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        (mix(tenant) % self.cfg.shards as u64) as usize
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The flush-tick clock (0 before the first flush).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Enqueues one event. Consecutive submissions for the same
    /// `(tenant, t)` coalesce into one batch, so an interleaved
    /// event-at-a-time firehose and a pre-batched feed produce the same
    /// steps. Nothing is processed until [`flush`](Self::flush). Fails
    /// with [`ServeError::Backpressure`] (carrying the event back) when
    /// the shard queue is full under [`ShedPolicy::RejectNewest`].
    pub fn submit(&mut self, tenant: TenantId, t: Time, edge: TimedEdge) -> Result<(), ServeError> {
        self.submit_batch(tenant, t, vec![edge])
    }

    /// Enqueues a pre-coalesced batch (same contract as [`submit`]).
    ///
    /// [`submit`]: Self::submit
    pub fn submit_batch(
        &mut self,
        tenant: TenantId,
        t: Time,
        edges: Vec<TimedEdge>,
    ) -> Result<(), ServeError> {
        let idx = self.shard_of(tenant);
        let shard = &mut self.shards[idx];
        // Coalescing extends the tail batch in place — the queue does not
        // grow, so a full queue never rejects a coalescing submit.
        if let Some((pt, ptt, pending)) = shard.pending.back_mut() {
            if *pt == tenant && *ptt == t {
                pending.extend(edges);
                return Ok(());
            }
        }
        let cap = self.cfg.max_pending_per_shard;
        if cap > 0 && shard.pending.len() >= cap {
            match self.cfg.shed_policy {
                ShedPolicy::RejectNewest => {
                    shard.report.rejected_batches += 1;
                    shard.report.rejected_events += edges.len() as u64;
                    return Err(ServeError::Backpressure { tenant, t, edges });
                }
                ShedPolicy::DropOldest => {
                    if let Some((_, _, dropped)) = shard.pending.pop_front() {
                        shard.report.shed_batches += 1;
                        shard.report.shed_events += dropped.len() as u64;
                    }
                }
            }
        }
        shard.pending.push_back((tenant, t, edges));
        shard.tenants.entry(tenant).or_insert_with(|| {
            TenantState::new(tenant, T::from_config(&self.cfg.tracker), None, &self.cfg)
        });
        Ok(())
    }

    /// Processes every pending batch: the shards with pending batches
    /// drain in parallel across the `exec` pool (stealing — per-shard load
    /// is skewed by tenant activity), each shard serially in arrival
    /// order; a lone busy shard drains on this thread, and its tenants'
    /// own fan-outs use the pool. Bit-identical results at any
    /// `TDN_THREADS`: shard contents and per-tenant batch order are pure
    /// functions of the submission sequence and the routing hash, never of
    /// the worker schedule. After the shards join, this thread publishes
    /// every applied step's snapshot — in shard order, then drain order,
    /// one publish per step — before returning, `Err` included. Engine
    /// panics are caught per tenant (quarantine), checkpoint failures feed
    /// the health machine — `Err` here means an internal invariant broke,
    /// not a tenant fault.
    pub fn flush(&mut self) -> Result<FlushReport, ServeError> {
        self.tick += 1;
        let tick = self.tick;
        let cfg = &self.cfg;
        let mut busy: Vec<&mut Shard<T>> = self
            .shards
            .iter_mut()
            .filter(|shard| !shard.pending.is_empty())
            .collect();
        exec::par_for_each_mut_steal(&mut busy, |shard| shard.drain(cfg, tick));
        for shard in &mut self.shards {
            for (cell, snapshot) in shard.applied.drain(..) {
                cell.publish(snapshot);
            }
        }
        let mut report = FlushReport::default();
        for shard in &mut self.shards {
            if let Some(e) = shard.error.take() {
                return Err(e);
            }
            report.merge(&std::mem::take(&mut shard.report));
        }
        Ok(report)
    }

    /// The tenant's current published snapshot (top-k answer), or `None`
    /// for a tenant the server has never seen. Quarantined tenants keep
    /// serving their last good snapshot.
    pub fn query(&self, tenant: TenantId) -> Option<Arc<TenantSnapshot>> {
        self.shards[self.shard_of(tenant)]
            .tenants
            .get(&tenant)
            .map(|s| s.published.load())
    }

    /// A detached read handle for `tenant` — usable from other threads
    /// while the server ingests.
    pub fn reader(&self, tenant: TenantId) -> Option<SnapshotReader> {
        self.shards[self.shard_of(tenant)]
            .tenants
            .get(&tenant)
            .map(|s| SnapshotReader {
                cell: Arc::clone(&s.published),
            })
    }

    /// All provisioned tenants, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self
            .shards
            .iter()
            .flat_map(|s| s.tenants.keys().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The tenant's replay watermark (tick of its last processed batch).
    pub fn last_t(&self, tenant: TenantId) -> Option<Time> {
        self.shards[self.shard_of(tenant)]
            .tenants
            .get(&tenant)
            .and_then(|s| s.last_t)
    }

    /// The tenant's current health, or `None` for an unknown tenant.
    pub fn health_of(&self, tenant: TenantId) -> Option<HealthState> {
        self.shards[self.shard_of(tenant)]
            .tenants
            .get(&tenant)
            .map(|s| s.health.clone())
    }

    /// A census of every tenant's health, ascending by tenant id.
    pub fn health_report(&self) -> HealthReport {
        let mut states: Vec<(TenantId, HealthState)> = self
            .shards
            .iter()
            .flat_map(|s| s.tenants.iter().map(|(&id, st)| (id, st.health.clone())))
            .collect();
        states.sort_by_key(|(id, _)| *id);
        HealthReport::from_states(states)
    }

    /// Aggregate approximate heap footprint of all hosted engines.
    /// Quarantined engines are excluded: after a mid-step panic their
    /// internal invariants are suspect, so nothing touches them.
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.tenants.values())
            .filter(|t| t.health.serving())
            .map(|t| t.engine.approx_bytes())
            .sum()
    }

    /// Checkpoints every serving tenant now (shards in parallel),
    /// regardless of cadence. Quarantined tenants are skipped — a
    /// suspect state must never overwrite a good chain. Per-tenant
    /// failures advance the health machine and are tallied in the
    /// summary; `Err` only when no checkpoint directory is configured.
    pub fn checkpoint_all(&mut self) -> Result<CheckpointSummary, ServeError> {
        if self.cfg.checkpoint_dir.is_none() {
            return Err(ServeError::NoCheckpointDir);
        }
        let tick = self.tick;
        let cfg = &self.cfg;
        exec::par_for_each_mut_steal(&mut self.shards, |shard| {
            shard.ck = CheckpointSummary::default();
            for (&tenant, state) in shard.tenants.iter_mut() {
                if state.last_t.is_none() {
                    shard.ck.skipped_empty += 1; // nothing applied yet
                    continue;
                }
                if !state.health.serving() {
                    shard.ck.skipped_quarantined += 1;
                    continue;
                }
                if attempt_save(state, tenant, cfg, tick, &mut shard.report) {
                    shard.ck.saved += 1;
                } else {
                    shard.ck.failed += 1;
                }
            }
        });
        let mut summary = CheckpointSummary::default();
        for shard in &mut self.shards {
            let ck = std::mem::take(&mut shard.ck);
            summary.saved += ck.saved;
            summary.failed += ck.failed;
            summary.skipped_quarantined += ck.skipped_quarantined;
            summary.skipped_empty += ck.skipped_empty;
        }
        Ok(summary)
    }

    /// Rebuilds a server from the checkpoint directory, tolerating a
    /// hostile one: stale `.tmp` debris is removed, foreign files are
    /// skipped and counted, and a tenant whose links are truncated or
    /// bit-flipped falls back to older links — if none restores, the
    /// tenant is provisioned fresh and **quarantined with the error**
    /// rather than aborting the whole recovery. Restored engines get the
    /// configured memory budget back (checkpoints never carry it) and
    /// republish a provisional snapshot; the front-end then replays its
    /// stream and the idempotent guard drops everything at or before
    /// each watermark, so at-least-once redelivery converges on the
    /// uninterrupted state — bit-identically, by the persist layer's
    /// warm-restart guarantee.
    pub fn recover(cfg: ServeConfig) -> Result<(Self, RecoveryReport), ServeError> {
        let dir = cfg
            .checkpoint_dir
            .clone()
            .ok_or(ServeError::NoCheckpointDir)?;
        let mut server = Server::new(cfg)?;
        // Recovery is single-threaded and no writer is active: the
        // dir-wide sweep is safe here (and only here).
        let mut report = RecoveryReport {
            stale_tmp_removed: clean_stale_tmp(&dir, None).map_or(0, |v| v.len()),
            ..Default::default()
        };
        let (links, foreign) = list_chain_links(&dir)?;
        report.foreign_files = foreign;
        // Links sort by prefix, so each tenant's chain is one run, and
        // tenants come out ascending.
        for chain in links.chunk_by(|a, b| a.prefix == b.prefix) {
            let Some(tenant) = tenant_of_prefix(&chain[0].prefix) else {
                report.foreign_files += chain.len();
                continue;
            };
            let state = match restore_newest::<T>(chain, &server.cfg.tracker) {
                Ok((step, engine, fallbacks)) => {
                    report.fallbacks += fallbacks;
                    report.recovered.push(tenant);
                    TenantState::new(tenant, engine, step.checked_sub(1), &server.cfg)
                }
                Err(last_err) => {
                    report.quarantined.push((tenant, last_err.clone()));
                    let engine = T::from_config(&server.cfg.tracker);
                    let mut state = TenantState::new(tenant, engine, None, &server.cfg);
                    state.health = HealthState::Quarantined {
                        reason: QuarantineReason::RecoveryFailed { detail: last_err },
                        since_tick: 0,
                    };
                    state
                }
            };
            let shard = server.shard_of(tenant);
            server.shards[shard].tenants.insert(tenant, state);
        }
        Ok((server, report))
    }

    /// Supervised recovery for one quarantined (or any) tenant: restores
    /// its engine from the newest restorable chain link — falling back to
    /// older links, with the configured memory budget re-armed — or
    /// provisions it fresh when nothing restores, and marks it
    /// `Recovering`. Returns the restored watermark (`None`
    /// when fresh): the supervisor must replay the tenant's stream from
    /// the beginning; the idempotence guard skips the already-applied
    /// prefix and the first successfully applied batch flips the tenant
    /// back to `Healthy`. The published snapshot is left untouched until
    /// replay overtakes it, so reads never regress silently.
    pub fn revive_tenant(&mut self, tenant: TenantId) -> Result<Option<Time>, ServeError> {
        let dir = self
            .cfg
            .checkpoint_dir
            .clone()
            .ok_or(ServeError::NoCheckpointDir)?;
        let prefix = tenant_prefix(tenant);
        let (mut links, _) = list_chain_links(&dir)?;
        links.retain(|l| l.prefix == prefix);
        let (last_t, engine) = match restore_newest::<T>(&links, &self.cfg.tracker) {
            Ok((step, engine, _)) => (step.checked_sub(1), engine),
            Err(_) => (None, T::from_config(&self.cfg.tracker)),
        };
        self.install_recovering(tenant, engine, last_t);
        Ok(last_t)
    }

    /// Discards the tenant's engine (and any quarantine) and installs a
    /// fresh one marked `Recovering`, without touching the disk. The
    /// supervisor must replay the tenant's full stream; the first applied
    /// batch flips the tenant back to `Healthy`. Use when every
    /// checkpoint link is corrupt ([`RecoveryReport::quarantined`]).
    pub fn reset_tenant(&mut self, tenant: TenantId) {
        let engine = T::from_config(&self.cfg.tracker);
        self.install_recovering(tenant, engine, None);
    }

    /// Swaps in a revived engine, preserving the tenant's published cell
    /// (readers hold it by `Arc`).
    fn install_recovering(&mut self, tenant: TenantId, engine: T, last_t: Option<Time>) {
        let tick = self.tick;
        let cfg_snapshot_chain = make_chain(&self.cfg, tenant);
        let idx = self.shard_of(tenant);
        let shard = &mut self.shards[idx];
        let published = shard
            .tenants
            .get(&tenant)
            .map(|s| Arc::clone(&s.published))
            .unwrap_or_else(|| {
                Arc::new(Published::new(TenantSnapshot {
                    tenant,
                    t: None,
                    solution: Solution::empty(),
                    oracle_calls: 0,
                }))
            });
        shard.tenants.insert(
            tenant,
            TenantState {
                engine,
                last_t,
                published,
                chain: cfg_snapshot_chain,
                ticks_since_save: 0,
                health: HealthState::Recovering { since_tick: tick },
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdn_core::{InfluenceTracker, SieveAdnTracker};
    use tdn_faults::FaultPlanConfig;
    use tdn_streams::{TenantWorkload, TenantWorkloadConfig};

    fn workload() -> TenantWorkload {
        TenantWorkload::new(TenantWorkloadConfig {
            tenants: 6,
            ticks: 24,
            events_per_tick: 5,
            ..TenantWorkloadConfig::default()
        })
    }

    fn tcfg() -> TrackerConfig {
        TrackerConfig::new(2, 0.25, 8)
    }

    fn run_firehose(shards: usize) -> Server<SieveAdnTracker> {
        let mut server = Server::new(ServeConfig::new(shards, tcfg())).expect("config");
        for b in workload().interleaved() {
            // Event-at-a-time submission: exercises coalescing.
            for e in b.edges {
                server.submit(b.tenant as TenantId, b.t, e).expect("submit");
            }
        }
        server.flush().expect("flush");
        server
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let server = run_firehose(4);
        for tenant in server.tenants() {
            assert_eq!(server.shard_of(tenant), server.shard_of(tenant));
            assert!(server.shard_of(tenant) < 4);
        }
        assert_eq!(server.tenants().len(), 6);
    }

    #[test]
    fn served_snapshots_match_direct_runs_across_shard_counts() {
        // Solutions and oracle tallies must not depend on shard count,
        // and must equal a dedicated single-tenant run.
        let w = workload();
        for shards in [1usize, 3, 8] {
            let server = run_firehose(shards);
            for tenant in 0..w.config().tenants {
                let mut direct = SieveAdnTracker::new(&tcfg());
                let mut last = None;
                for (t, batch) in w.tenant_stream(tenant) {
                    direct.step(t, &batch);
                    last = Some(t);
                }
                let snap = server.query(tenant as TenantId).expect("tenant exists");
                assert_eq!(snap.t, last, "tenant {tenant} shards {shards}");
                assert_eq!(
                    snap.solution,
                    tdn_core::TrackerEngine::query(&direct),
                    "tenant {tenant} shards {shards}"
                );
                assert_eq!(snap.oracle_calls, direct.oracle_calls());
            }
        }
    }

    #[test]
    fn replay_guard_skips_stale_ticks() {
        let mut server = run_firehose(2);
        let tenant = 0 as TenantId;
        let before = server.query(tenant).expect("exists");
        // Redeliver an old tick: must be counted and dropped.
        server
            .submit_batch(tenant, 0, vec![TimedEdge::new(1u32, 2u32, 3)])
            .expect("submit");
        let report = server.flush().expect("flush");
        assert_eq!(report.skipped, 1);
        assert_eq!(report.skipped_events, 1);
        assert_eq!(report.steps, 0);
        let after = server.query(tenant).expect("exists");
        assert_eq!(before, after, "stale tick mutated the tenant");
    }

    #[test]
    fn readers_outlive_server_borrows() {
        let mut server = run_firehose(2);
        let reader = server.reader(1).expect("tenant 1");
        let epoch_before = reader.epoch();
        let snap = reader.load();
        let t_held = snap.t;
        // Ingest more while the reader holds its snapshot: two ticks for
        // the read tenant and one for a tenant on the other shard, so the
        // flush fans out over both shards.
        let other = (0..6)
            .find(|&t| server.shard_of(t) != server.shard_of(1))
            .expect("a tenant on the other shard");
        for (tenant, t) in [(1, 1_000), (other, 1_000), (1, 1_001)] {
            server
                .submit_batch(tenant, t, vec![TimedEdge::new(3u32, 4u32, 2)])
                .expect("submit");
        }
        let report = exec::with_threads(2, || server.flush()).expect("flush");
        assert_eq!(report.steps, 3);
        assert_eq!(reader.epoch(), epoch_before + 2, "one publish per step");
        assert_eq!(snap.t, t_held, "old snapshot must be unaffected");
        assert_eq!(reader.load().t, Some(1_001), "the later tick is visible");
    }

    #[test]
    fn checkpoint_recover_replay_converges() {
        let dir = std::env::temp_dir().join("tdn_serve_unit_recover");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig::new(3, tcfg()).with_checkpoints(&dir, 4);
        let w = workload();

        // Uninterrupted reference.
        let mut reference = Server::<SieveAdnTracker>::new(ServeConfig::new(3, tcfg())).unwrap();
        for b in w.interleaved() {
            reference
                .submit_batch(b.tenant as TenantId, b.t, b.edges)
                .unwrap();
        }
        reference.flush().unwrap();

        // Crash mid-stream: ingest half, checkpoint, drop the server.
        let mut victim = Server::<SieveAdnTracker>::new(cfg.clone()).unwrap();
        let all: Vec<_> = w.interleaved().collect();
        let half = all.len() / 2;
        for b in &all[..half] {
            victim
                .submit_batch(b.tenant as TenantId, b.t, b.edges.clone())
                .unwrap();
        }
        victim.flush().unwrap();
        let summary = victim.checkpoint_all().unwrap();
        assert!(summary.saved > 0);
        assert_eq!(summary.failed, 0);
        drop(victim);

        // Recover and replay the *whole* stream (at-least-once).
        let (mut recovered, rec) = Server::<SieveAdnTracker>::recover(cfg).unwrap();
        assert!(!rec.recovered.is_empty());
        assert!(rec.quarantined.is_empty());
        for b in &all {
            recovered
                .submit_batch(b.tenant as TenantId, b.t, b.edges.clone())
                .unwrap();
        }
        let report = recovered.flush().unwrap();
        assert!(report.skipped > 0, "replay should hit the guard");
        for tenant in reference.tenants() {
            assert_eq!(
                reference.query(tenant),
                recovered.query(tenant),
                "tenant {tenant} diverged after recovery"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoints never carry the memory budget (it is operational
    /// state), so both restore paths must re-arm the configured ceiling:
    /// a tenant restored by `recover` and one restored by `revive_tenant`
    /// both shed on their first replayed step.
    #[test]
    fn restored_tenants_keep_their_memory_budget() {
        let dir = std::env::temp_dir().join("tdn_serve_unit_budget");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig::new(2, tcfg().with_memory_budget(1)).with_checkpoints(&dir, 4);
        let all: Vec<_> = workload().interleaved().collect();
        let mut victim = Server::<SieveAdnTracker>::new(cfg.clone()).unwrap();
        for b in &all[..all.len() / 2] {
            victim
                .submit_batch(b.tenant as TenantId, b.t, b.edges.clone())
                .unwrap();
        }
        victim.flush().unwrap();
        assert!(victim.checkpoint_all().unwrap().saved > 0);
        drop(victim);

        let (mut server, rec) = Server::<SieveAdnTracker>::recover(cfg).unwrap();
        assert!(rec.recovered.len() >= 2, "{rec:?}");
        let revived = rec.recovered[0];
        assert!(server.revive_tenant(revived).unwrap().is_some());
        let shed_memo = |server: &Server<SieveAdnTracker>, tenant: TenantId| {
            let shard = &server.shards[server.shard_of(tenant)];
            shard.tenants[&tenant].engine.spread_stats().shed_memo
        };
        let before: Vec<u64> = rec
            .recovered
            .iter()
            .map(|&t| shed_memo(&server, t))
            .collect();
        for &tenant in &rec.recovered {
            let next = all
                .iter()
                .find(|b| b.tenant as TenantId == tenant && Some(b.t) > server.last_t(tenant))
                .expect("the stream continues past the checkpoint");
            server
                .submit_batch(tenant, next.t, next.edges.clone())
                .unwrap();
        }
        assert_eq!(server.flush().unwrap().steps, rec.recovered.len() as u64);
        for (&tenant, &was) in rec.recovered.iter().zip(&before) {
            let how = if tenant == revived {
                "revive_tenant"
            } else {
                "recover"
            };
            assert!(
                shed_memo(&server, tenant) > was,
                "tenant {tenant} restored by {how} lost its memory budget"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_without_dir_is_a_typed_error() {
        let err = Server::<SieveAdnTracker>::recover(ServeConfig::new(1, tcfg()));
        assert!(matches!(err, Err(ServeError::NoCheckpointDir)));
        let mut s = Server::<SieveAdnTracker>::new(ServeConfig::new(1, tcfg())).unwrap();
        assert!(matches!(
            s.checkpoint_all(),
            Err(ServeError::NoCheckpointDir)
        ));
        assert!(matches!(
            Server::<SieveAdnTracker>::new(ServeConfig::new(0, tcfg())),
            Err(ServeError::NoShards)
        ));
        assert!(matches!(
            s.revive_tenant(7),
            Err(ServeError::NoCheckpointDir)
        ));
    }

    #[test]
    fn recover_orders_links_by_numeric_step() {
        // Resume steps 99,999,999 and 100,000,000: the second outgrows the
        // eight-digit padding, so name order would restore the older link.
        let dir = std::env::temp_dir().join("tdn_serve_unit_numeric_steps");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig::new(1, tcfg()).with_checkpoints(&dir, 1);
        let mut server = Server::<SieveAdnTracker>::new(cfg.clone()).unwrap();
        for t in [99_999_998, 99_999_999] {
            server
                .submit_batch(0, t, vec![TimedEdge::new(1u32, 2u32, 3)])
                .unwrap();
            assert_eq!(server.flush().unwrap().checkpoints, 1);
        }
        drop(server);
        let (server, rec) = Server::<SieveAdnTracker>::recover(cfg).unwrap();
        assert_eq!(rec.recovered, vec![0]);
        assert_eq!(rec.fallbacks, 0);
        assert_eq!(server.last_t(0), Some(99_999_999));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_filenames_round_trip() {
        assert_eq!(tenant_of_prefix(&tenant_prefix(0xABCD)), Some(0xABCD));
        assert_eq!(tenant_of_prefix(&tenant_prefix(u64::MAX)), Some(u64::MAX));
        assert_eq!(tenant_of_prefix("not-a-chain"), None);
        assert_eq!(tenant_of_prefix("tenant-abcd"), None, "not the padded form");
    }

    #[test]
    fn a_panicking_tenant_is_quarantined_and_the_rest_survive() {
        // Every tenant's first step panics once (rate 100%, one fire per
        // site); the server must never propagate a panic, must keep the
        // pre-panic snapshot serving, and revived tenants must replay to
        // the uninterrupted state.
        let reference = run_firehose(3);
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig::new(0xBAD)
                .with_rate(FaultKind::WorkerPanic, 10_000)
                .with_max_per_site(1),
        ));
        let cfg = ServeConfig::new(3, tcfg()).with_faults(Arc::clone(&plan));
        let mut server = Server::<SieveAdnTracker>::new(cfg).unwrap();
        for b in workload().interleaved() {
            server
                .submit_batch(b.tenant as TenantId, b.t, b.edges)
                .unwrap();
        }
        let report = server.flush().expect("no escaped panics");
        assert_eq!(report.panics, 6, "one injected panic per tenant");
        assert!(report.quarantined_batches > 0, "later batches blocked");
        let health = server.health_report();
        assert_eq!(health.quarantined, 6);
        assert_eq!(health.quarantine_list().len(), 6);
        for (_, reason) in health.quarantine_list() {
            assert_eq!(reason.tag(), "panic");
        }
        // The published snapshots never saw the panicked step.
        for tenant in server.tenants() {
            assert_eq!(server.query(tenant).unwrap().t, None);
        }
        // Supervised recovery: reset (no checkpoint dir) + full replay.
        for tenant in server.tenants() {
            server.reset_tenant(tenant);
            assert_eq!(
                server.health_of(tenant).unwrap().tag(),
                "recovering",
                "tenant {tenant}"
            );
        }
        for b in workload().interleaved() {
            server
                .submit_batch(b.tenant as TenantId, b.t, b.edges)
                .unwrap();
        }
        server.flush().expect("replay flush");
        assert_eq!(server.health_report().healthy, 6, "all healed");
        for tenant in reference.tenants() {
            assert_eq!(
                reference.query(tenant),
                server.query(tenant),
                "tenant {tenant} diverged after revive"
            );
        }
    }

    #[test]
    fn checkpoint_failures_degrade_then_quarantine_with_backoff() {
        let dir = std::env::temp_dir().join("tdn_serve_unit_degrade");
        let _ = std::fs::remove_dir_all(&dir);
        // Every write fails; panics off. One tenant, cadence 1, retry
        // budget 2 with base backoff 1 tick.
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig::new(7)
                .with_rate(FaultKind::IoError, 10_000)
                .with_max_per_site(1_000),
        ));
        let cfg = ServeConfig::new(1, tcfg())
            .with_checkpoints(&dir, 1)
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff_ticks: 1,
            })
            .with_faults(plan);
        let mut server = Server::<SieveAdnTracker>::new(cfg).unwrap();
        let tenant = 0 as TenantId;
        let mut states = Vec::new();
        for t in 0..6u64 {
            server
                .submit_batch(tenant, t, vec![TimedEdge::new(1u32, 2u32, 3)])
                .unwrap();
            server.flush().unwrap();
            states.push(server.health_of(tenant).unwrap());
        }
        // tick1: fail (attempt 1) → Degraded(next=2); tick2: retry fail
        // (attempt 2) → Degraded(next=4); tick3: deferred; tick4: fail
        // (attempt 3 > budget 2) → Quarantined. Steps keep applying while
        // Degraded (the engine is fine; only the disk is sick).
        assert_eq!(states[0].tag(), "degraded");
        assert_eq!(states[1].tag(), "degraded");
        assert_eq!(states[2].tag(), "degraded", "backoff defers, not fails");
        assert_eq!(states[3].tag(), "quarantined");
        assert_eq!(states[5].tag(), "quarantined");
        match &states[3] {
            HealthState::Quarantined { reason, .. } => {
                assert_eq!(reason.tag(), "checkpoint_failed")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Watermark advanced through the degraded window, then froze.
        assert_eq!(server.last_t(tenant), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_tenant_heals_on_successful_save() {
        let dir = std::env::temp_dir().join("tdn_serve_unit_heal");
        let _ = std::fs::remove_dir_all(&dir);
        // Exactly one write fault per site, then the disk recovers.
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig::new(7)
                .with_rate(FaultKind::IoError, 10_000)
                .with_max_per_site(1),
        ));
        let cfg = ServeConfig::new(1, tcfg())
            .with_checkpoints(&dir, 1)
            .with_retry(RetryPolicy {
                max_attempts: 5,
                base_backoff_ticks: 1,
            })
            .with_faults(plan);
        let mut server = Server::<SieveAdnTracker>::new(cfg).unwrap();
        let tenant = 0 as TenantId;
        server
            .submit_batch(tenant, 0, vec![TimedEdge::new(1u32, 2u32, 3)])
            .unwrap();
        let r1 = server.flush().unwrap();
        assert_eq!(r1.checkpoint_failures, 1);
        assert_eq!(server.health_of(tenant).unwrap().tag(), "degraded");
        server
            .submit_batch(tenant, 1, vec![TimedEdge::new(2u32, 3u32, 3)])
            .unwrap();
        let r2 = server.flush().unwrap();
        assert_eq!(r2.checkpoints, 1, "retry succeeded after the fault");
        assert_eq!(server.health_of(tenant).unwrap().tag(), "healthy");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reject_newest_returns_the_batch_and_counts_it() {
        let cfg = ServeConfig::new(1, tcfg()).with_queue_limit(2, ShedPolicy::RejectNewest);
        let mut server = Server::<SieveAdnTracker>::new(cfg).unwrap();
        server
            .submit_batch(1, 0, vec![TimedEdge::new(1u32, 2u32, 3)])
            .unwrap();
        server
            .submit_batch(2, 0, vec![TimedEdge::new(1u32, 2u32, 3)])
            .unwrap();
        // Queue full; a coalescing submit still fits (tail extends).
        server
            .submit_batch(2, 0, vec![TimedEdge::new(4u32, 5u32, 3)])
            .unwrap();
        // A third distinct batch bounces, carrying its data back.
        let err = server
            .submit_batch(
                3,
                0,
                vec![TimedEdge::new(6u32, 7u32, 3), TimedEdge::new(8u32, 9u32, 2)],
            )
            .unwrap_err();
        match err {
            ServeError::Backpressure { tenant, t, edges } => {
                assert_eq!((tenant, t), (3, 0));
                assert_eq!(edges.len(), 2, "rejected data must ride back");
            }
            other => panic!("expected backpressure, got {other}"),
        }
        let report = server.flush().unwrap();
        assert_eq!(report.rejected_batches, 1);
        assert_eq!(report.rejected_events, 2);
        assert_eq!(report.events, 3, "accepted batches all applied");
        assert!(server.query(3).is_none(), "rejected tenant not provisioned");
    }

    #[test]
    fn drop_oldest_evicts_and_accounts() {
        let cfg = ServeConfig::new(1, tcfg()).with_queue_limit(2, ShedPolicy::DropOldest);
        let mut server = Server::<SieveAdnTracker>::new(cfg).unwrap();
        server
            .submit_batch(
                1,
                0,
                vec![TimedEdge::new(1u32, 2u32, 3), TimedEdge::new(3u32, 4u32, 3)],
            )
            .unwrap();
        server
            .submit_batch(2, 0, vec![TimedEdge::new(1u32, 2u32, 3)])
            .unwrap();
        server
            .submit_batch(3, 0, vec![TimedEdge::new(5u32, 6u32, 3)])
            .unwrap();
        let report = server.flush().unwrap();
        assert_eq!(report.shed_batches, 1, "oldest batch evicted");
        assert_eq!(report.shed_events, 2, "its two events accounted");
        assert_eq!(report.events, 2, "the two surviving batches applied");
        // Tenant 1's batch was evicted before processing: provisioned but
        // never stepped.
        assert_eq!(server.query(1).unwrap().t, None);
        assert_eq!(server.query(2).unwrap().t, Some(0));
        assert_eq!(server.query(3).unwrap().t, Some(0));
    }

    #[test]
    fn revive_restores_from_chain_and_replay_heals() {
        let dir = std::env::temp_dir().join("tdn_serve_unit_revive");
        let _ = std::fs::remove_dir_all(&dir);
        let w = workload();
        let reference = run_firehose(2);

        // Panic exactly once for every tenant, with checkpoints enabled.
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig::new(0xFEED)
                .with_rate(FaultKind::WorkerPanic, 10_000)
                .with_max_per_site(1),
        ));
        let cfg = ServeConfig::new(2, tcfg())
            .with_checkpoints(&dir, 3)
            .with_faults(plan);
        let mut server = Server::<SieveAdnTracker>::new(cfg).unwrap();
        for b in w.interleaved() {
            server
                .submit_batch(b.tenant as TenantId, b.t, b.edges)
                .unwrap();
        }
        server.flush().unwrap();
        assert_eq!(server.health_report().quarantined, 6);

        // Supervised recovery: revive from chains (none exist — the
        // panic hit the first batch, before any cadence save), replay.
        for tenant in server.tenants() {
            let watermark = server.revive_tenant(tenant).unwrap();
            assert_eq!(watermark, None, "no checkpoint was ever written");
        }
        for b in w.interleaved() {
            server
                .submit_batch(b.tenant as TenantId, b.t, b.edges)
                .unwrap();
        }
        server.flush().unwrap();
        let health = server.health_report();
        assert_eq!(health.healthy, 6, "{health:?}");
        for tenant in reference.tenants() {
            assert_eq!(
                reference.query(tenant).unwrap().solution,
                server.query(tenant).unwrap().solution,
                "tenant {tenant}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
