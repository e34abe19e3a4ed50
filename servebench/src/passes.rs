//! The passes one run makes: served closed and open loops, the recovery
//! drill, the dedicated single-tenant replay (the correctness oracle and
//! the core/persist probe) and the standalone TDN replay (the graph probe).
//! Every timing is taken from outside the program, around calls to public
//! functions.

use std::path::Path;
use std::time::{Duration, Instant};

use tdn_core::{
    BasicReduction, HistApprox, SieveAdnTracker, Solution, SpreadStatsSnapshot, TrackerEngine,
};
use tdn_graph::{TdnGraph, Time};
use tdn_persist::{
    checkpoint_base_to_vec, checkpoint_delta_to_vec, load_checkpoint, CheckpointChain, Persist,
    SnapshotKind,
};
use tdn_serve::{ServeConfig, Server, TenantId};

use crate::measure::{open_loop, Clock, WallClock};
use crate::spec::{Spec, Stream, TenantStream, Tick, SHARDS};

/// A hosted tracker family plus the counters the core probe reads.
pub trait Engine: TrackerEngine + Persist + Send + 'static {
    /// The incremental spread engine's cumulative tallies.
    fn spread(&self) -> SpreadStatsSnapshot;
    /// Live sieve instances.
    fn instance_count(&self) -> usize;
}

impl Engine for SieveAdnTracker {
    fn spread(&self) -> SpreadStatsSnapshot {
        self.spread_stats()
    }
    fn instance_count(&self) -> usize {
        1
    }
}

impl Engine for HistApprox {
    fn spread(&self) -> SpreadStatsSnapshot {
        self.spread_stats()
    }
    fn instance_count(&self) -> usize {
        self.num_instances()
    }
}

impl Engine for BasicReduction {
    fn spread(&self) -> SpreadStatsSnapshot {
        self.spread_stats()
    }
    fn instance_count(&self) -> usize {
        self.num_instances()
    }
}

/// A tenant's final observable state: `(tenant, t, solution, oracle_calls)`.
pub type Fingerprint = (TenantId, Option<Time>, Solution, u64);

/// Where every submitted event went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Events passed to `submit_batch`.
    pub submitted: u64,
    /// Events applied by a tracker step.
    pub applied: u64,
    /// Events a flush reported as not applied, all causes.
    pub unapplied: u64,
    /// Events of ticks whose flush returned `Err`.
    pub errored: u64,
}

impl Accounting {
    /// Events that were submitted but not applied.
    pub fn failed(&self) -> u64 {
        self.unapplied + self.errored
    }

    /// Whether submitted = applied + unapplied + errored.
    pub fn balanced(&self) -> bool {
        self.submitted == self.applied + self.unapplied + self.errored
    }

    fn absorb(&mut self, other: &Accounting) {
        self.submitted += other.submitted;
        self.applied += other.applied;
        self.unapplied += other.unapplied;
        self.errored += other.errored;
    }
}

/// The serving configuration of `spec`, checkpointing into `dir` when the
/// workload checkpoints.
pub fn serve_config(spec: &Spec, dir: &Path) -> ServeConfig {
    let cfg = ServeConfig::new(SHARDS, spec.tracker_config());
    if spec.checkpoint_every > 0 {
        cfg.with_checkpoints(dir, spec.checkpoint_every)
    } else {
        cfg
    }
}

/// Submits one tick's batches, timing each call when `submit_s` is given.
fn submit<T: Engine>(
    server: &mut Server<T>,
    t: Time,
    tick: Tick,
    acct: &mut Accounting,
    mut submit_s: Option<&mut Vec<f64>>,
) -> u64 {
    let mut events = 0;
    for (tenant, edges) in tick {
        events += edges.len() as u64;
        let started = Instant::now();
        // A refused batch is counted by the next flush report
        // (`rejected_events`), so the error needs no tally here.
        let _ = server.submit_batch(tenant, t, edges);
        if let Some(samples) = submit_s.as_deref_mut() {
            samples.push(started.elapsed().as_secs_f64());
        }
    }
    acct.submitted += events;
    events
}

/// Flushes and books the report. Returns the events applied.
fn flush<T: Engine>(server: &mut Server<T>, events: u64, acct: &mut Accounting) -> u64 {
    match server.flush() {
        Ok(report) => {
            acct.applied += report.events;
            acct.unapplied += report.unapplied_events();
            report.events
        }
        Err(_) => {
            acct.errored += events;
            0
        }
    }
}

/// Every provisioned tenant's published state, ascending by tenant.
fn fingerprints<T: Engine>(server: &Server<T>) -> Vec<Fingerprint> {
    server
        .tenants()
        .into_iter()
        .filter_map(|tenant| {
            let snap = server.query(tenant)?;
            Some((tenant, snap.t, snap.solution.clone(), snap.oracle_calls))
        })
        .collect()
}

/// Empties `dir` so a pass starts without checkpoints of an earlier one.
fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One served closed-loop pass over the whole stream.
#[derive(Clone, Debug, Default)]
pub struct ServeRun {
    /// `Server::new`, seconds.
    pub new_s: f64,
    /// Per tick: its `submit_batch` calls plus its `flush`, seconds.
    pub tick_s: Vec<f64>,
    /// Events applied after the warm-up prefix.
    pub timed_events: u64,
    /// Accounting over the whole pass.
    pub acct: Accounting,
    /// Traced passes only: every `submit_batch` call, seconds.
    pub submit_s: Vec<f64>,
    /// Traced passes only: every `flush` call, seconds.
    pub flush_s: Vec<f64>,
    /// Batches submitted.
    pub batches: u64,
    /// `Server::approx_bytes()` at the end of the pass.
    pub approx_bytes: usize,
    /// Final published state of every tenant.
    pub finals: Vec<Fingerprint>,
}

impl ServeRun {
    /// `Server::new` plus the warm-up prefix, seconds.
    pub fn setup_s(&self, warmup: usize) -> f64 {
        self.new_s + self.tick_s[..warmup].iter().sum::<f64>()
    }
}

/// Closed loop: each tick is submitted, then flushed, then the next tick
/// follows. `traced` also times every `submit_batch` and `flush` call.
pub fn closed_pass<T: Engine>(
    spec: &Spec,
    stream: &Stream,
    dir: &Path,
    threads: usize,
    traced: bool,
) -> ServeRun {
    fresh_dir(dir);
    // Cloned before timing: the timed loop only moves owned batches.
    let ticks = stream.ticks.clone();
    let mut run = ServeRun {
        tick_s: Vec::with_capacity(ticks.len()),
        ..ServeRun::default()
    };
    if traced {
        run.submit_s = Vec::with_capacity(ticks.iter().map(Vec::len).sum());
        run.flush_s = Vec::with_capacity(ticks.len());
    }
    exec::with_threads(threads, || {
        let started = Instant::now();
        let mut server = Server::<T>::new(serve_config(spec, dir)).expect("SHARDS > 0");
        run.new_s = started.elapsed().as_secs_f64();
        for (i, tick) in ticks.into_iter().enumerate() {
            run.batches += tick.len() as u64;
            let tick_started = Instant::now();
            let submit_s = traced.then_some(&mut run.submit_s);
            let events = submit(&mut server, i as Time, tick, &mut run.acct, submit_s);
            let flush_started = Instant::now();
            let applied = flush(&mut server, events, &mut run.acct);
            let done = Instant::now();
            run.tick_s.push((done - tick_started).as_secs_f64());
            if traced {
                run.flush_s.push((done - flush_started).as_secs_f64());
            }
            if i >= stream.warmup {
                run.timed_events += applied;
            }
        }
        run.approx_bytes = server.approx_bytes();
        run.finals = fingerprints(&server);
    });
    fresh_dir(dir);
    run
}

/// One served open-loop pass: after the warm-up, ticks are sent on the
/// workload's fixed schedule whatever the server's speed.
#[derive(Clone, Debug, Default)]
pub struct OpenRun {
    /// `Server::new` plus the warm-up prefix, seconds.
    pub setup_s: f64,
    /// Per tick: how late the generator submitted it, seconds.
    pub late_s: Vec<f64>,
    /// Per tick: due time to the return of its flush, seconds.
    pub latency_s: Vec<f64>,
    /// Per flush: the read sweep's time divided by the tenants read,
    /// seconds.
    pub read_s: Vec<f64>,
    /// Accounting over the whole pass.
    pub acct: Accounting,
}

/// Open loop at the workload's tick period. After each flush the producer
/// thread sweeps `Server::query` over every tenant. The server is dropped
/// at the end of the schedule and its checkpoints stay in `dir` for
/// [`drill`].
pub fn open_pass<T: Engine>(spec: &Spec, stream: &Stream, dir: &Path, threads: usize) -> OpenRun {
    fresh_dir(dir);
    let mut ticks = stream.ticks.clone().into_iter();
    let mut run = OpenRun::default();
    exec::with_threads(threads, || {
        let started = Instant::now();
        let mut server = Server::<T>::new(serve_config(spec, dir)).expect("SHARDS > 0");
        for (i, tick) in ticks.by_ref().take(stream.warmup).enumerate() {
            let events = submit(&mut server, i as Time, tick, &mut run.acct, None);
            flush(&mut server, events, &mut run.acct);
        }
        run.setup_s = started.elapsed().as_secs_f64();
        let tenants = server.tenants();
        let open_ticks = spec.open_ticks.min(ticks.len());
        let period = Duration::from_micros(spec.tick_period_us);
        let samples = open_loop(&mut WallClock::new(), period, open_ticks, |i, clock| {
            let tick = ticks.next().expect("open_ticks within the stream");
            let t = (stream.warmup + i) as Time;
            let events = submit(&mut server, t, tick, &mut run.acct, None);
            flush(&mut server, events, &mut run.acct);
            let done = clock.now();
            let sweep = Instant::now();
            for &tenant in &tenants {
                std::hint::black_box(server.query(tenant));
            }
            run.read_s
                .push(sweep.elapsed().as_secs_f64() / tenants.len().max(1) as f64);
            done
        });
        run.late_s = samples.iter().map(|s| s.late.as_secs_f64()).collect();
        run.latency_s = samples.iter().map(|s| s.latency.as_secs_f64()).collect();
    });
    run
}

/// The recovery drill's outcome.
#[derive(Clone, Debug, Default)]
pub struct RecoverRun {
    /// `Server::recover` plus the catch-up replay to the end, seconds.
    pub recover_s: f64,
    /// Tenants restored from a checkpoint chain.
    pub restored: usize,
    /// Tenants recovery quarantined (must be none).
    pub quarantined: usize,
    /// First tick the catch-up replay sent.
    pub resume_tick: usize,
    /// Accounting of the catch-up replay.
    pub acct: Accounting,
    /// Events the idempotent replay guard skipped.
    pub skipped_events: u64,
    /// Final published state of every tenant.
    pub finals: Vec<Fingerprint>,
    /// Tenants whose restored watermark is their last tick: the replay
    /// stepped them no further, so they still publish the provisional
    /// snapshot recovery built from `TrackerEngine::query`.
    pub provisional: Vec<TenantId>,
}

/// Times `Server::recover` on the checkpoints a dropped server left in
/// `dir`, plus the front-end's replay from the lowest restored watermark
/// to the end of the stream. Empties `dir` afterwards.
pub fn drill<T: Engine>(spec: &Spec, stream: &Stream, dir: &Path, threads: usize) -> RecoverRun {
    let tenants = stream.tenants();
    let replay: Vec<Tick> = stream.ticks.clone();
    let mut run = RecoverRun::default();
    exec::with_threads(threads, || {
        let started = Instant::now();
        let (mut server, report) =
            Server::<T>::recover(serve_config(spec, dir)).expect("checkpointing workload");
        let restored: Vec<Option<Time>> = tenants.iter().map(|&t| server.last_t(t)).collect();
        let resume = restored
            .iter()
            .map(|t| t.map_or(0, |t| t as usize + 1))
            .min()
            .unwrap_or(0);
        for (i, tick) in replay.into_iter().enumerate().skip(resume) {
            let events = submit(&mut server, i as Time, tick, &mut run.acct, None);
            match server.flush() {
                Ok(r) => {
                    run.acct.applied += r.events;
                    run.acct.unapplied += r.unapplied_events();
                    run.skipped_events += r.skipped_events;
                }
                Err(_) => run.acct.errored += events,
            }
        }
        run.recover_s = started.elapsed().as_secs_f64();
        run.restored = report.recovered.len();
        run.quarantined = report.quarantined.len();
        run.resume_tick = resume;
        run.finals = fingerprints(&server);
        run.provisional = tenants
            .iter()
            .zip(&restored)
            .filter(|&(&tenant, &t)| t.is_some() && server.last_t(tenant) == t)
            .map(|(&tenant, _)| tenant)
            .collect();
    });
    fresh_dir(dir);
    run
}

/// One checkpoint save of the persist probe.
#[derive(Clone, Copy, Debug)]
pub struct SaveSample {
    /// `CheckpointChain::save`, seconds.
    pub save_s: f64,
    /// The same snapshot encoded in memory with no IO, seconds.
    pub encode_s: f64,
    /// File size.
    pub bytes: u64,
    /// Whether the save was a delta.
    pub delta: bool,
}

/// The dedicated replay of every tenant, each on its own tracker.
#[derive(Clone, Debug, Default)]
pub struct Dedicated {
    /// Final state per tenant, ascending: the last step's solution.
    pub finals: Vec<Fingerprint>,
    /// Tracker steps.
    pub steps: u64,
    /// Events fed.
    pub events: u64,
    /// Oracle calls billed, summed over tenants.
    pub oracle_calls: u64,
    /// Σ `solution.value` over every step.
    pub value_sum: f64,
    /// Σ live instances after every step.
    pub instances_sum: u64,
    /// `step` wall time per call, seconds.
    pub step_s: Vec<f64>,
    /// Spread-engine tallies, summed over tenants.
    pub spread: SpreadStatsSnapshot,
    /// Persist probe saves (empty without the probe).
    pub saves: Vec<SaveSample>,
    /// Persist probe: `load_checkpoint` of each tenant's newest link,
    /// seconds.
    pub restore_s: Vec<f64>,
    /// Persist probe: every in-memory encode matched its file and every
    /// restore matched the state it saved.
    pub probe_ok: bool,
}

struct TenantReplay {
    last: Fingerprint,
    steps: u64,
    events: u64,
    value_sum: f64,
    instances_sum: u64,
    step_s: Vec<f64>,
    spread: SpreadStatsSnapshot,
    saves: Vec<SaveSample>,
    restore_s: Option<f64>,
    probe_ok: bool,
}

fn replay_tenant<T: Engine>(
    spec: &Spec,
    (tenant, batches): &TenantStream,
    probe_dir: Option<&Path>,
) -> TenantReplay {
    let cfg = spec.tracker_config();
    let mut engine = T::from_config(&cfg);
    let mut chain = probe_dir.map(|dir| CheckpointChain::new(dir, format!("tenant-{tenant:016x}")));
    let cadence = spec.probe_cadence();
    let mut since_save = 0u64;
    // In-memory encode chain mirroring the file chain: (parent index, id).
    let mut parent: Option<(codec::ParentIndex, u64)> = None;
    // (step, oracle calls) the newest saved link must restore to.
    let mut saved_at: Option<(u64, u64)> = None;
    let mut out = TenantReplay {
        last: (*tenant, None, Solution::empty(), 0),
        steps: 0,
        events: 0,
        value_sum: 0.0,
        instances_sum: 0,
        step_s: Vec::with_capacity(batches.len()),
        spread: SpreadStatsSnapshot::default(),
        saves: Vec::new(),
        restore_s: None,
        probe_ok: true,
    };
    let mut solution = Solution::empty();
    for (t, edges) in batches {
        let started = Instant::now();
        solution = engine.step(*t, edges);
        out.step_s.push(started.elapsed().as_secs_f64());
        out.steps += 1;
        out.events += edges.len() as u64;
        out.value_sum += solution.value as f64;
        out.instances_sum += engine.instance_count() as u64;
        out.last.1 = Some(*t);
        let Some(chain) = chain.as_mut() else {
            continue;
        };
        since_save += 1;
        if since_save < cadence {
            continue;
        }
        since_save = 0;
        let step = t + 1;
        let started = Instant::now();
        let receipt = chain.save(&engine, &cfg, step);
        let save_s = started.elapsed().as_secs_f64();
        let Ok(receipt) = receipt else {
            out.probe_ok = false;
            continue;
        };
        let delta = receipt.kind == SnapshotKind::Delta;
        let started = Instant::now();
        let (bytes, index, id) = match (&parent, delta) {
            (Some((index, id)), true) => checkpoint_delta_to_vec(&engine, &cfg, step, index, *id),
            _ => checkpoint_base_to_vec(&engine, &cfg, step),
        };
        let encode_s = started.elapsed().as_secs_f64();
        out.probe_ok &= bytes.len() as u64 == receipt.bytes && id == receipt.snapshot_id;
        parent = Some((index, id));
        saved_at = Some((step, engine.oracle_calls()));
        out.saves.push(SaveSample {
            save_s,
            encode_s,
            bytes: receipt.bytes,
            delta,
        });
    }
    if let (Some(chain), Some((step, calls))) = (chain.as_ref(), saved_at) {
        match chain.latest_path() {
            Ok(Some(path)) => {
                let started = Instant::now();
                let restored = load_checkpoint::<T>(&path, &cfg);
                out.restore_s = Some(started.elapsed().as_secs_f64());
                out.probe_ok &=
                    matches!(restored, Ok((s, ref r)) if s == step && r.oracle_calls() == calls);
            }
            _ => out.probe_ok = false,
        }
    }
    out.last.2 = solution;
    out.last.3 = engine.oracle_calls();
    out.spread = engine.spread();
    out
}

/// Replays every tenant's standalone stream into a dedicated tracker,
/// tenants spread over `threads` workers. With `probe_dir`, each tracker
/// also saves a checkpoint chain at the probe cadence, and its newest link
/// is restored at the end.
pub fn dedicated<T: Engine>(
    spec: &Spec,
    streams: &[TenantStream],
    threads: usize,
    probe_dir: Option<&Path>,
) -> Dedicated {
    if let Some(dir) = probe_dir {
        fresh_dir(dir);
    }
    let per_tenant = exec::with_threads(threads, || {
        exec::par_map_steal(streams, |s| replay_tenant::<T>(spec, s, probe_dir))
    });
    if let Some(dir) = probe_dir {
        fresh_dir(dir);
    }
    let mut out = Dedicated {
        probe_ok: true,
        ..Dedicated::default()
    };
    for r in per_tenant {
        out.oracle_calls += r.last.3;
        out.finals.push(r.last);
        out.steps += r.steps;
        out.events += r.events;
        out.value_sum += r.value_sum;
        out.instances_sum += r.instances_sum;
        out.step_s.extend(r.step_s);
        add_spread(&mut out.spread, &r.spread);
        out.saves.extend(r.saves);
        out.restore_s.extend(r.restore_s);
        out.probe_ok &= r.probe_ok;
    }
    out
}

fn add_spread(total: &mut SpreadStatsSnapshot, s: &SpreadStatsSnapshot) {
    total.redundant_edges += s.redundant_edges;
    total.sink_delta_edges += s.sink_delta_edges;
    total.novel_edges += s.novel_edges;
    total.probe_budget_exhausted += s.probe_budget_exhausted;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.patched_batches += s.patched_batches;
    total.rebuilt_batches += s.rebuilt_batches;
    total.shed_memo += s.shed_memo;
    total.shed_arena += s.shed_arena;
    total.shed_fallback += s.shed_fallback;
}

/// The graph probe: per-edge `add_edge` and per-tick `advance_to` times of
/// every tenant's stream replayed into a standalone `TdnGraph`.
#[derive(Clone, Debug, Default)]
pub struct GraphProbe {
    /// Per batch: insert time divided by the batch's edges, seconds.
    pub insert_s: Vec<f64>,
    /// Per batch: `advance_to` time, seconds.
    pub advance_s: Vec<f64>,
}

/// Replays each tenant's stream into its own `TdnGraph`, serially.
pub fn graph_probe(streams: &[TenantStream]) -> GraphProbe {
    let mut probe = GraphProbe::default();
    for (_, batches) in streams {
        let mut graph = TdnGraph::new();
        for (t, edges) in batches {
            let started = Instant::now();
            graph.advance_to(*t);
            probe.advance_s.push(started.elapsed().as_secs_f64());
            let started = Instant::now();
            for e in edges {
                graph.add_edge(e.src, e.dst, e.lifetime);
            }
            probe
                .insert_s
                .push(started.elapsed().as_secs_f64() / edges.len().max(1) as f64);
        }
        std::hint::black_box(graph.edge_count());
    }
    probe
}

/// Events per shard under the server's routing hash.
pub fn shard_events<T: Engine>(spec: &Spec, stream: &Stream) -> Vec<u64> {
    let server =
        Server::<T>::new(ServeConfig::new(SHARDS, spec.tracker_config())).expect("SHARDS > 0");
    let mut per_shard = vec![0u64; SHARDS];
    for tick in &stream.ticks {
        for (tenant, edges) in tick {
            per_shard[server.shard_of(*tenant)] += edges.len() as u64;
        }
    }
    per_shard
}

/// Sums the accounting of several passes.
pub fn total_accounting<'a>(parts: impl IntoIterator<Item = &'a Accounting>) -> Accounting {
    let mut total = Accounting::default();
    for part in parts {
        total.absorb(part);
    }
    total
}
