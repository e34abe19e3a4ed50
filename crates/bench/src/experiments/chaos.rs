//! Chaos experiment: seeded fault storms against the serving layer, with
//! supervised recovery — the deterministic chaos engine's end-to-end
//! certification run.
//!
//! Five sections:
//!
//! 1. **Reference run** — the chaos firehose through a fault-free server;
//!    its per-tenant fingerprints are ground truth.
//! 2. **Fault storm** — the same firehose through a server armed with a
//!    seeded [`FaultPlan`]: checkpoint I/O errors (EIO / ENOSPC), torn
//!    writes, rename failures, injected worker panics, and driver-rolled
//!    **crash points** (the server is dropped and recovered from disk
//!    mid-stream). A supervisor loop revives quarantined tenants and
//!    replays their streams; bounded queues push back on the front-end
//!    (reject-newest, flush-and-resubmit). Write-path availability and
//!    repair latency are sampled throughout.
//! 3. **Determinism** — the *entire storm* is run twice; the canonical
//!    fault traces and final fingerprints must be byte-identical.
//! 4. **Overload** — a drop-oldest run with tiny queues; every shed
//!    event must be accounted (lossless-or-accounted invariant).
//! 5. **Gates** — ≥ [`Scale::chaos_min_faults`] injected faults across
//!    ≥ 4 site kinds, **zero escaped panics**, and every tenant
//!    bit-identical to the reference after supervised repair (or
//!    explicitly quarantined with a typed reason). Any violation exits
//!    non-zero via [`ensure`].

use crate::checks::ensure;
use crate::report::{in_scratch_dir, obj, percentile, print_table, write_bench, Json};
use crate::scale::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tdn_core::{SieveAdnTracker, Solution, TrackerConfig};
use tdn_faults::{silence_injected_panics, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
use tdn_graph::Time;
use tdn_serve::{FlushReport, RetryPolicy, ServeConfig, ServeError, Server, ShedPolicy, TenantId};
use tdn_streams::{TenantWorkload, TenantWorkloadConfig, TimedEdge};

const SHARDS: usize = 4;
const K: usize = 8;
const SIEVE_EPS: f64 = 0.25;
const NODES: u32 = 200;
const MAX_LIFETIME: u32 = 10;
/// Injection rates per 10k rolls: the four retryable I/O kinds.
const IO_RATE: u32 = 800;
/// Injection rate per 10k batches for worker panics.
const PANIC_RATE: u32 = 150;
/// Injection rate per 10k ticks for crash points.
const CRASH_RATE: u32 = 200;
/// Fires allowed per (kind, scope) site; bounds the storm so bounded
/// retry always terminates.
const MAX_PER_SITE: u32 = 2;
/// Pending-batch cap per shard in the storm (reject-newest).
const QUEUE_CAP: usize = 4;
/// Supervised-repair rounds allowed after the stream ends.
const FINAL_REPAIR_ROUNDS: usize = 8;

fn workload(scale: &Scale) -> TenantWorkload {
    TenantWorkload::new(TenantWorkloadConfig {
        tenants: scale.chaos_tenants,
        ticks: scale.chaos_ticks,
        events_per_tick: scale.chaos_events_per_tick,
        tenant_zipf: 0.9,
        nodes: NODES,
        node_zipf: 1.0,
        max_lifetime: MAX_LIFETIME,
        seed: scale.seed ^ 0xC4A0_5000,
    })
}

/// Tick `t`'s non-empty batches in rotating tenant order, matching
/// `TenantWorkload::interleaved`.
fn tick_batches(
    w: &TenantWorkload,
    t: Time,
) -> impl Iterator<Item = (TenantId, Vec<TimedEdge>)> + '_ {
    let tenants = w.config().tenants as u64;
    (0..tenants)
        .map(move |slot| (slot + t) % tenants)
        .map(move |tenant| (tenant, w.batch_at(tenant as u32, t)))
        .filter(|(_, edges)| !edges.is_empty())
}

fn tracker_cfg() -> TrackerConfig {
    TrackerConfig::new(K, SIEVE_EPS, MAX_LIFETIME)
}

fn plan_cfg(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig::new(seed)
        .with_rate(FaultKind::IoError, IO_RATE)
        .with_rate(FaultKind::DiskFull, IO_RATE)
        .with_rate(FaultKind::TornWrite, IO_RATE)
        .with_rate(FaultKind::RenameFail, IO_RATE)
        .with_rate(FaultKind::WorkerPanic, PANIC_RATE)
        .with_rate(FaultKind::Crash, CRASH_RATE)
        .with_max_per_site(MAX_PER_SITE)
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

type Fingerprint = (TenantId, Option<Time>, Solution, u64);

fn fingerprints(server: &Server<SieveAdnTracker>) -> Vec<Fingerprint> {
    server
        .tenants()
        .into_iter()
        .map(|tenant| {
            let snap = server.query(tenant).expect("tenant provisioned");
            (tenant, snap.t, snap.solution.clone(), snap.oracle_calls)
        })
        .collect()
}

/// Everything one storm run produces (compared across the two runs for
/// the determinism gate).
struct StormOutcome {
    trace: Vec<FaultEvent>,
    counts_by_kind: [u64; 6],
    injected: u64,
    rolls: u64,
    fingerprints: Vec<Fingerprint>,
    report: FlushReport,
    escaped_panics: u64,
    crashes: u64,
    revives: u64,
    resubmissions: u64,
    stale_tmp_removed: u64,
    recovery_quarantined: u64,
    availability: Vec<f64>,
    repair_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    /// Tenants still quarantined after the final repair rounds, with
    /// their typed reason tags.
    unrepaired: Vec<(TenantId, String)>,
}

/// The supervisor-facing driver: runs the full chaos storm once.
///
/// Every flush runs under `catch_unwind` purely to *count* escaped
/// panics — the serving layer's own `catch_unwind` must make that count
/// zero (the gate).
fn storm_run(scale: &Scale, seed: u64, dir: &Path) -> std::io::Result<StormOutcome> {
    let w = workload(scale);
    let ticks = scale.chaos_ticks;
    let plan = Arc::new(FaultPlan::new(plan_cfg(seed)));
    // Retry budget must exceed the worst consecutive-failure run a site
    // cap allows (4 I/O kinds × MAX_PER_SITE fires), or a fault storm
    // could quarantine via exhaustion alone and mask real differences.
    let cfg = ServeConfig::new(SHARDS, tracker_cfg())
        .with_checkpoints(dir, 2)
        .with_queue_limit(QUEUE_CAP, ShedPolicy::RejectNewest)
        .with_retry(RetryPolicy {
            max_attempts: 4 * MAX_PER_SITE + 4,
            base_backoff_ticks: 1,
        })
        .with_faults(Arc::clone(&plan));

    let mut server = Server::<SieveAdnTracker>::new(cfg.clone()).map_err(io_err)?;
    let mut out = StormOutcome {
        trace: Vec::new(),
        counts_by_kind: [0; 6],
        injected: 0,
        rolls: 0,
        fingerprints: Vec::new(),
        report: FlushReport::default(),
        escaped_panics: 0,
        crashes: 0,
        revives: 0,
        resubmissions: 0,
        stale_tmp_removed: 0,
        recovery_quarantined: 0,
        availability: Vec::new(),
        repair_ms: Vec::new(),
        recover_ms: Vec::new(),
        unrepaired: Vec::new(),
    };

    // Submits one batch, flushing and resubmitting on backpressure — the
    // lossless reject-newest discipline (the rejected data rides back in
    // the error).
    fn submit_lossless(
        server: &mut Server<SieveAdnTracker>,
        tenant: TenantId,
        t: Time,
        edges: Vec<TimedEdge>,
        out: &mut StormOutcome,
    ) -> std::io::Result<()> {
        let mut edges = edges;
        loop {
            match server.submit_batch(tenant, t, edges) {
                Ok(()) => return Ok(()),
                Err(ServeError::Backpressure { edges: back, .. }) => {
                    out.resubmissions += 1;
                    flush_counted(server, out)?;
                    edges = back;
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    fn flush_counted(
        server: &mut Server<SieveAdnTracker>,
        out: &mut StormOutcome,
    ) -> std::io::Result<()> {
        match catch_unwind(AssertUnwindSafe(|| server.flush())) {
            Ok(report) => {
                out.report.merge(&report.map_err(io_err)?);
                Ok(())
            }
            Err(_) => {
                out.escaped_panics += 1;
                Err(std::io::Error::other("panic escaped Server::flush"))
            }
        }
    }

    // Revives every quarantined tenant and replays its stream through
    // `upto` (exclusive); the watermark guard drops the already-applied
    // prefix. Returns how many tenants were revived.
    fn repair_quarantined(
        server: &mut Server<SieveAdnTracker>,
        w: &TenantWorkload,
        upto: Time,
        out: &mut StormOutcome,
    ) -> std::io::Result<u64> {
        let quarantined: Vec<TenantId> = server
            .health_report()
            .quarantine_list()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        let repaired = quarantined.len() as u64;
        for tenant in quarantined {
            let started = Instant::now();
            server.revive_tenant(tenant).map_err(io_err)?;
            for t in 0..upto {
                let edges = w.batch_at(tenant as u32, t);
                if !edges.is_empty() {
                    submit_lossless(server, tenant, t, edges, out)?;
                }
            }
            flush_counted(server, out)?;
            out.revives += 1;
            out.repair_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(repaired)
    }

    for t in 0..ticks {
        for (tenant, edges) in tick_batches(&w, t) {
            submit_lossless(&mut server, tenant, t, edges, &mut out)?;
        }
        flush_counted(&mut server, &mut out)?;
        // Write-path availability sample, before the supervisor repairs.
        let health = server.health_report();
        let total = health.tenants.len().max(1);
        out.availability
            .push((total - health.quarantined) as f64 / total as f64);
        repair_quarantined(&mut server, &w, t + 1, &mut out)?;

        // Crash point: drop the server on the floor and recover from the
        // (fault-scarred) checkpoint directory.
        if plan.roll(FaultKind::Crash, t).is_some() {
            drop(server);
            let started = Instant::now();
            let (recovered, rec) =
                Server::<SieveAdnTracker>::recover(cfg.clone()).map_err(io_err)?;
            out.recover_ms.push(started.elapsed().as_secs_f64() * 1e3);
            server = recovered;
            out.crashes += 1;
            out.stale_tmp_removed += rec.stale_tmp_removed as u64;
            out.recovery_quarantined += rec.quarantined.len() as u64;
            for (tenant, _) in &rec.quarantined {
                server.revive_tenant(*tenant).map_err(io_err)?;
            }
            // At-least-once replay of the whole applied prefix, for every
            // tenant; the idempotence guard skips what survived on disk.
            for tt in 0..=t {
                for (tenant, edges) in tick_batches(&w, tt) {
                    submit_lossless(&mut server, tenant, tt, edges, &mut out)?;
                }
                flush_counted(&mut server, &mut out)?;
            }
        }
    }

    // Final supervised repair: keep reviving until the fleet is clean or
    // the round budget is spent (per-site fault caps guarantee the storm
    // runs dry, so this terminates well inside the budget).
    for _ in 0..FINAL_REPAIR_ROUNDS {
        if repair_quarantined(&mut server, &w, ticks, &mut out)? == 0 {
            break;
        }
    }
    for (tenant, reason) in server.health_report().quarantine_list() {
        out.unrepaired.push((tenant, reason.tag().to_string()));
    }

    out.trace = plan.trace();
    out.counts_by_kind = plan.counts_by_kind();
    out.injected = plan.injected() as u64;
    out.rolls = plan.rolls();
    out.fingerprints = fingerprints(&server);
    Ok(out)
}

/// Runs the chaos experiment and writes `BENCH_chaos.json`.
pub fn run(out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    silence_injected_panics();
    let w = workload(scale);
    let ticks = scale.chaos_ticks;
    let storm_seed = scale.seed ^ 0xFA17_5702;

    // ---- 1. Reference: the same firehose, no faults --------------------
    let mut reference =
        Server::<SieveAdnTracker>::new(ServeConfig::new(SHARDS, tracker_cfg())).map_err(io_err)?;
    for t in 0..ticks {
        for (tenant, edges) in tick_batches(&w, t) {
            reference
                .submit_batch(tenant, t, edges)
                .expect("unbounded queues never reject");
        }
        reference.flush().map_err(io_err)?;
    }
    let truth = fingerprints(&reference);

    // ---- 2 & 3. The storm, twice (determinism gate) --------------------
    let dir = out_dir.join("chaos_chains");
    let storm = in_scratch_dir(&dir, |dir| storm_run(scale, storm_seed, dir))?;
    let rerun = in_scratch_dir(&dir, |dir| storm_run(scale, storm_seed, dir))?;
    ensure(
        storm.trace == rerun.trace,
        "CHAOS NONDETERMINISM: same seed produced different fault traces",
    )?;
    ensure(
        storm.fingerprints == rerun.fingerprints,
        "CHAOS NONDETERMINISM: same seed produced different final states",
    )?;
    ensure(
        storm.escaped_panics == 0 && rerun.escaped_panics == 0,
        "a panic escaped the serving layer",
    )?;

    // ---- 5a. Identity: bit-identical or explicitly quarantined ---------
    let quarantined_ids: Vec<TenantId> = storm.unrepaired.iter().map(|(id, _)| *id).collect();
    let truth_by_id: std::collections::BTreeMap<TenantId, &Fingerprint> =
        truth.iter().map(|fp| (fp.0, fp)).collect();
    let mut divergent = 0u64;
    for fp in &storm.fingerprints {
        let matches = truth_by_id.get(&fp.0).is_some_and(|t| *t == fp);
        if !matches && !quarantined_ids.contains(&fp.0) {
            divergent += 1;
        }
    }
    ensure(
        divergent == 0,
        format!(
            "CHAOS IDENTITY VIOLATION: {divergent} tenants diverged from the reference \
             without being quarantined"
        ),
    )?;
    ensure(
        storm.fingerprints.len() == truth.len(),
        "storm lost or invented tenants",
    )?;

    // ---- 5b. Storm size gates ------------------------------------------
    ensure(
        storm.injected >= scale.chaos_min_faults,
        format!(
            "storm too small: {} faults < floor {}",
            storm.injected, scale.chaos_min_faults
        ),
    )?;
    let kinds_fired = storm.counts_by_kind.iter().filter(|&&c| c > 0).count();
    ensure(
        kinds_fired >= 4,
        format!("storm too narrow: only {kinds_fired} fault kinds fired"),
    )?;
    ensure(storm.crashes > 0, "no crash points fired")?;
    ensure(
        storm.report.panics > 0 && storm.report.checkpoint_failures > 0,
        "storm exercised neither panics nor checkpoint failures",
    )?;

    // ---- 4. Overload: drop-oldest accounting ---------------------------
    let mut overload = Server::<SieveAdnTracker>::new(
        ServeConfig::new(2, tracker_cfg()).with_queue_limit(2, ShedPolicy::DropOldest),
    )
    .map_err(io_err)?;
    let mut submitted = 0u64;
    let overload_ticks = ticks.min(40);
    let mut overload_report = FlushReport::default();
    for t in 0..overload_ticks {
        for (tenant, edges) in tick_batches(&w, t) {
            submitted += edges.len() as u64;
            overload
                .submit_batch(tenant, t, edges)
                .expect("drop-oldest never rejects");
        }
        if t % 4 == 3 {
            overload_report.merge(&overload.flush().map_err(io_err)?);
        }
    }
    overload_report.merge(&overload.flush().map_err(io_err)?);
    ensure(
        overload_report.shed_events > 0,
        "overload run never shed (caps too loose to test anything)",
    )?;
    ensure(
        submitted
            == overload_report.events
                + overload_report.skipped_events
                + overload_report.shed_events,
        "OVERLOAD ACCOUNTING VIOLATION: submitted events not fully accounted",
    )?;

    // ---- Report ---------------------------------------------------------
    let avail_mean =
        storm.availability.iter().sum::<f64>() / storm.availability.len().max(1) as f64;
    let avail_min = storm
        .availability
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let repair_p50 = percentile(&storm.repair_ms, 0.5);
    let repair_p99 = percentile(&storm.repair_ms, 0.99);
    let recover_p50 = percentile(&storm.recover_ms, 0.5);
    let recover_p99 = percentile(&storm.recover_ms, 0.99);

    let kind_rows: Vec<Vec<String>> = FaultKind::ALL
        .iter()
        .map(|k| {
            vec![
                k.name().to_string(),
                storm.counts_by_kind[k.tag() as usize].to_string(),
                if k.retryable() { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "chaos fault storm (fired per kind)",
        &["kind", "fired", "retryable"],
        &kind_rows,
    );
    println!(
        "chaos storm: {} faults over {} rolls ({kinds_fired} kinds), {} crashes, \
         {} revives, {} resubmissions, 0 escaped panics",
        storm.injected, storm.rolls, storm.crashes, storm.revives, storm.resubmissions,
    );
    println!(
        "chaos identity: {} tenants bit-identical, {} explicitly quarantined; \
         write availability mean {:.2}% min {:.2}%; repair p50/p99 {:.2}/{:.2} ms",
        storm.fingerprints.len() - storm.unrepaired.len(),
        storm.unrepaired.len(),
        avail_mean * 100.0,
        avail_min * 100.0,
        repair_p50,
        repair_p99,
    );

    let faults_by_kind = FaultKind::ALL
        .iter()
        .map(|k| {
            (
                k.name().to_string(),
                storm.counts_by_kind[k.tag() as usize].into(),
            )
        })
        .collect();
    let trace_head: Vec<Json> = storm
        .trace
        .iter()
        .take(8)
        .map(|e| {
            obj! {"kind": e.kind.name(), "scope": e.scope, "occurrence": e.occurrence}
        })
        .collect();
    let r = &storm.report;
    let bit_identical = storm.fingerprints.len() - storm.unrepaired.len();
    let fields = obj! {
        "workload": obj! {"tenants": w.config().tenants, "ticks": ticks,
            "events_per_tick": w.config().events_per_tick, "seed": w.config().seed},
        "config": obj! {"shards": SHARDS, "tracker": "SieveAdnTracker",
            "queue_cap": QUEUE_CAP, "storm_seed": storm_seed, "io_rate_per_10k": IO_RATE,
            "panic_rate_per_10k": PANIC_RATE, "crash_rate_per_10k": CRASH_RATE,
            "max_per_site": MAX_PER_SITE},
        "storm": obj! {"fault_events": storm.injected, "rolls": storm.rolls,
            "kinds_fired": kinds_fired, "crashes": storm.crashes, "revives": storm.revives,
            "resubmissions": storm.resubmissions, "stale_tmp_removed": storm.stale_tmp_removed,
            "recovery_quarantined": storm.recovery_quarantined,
            "escaped_panics": storm.escaped_panics},
        "faults_by_kind": Json::Obj(faults_by_kind),
        "flush_totals": obj! {"steps": r.steps, "events": r.events,
            "skipped_events": r.skipped_events, "panics": r.panics,
            "panicked_events": r.panicked_events, "quarantined_events": r.quarantined_events,
            "rejected_events": r.rejected_events, "checkpoints": r.checkpoints,
            "checkpoint_failures": r.checkpoint_failures,
            "checkpoints_deferred": r.checkpoints_deferred},
        "availability": obj! {"write_path_mean": avail_mean, "write_path_min": avail_min},
        "repair_latency_ms": obj! {"p50": repair_p50, "p99": repair_p99,
            "samples": storm.repair_ms.len()},
        "recover_latency_ms": obj! {"p50": recover_p50, "p99": recover_p99,
            "samples": storm.recover_ms.len()},
        "overload": obj! {"submitted": submitted, "applied": overload_report.events,
            "skipped": overload_report.skipped_events, "shed": overload_report.shed_events,
            "accounted": true},
        "identity": obj! {"tenants": storm.fingerprints.len(), "bit_identical": bit_identical,
            "quarantined": storm.unrepaired.len(), "bit_identical_or_quarantined": true},
        "trace": obj! {"deterministic": true, "len": storm.trace.len(), "head": trace_head},
    };
    write_bench(out_dir, "chaos", scale, fields)
}
