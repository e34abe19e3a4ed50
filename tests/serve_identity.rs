//! Backend identity: routing a multi-tenant firehose through the
//! sharded serving layer must be invisible to every tenant. For each
//! engine family, each `TDN_THREADS` ∈ {1, 4}, and each shard count
//! ∈ {1, 4}, the served solutions *and oracle tallies* must be
//! bit-identical to a dedicated single-tenant driver feeding the same
//! per-tenant stream directly — and the crash/recover/replay path must
//! land on the same state again.
//!
//! **Fault-seeded mode.** With `TDN_FAULT_SEED=<nonzero>` in the
//! environment, every served run additionally checkpoints through a
//! seeded [`FaultPlan`] storming all four *retryable* I/O sites (EIO,
//! ENOSPC, torn writes, rename failures) with a generous retry budget.
//! Retryable faults only touch the persistence path, so the served
//! fingerprints must be bit-identical to the fault-free reference — CI
//! runs this suite once with a nonzero seed to prove it.

use std::path::PathBuf;
use std::sync::Arc;
use tdn::prelude::*;

fn workload() -> TenantWorkload {
    TenantWorkload::new(TenantWorkloadConfig {
        tenants: 10,
        ticks: 30,
        events_per_tick: 7,
        tenant_zipf: 0.8,
        nodes: 120,
        node_zipf: 1.0,
        max_lifetime: 6,
        seed: 0x01DE_2019,
    })
}

fn cfg() -> TrackerConfig {
    TrackerConfig::new(2, 0.25, 6)
}

fn fault_seed() -> u64 {
    std::env::var("TDN_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Under a nonzero `TDN_FAULT_SEED`, arms the config with checkpoints to
/// a per-run scratch dir and a retryable-sites-only fault storm. The
/// retry budget (10) exceeds the worst case the storm can inject per
/// tenant (4 kinds × the default per-site cap of 2 = 8 consecutive
/// failures), so no tenant can quarantine — served answers must not
/// move.
fn maybe_faulted(cfg: ServeConfig, tag: &str) -> (ServeConfig, Option<PathBuf>) {
    let seed = fault_seed();
    if seed == 0 {
        return (cfg, None);
    }
    let dir = std::env::temp_dir().join(format!("tdn_serve_identity_faults_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = Arc::new(FaultPlan::new(FaultPlanConfig::retryable_storm(
        seed, 1_500,
    )));
    let cfg = cfg
        .with_checkpoints(&dir, 7)
        .with_retry(RetryPolicy {
            max_attempts: 10,
            base_backoff_ticks: 1,
        })
        .with_faults(plan);
    (cfg, Some(dir))
}

/// A tenant's final observable state: watermark, answer, oracle tally.
type Fingerprint = (Option<Time>, Solution, u64);

fn serve_fingerprints<T: TrackerEngine + Persist + Send>(
    shards: usize,
    threads: usize,
    label: &str,
) -> Vec<Fingerprint> {
    let (cfg, scratch) = maybe_faulted(
        ServeConfig::new(shards, cfg()),
        &format!("{label}_{shards}_{threads}"),
    );
    let out = exec::with_threads(threads, || {
        let mut server: Server<T> = Server::new(cfg.clone()).expect("config");
        for b in workload().interleaved() {
            server
                .submit_batch(b.tenant as TenantId, b.t, b.edges)
                .expect("submit");
        }
        server.flush().expect("flush");
        collect(&server)
    });
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

fn collect<T: TrackerEngine + Persist + Send>(server: &Server<T>) -> Vec<Fingerprint> {
    server
        .tenants()
        .iter()
        .map(|&tenant| {
            let snap = server.query(tenant).expect("tenant provisioned");
            (snap.t, snap.solution.clone(), snap.oracle_calls)
        })
        .collect()
}

fn direct_fingerprints<T: TrackerEngine + Persist + Send>(threads: usize) -> Vec<Fingerprint> {
    exec::with_threads(threads, || {
        let w = workload();
        (0..w.config().tenants)
            .map(|tenant| {
                let mut engine = T::from_config(&cfg());
                let mut last = None;
                for (t, batch) in w.tenant_stream(tenant) {
                    engine.step(t, &batch);
                    last = Some(t);
                }
                (last, engine.query(), engine.oracle_calls())
            })
            .collect()
    })
}

fn identity_grid<T: TrackerEngine + Persist + Send>(label: &str) {
    let reference = direct_fingerprints::<T>(1);
    for threads in [1usize, 2, 4] {
        let direct = direct_fingerprints::<T>(threads);
        assert_eq!(
            direct, reference,
            "{label}: direct run varies with TDN_THREADS={threads}"
        );
        for shards in [1usize, 4] {
            let served = serve_fingerprints::<T>(shards, threads, label);
            assert_eq!(
                served, reference,
                "{label}: served state diverged at shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn sieve_adn_served_equals_direct() {
    identity_grid::<SieveAdnTracker>("SIEVEADN");
}

#[test]
fn basic_reduction_served_equals_direct() {
    identity_grid::<BasicReduction>("BASICREDUCTION");
}

#[test]
fn hist_approx_served_equals_direct() {
    identity_grid::<HistApprox>("HISTAPPROX");
}

/// Shard migration: a 4-shard victim crashes and recovers onto 1 shard
/// (tenants land on different workers), then replays the whole stream;
/// it must land on the uninterrupted run's state, for every family.
/// Each family crashes twice: right after `checkpoint_all`, and
/// mid-cadence with per-tick flushes, so tenants lose the tail after
/// their last cadence save and replay must re-step it. Under
/// `TDN_FAULT_SEED` the victim's checkpoints are written through the
/// retryable-fault storm — torn tmp debris and missing links are exactly
/// what the tolerant recovery path must absorb.
#[test]
fn recovery_across_shard_counts_is_identical() {
    recover_across_shard_counts::<SieveAdnTracker>("SIEVEADN");
    recover_across_shard_counts::<BasicReduction>("BASICREDUCTION");
    recover_across_shard_counts::<HistApprox>("HISTAPPROX");
}

fn recover_across_shard_counts<T: TrackerEngine + Persist + Send>(label: &str) {
    let reference = serve_fingerprints::<T>(4, 1, &format!("MIGRATE_REF_{label}"));
    let all: Vec<_> = workload().interleaved().collect();
    let cut = 2 * all.len() / 3;
    for checkpoint_all in [true, false] {
        let tag = format!("MIGRATE_{label}_{checkpoint_all}");
        let dir = std::env::temp_dir().join(format!("tdn_serve_identity_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (victim_cfg, _) = maybe_faulted(ServeConfig::new(4, cfg()), &tag);
        // Fault-seeded or not, the victim checkpoints into `dir`, on a
        // cadence that does not divide the 20 ticks before the cut.
        let victim_cfg = victim_cfg.with_checkpoints(&dir, 7);
        let (cadence_saves, crashed_at) = exec::with_threads(4, || {
            let mut victim: Server<T> = Server::new(victim_cfg).expect("config");
            let mut saves = 0;
            for (i, b) in all[..cut].iter().enumerate() {
                victim
                    .submit_batch(b.tenant as TenantId, b.t, b.edges.clone())
                    .expect("submit");
                if all[i + 1].t != b.t {
                    saves += victim.flush().expect("flush").checkpoints;
                }
            }
            if checkpoint_all {
                let summary = victim.checkpoint_all().expect("checkpoint");
                assert!(summary.saved > 0, "{tag}: no chains written: {summary:?}");
            }
            // Crash: the server is dropped with un-checkpointed publications.
            let marks: Vec<_> = victim
                .tenants()
                .into_iter()
                .map(|t| (t, victim.last_t(t)))
                .collect();
            (saves, marks)
        });
        assert!(
            cadence_saves > 0,
            "{tag}: no cadence checkpoint before the crash"
        );

        let recover_cfg = ServeConfig::new(1, cfg()).with_checkpoints(&dir, 7);
        let recovered = exec::with_threads(1, || {
            let (mut server, rec) = Server::<T>::recover(recover_cfg).expect("recover");
            assert!(!server.tenants().is_empty(), "{tag}: no tenants recovered");
            assert!(
                rec.quarantined.is_empty(),
                "{tag}: atomic chain writes must never leave a corrupt link: {rec:?}"
            );
            let lost_tail = crashed_at.iter().any(|&(t, last)| server.last_t(t) < last);
            assert!(lost_tail || checkpoint_all, "{tag}: the crash lost no tail");
            for b in &all {
                server
                    .submit_batch(b.tenant as TenantId, b.t, b.edges.clone())
                    .expect("submit");
            }
            let report = server.flush().expect("replay flush");
            assert!(
                report.skipped > 0,
                "{tag}: replay never hit the idempotence guard"
            );
            collect(&server)
        });
        assert_eq!(recovered, reference, "{tag}: migrated recovery diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
