//! Hostile-checkpoint-directory sweep for [`Server::recover`].
//!
//! A serving layer recovering from disk after a crash owns whatever the
//! crash left behind: stale `.tmp` debris, truncated or bit-flipped
//! chain links, foreign files sharing the directory. Recovery must never
//! panic and never abort wholesale — damage is absorbed per tenant
//! (fall back to an older link, or quarantine the tenant with the error)
//! while every healthy tenant comes back. These tests damage a pristine
//! directory in every systematic way plus a deterministic fuzz sweep,
//! and assert recovery's report matches the damage exactly.

use std::path::{Path, PathBuf};
use tdn_core::{SieveAdnTracker, TrackerConfig};
use tdn_persist::{list_chain_links, read_manifest, SnapshotKind};
use tdn_serve::{ServeConfig, Server, TenantId};
use tdn_streams::TimedEdge;

const TENANTS: u64 = 4;
const TICKS: u64 = 10;

fn tcfg() -> TrackerConfig {
    TrackerConfig::new(2, 0.25, 8)
}

fn batch(tenant: u64, t: u64) -> Vec<TimedEdge> {
    vec![
        TimedEdge::new(
            ((tenant + t) % 6) as u32,
            ((tenant * 3 + t) % 9 + 10) as u32,
            1 + (t % 4) as u32,
        ),
        TimedEdge::new((t % 5) as u32, ((tenant + 2 * t) % 8 + 20) as u32, 3),
    ]
}

/// Runs the canonical stream into a server checkpointing into `dir`
/// (cadence 2, so every tenant leaves several chain links), then
/// checkpoints everything. Returns the pre-crash server for reference
/// snapshots.
fn seed_dir(dir: &Path) -> Server<SieveAdnTracker> {
    let cfg = ServeConfig::new(2, tcfg()).with_checkpoints(dir, 2);
    let mut server = Server::new(cfg).expect("config");
    for t in 0..TICKS {
        for tenant in 0..TENANTS {
            server
                .submit_batch(tenant, t, batch(tenant, t))
                .expect("submit");
        }
        server.flush().expect("flush");
    }
    let summary = server.checkpoint_all().expect("checkpoint_all");
    assert_eq!(summary.failed, 0);
    server
}

/// Replays the full canonical stream into `server` and flushes.
fn replay(server: &mut Server<SieveAdnTracker>) {
    for t in 0..TICKS {
        for tenant in 0..TENANTS {
            server
                .submit_batch(tenant, t, batch(tenant, t))
                .expect("submit");
        }
    }
    server.flush().expect("replay flush");
}

fn recover_cfg(dir: &Path) -> ServeConfig {
    ServeConfig::new(2, tcfg()).with_checkpoints(dir, 2)
}

/// All chain links for one tenant, oldest first.
fn links_of(dir: &Path, tenant: TenantId) -> Vec<PathBuf> {
    let prefix = format!("tenant-{tenant:016x}");
    let (links, _) = list_chain_links(dir).expect("list chain links");
    links
        .into_iter()
        .filter(|l| l.prefix == prefix)
        .map(|l| l.path)
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdn_serve_corrupt_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn clean_directory_recovers_every_tenant() {
    let dir = scratch("clean");
    let pristine = seed_dir(&dir);
    let (server, rec) = Server::<SieveAdnTracker>::recover(recover_cfg(&dir)).expect("recover");
    assert_eq!(rec.recovered.len(), TENANTS as usize);
    assert!(rec.quarantined.is_empty());
    assert_eq!(rec.fallbacks, 0);
    assert_eq!(rec.foreign_files, 0);
    assert_eq!(server.tenants(), pristine.tenants());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stray_tmp_debris_is_swept_and_counted() {
    let dir = scratch("tmp");
    seed_dir(&dir);
    // Crash debris: a torn half-written chain tmp and an unrelated tmp.
    let torn = dir.join("tenant-0000000000000001-00000099-0000000000000abc.tmp");
    let junk = dir.join("leftover.tmp");
    std::fs::write(&torn, b"half a checkpoint").unwrap();
    std::fs::write(&junk, b"").unwrap();
    let (_, rec) = Server::<SieveAdnTracker>::recover(recover_cfg(&dir)).expect("recover");
    assert_eq!(rec.stale_tmp_removed, 2);
    assert!(!torn.exists() && !junk.exists(), "debris must be gone");
    assert!(rec.quarantined.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_files_are_skipped_and_counted() {
    let dir = scratch("foreign");
    seed_dir(&dir);
    // A .tdnc whose name is not a tenant chain, plus a non-checkpoint file.
    std::fs::write(dir.join("not-a-tenant-chain.tdnc"), b"garbage").unwrap();
    std::fs::write(dir.join("notes.txt"), b"ignore me").unwrap();
    let (server, rec) = Server::<SieveAdnTracker>::recover(recover_cfg(&dir)).expect("recover");
    assert_eq!(rec.foreign_files, 1, "only the misnamed .tdnc counts");
    assert_eq!(rec.recovered.len(), TENANTS as usize);
    assert!(rec.quarantined.is_empty());
    assert_eq!(server.tenants().len(), TENANTS as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_tip_falls_back_to_an_older_link() {
    let dir = scratch("truncate");
    let pristine = seed_dir(&dir);
    let victim: TenantId = 2;
    let links = links_of(&dir, victim);
    assert!(links.len() >= 2, "seed must leave a multi-link chain");
    let tip = links.last().unwrap();
    let bytes = std::fs::read(tip).unwrap();
    std::fs::write(tip, &bytes[..bytes.len() / 3]).unwrap();

    let (mut server, rec) = Server::<SieveAdnTracker>::recover(recover_cfg(&dir)).expect("recover");
    assert!(
        rec.fallbacks >= 1,
        "the damaged tip must be skipped: {rec:?}"
    );
    assert!(rec.recovered.contains(&victim), "an older link restores");
    assert!(rec.quarantined.is_empty());
    // The fallback restored an older watermark; replay must converge.
    assert!(server.last_t(victim) < pristine.last_t(victim));
    replay(&mut server);
    for tenant in 0..TENANTS {
        assert_eq!(
            server.query(tenant).unwrap().solution,
            pristine.query(tenant).unwrap().solution,
            "tenant {tenant}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_tip_falls_back_by_checksum() {
    let dir = scratch("bitflip");
    seed_dir(&dir);
    let victim: TenantId = 1;
    let links = links_of(&dir, victim);
    let tip = links.last().unwrap();
    let mut bytes = std::fs::read(tip).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(tip, &bytes).unwrap();
    let (_, rec) = Server::<SieveAdnTracker>::recover(recover_cfg(&dir)).expect("recover");
    assert!(rec.fallbacks >= 1);
    assert!(rec.recovered.contains(&victim));
    assert!(rec.quarantined.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn renamed_parent_is_a_missing_base_and_recovery_falls_back() {
    let dir = scratch("renamed_parent");
    let pristine = seed_dir(&dir);
    // A tenant whose newest link is a delta; its parent loses the chain
    // name (a rename by hand), which hides it from the lookup by name.
    let (victim, parent_id) = (0..TENANTS)
        .find_map(|tenant| {
            let m = read_manifest(links_of(&dir, tenant).last()?).ok()?;
            (m.snapshot_kind == SnapshotKind::Delta).then_some((tenant, m.parent_id))
        })
        .expect("some tenant's newest link is a delta");
    let parent = links_of(&dir, victim)
        .into_iter()
        .find(|p| read_manifest(p).is_ok_and(|m| m.snapshot_id == parent_id))
        .expect("the parent is a link of the same chain");
    std::fs::rename(&parent, dir.join("renamed-by-hand.tdnc")).unwrap();

    let (mut server, rec) = Server::<SieveAdnTracker>::recover(recover_cfg(&dir)).expect("recover");
    assert!(
        rec.fallbacks >= 1,
        "the orphaned tip must be skipped: {rec:?}"
    );
    assert_eq!(rec.foreign_files, 1, "the renamed parent is foreign");
    assert!(rec.recovered.contains(&victim), "an older link restores");
    assert!(rec.quarantined.is_empty());
    replay(&mut server);
    assert_eq!(
        server.query(victim).unwrap().solution,
        pristine.query(victim).unwrap().solution
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_corrupt_tenant_is_quarantined_and_resettable_not_fatal() {
    let dir = scratch("quarantine");
    let pristine = seed_dir(&dir);
    let victim: TenantId = 3;
    for link in links_of(&dir, victim) {
        let mut bytes = std::fs::read(&link).unwrap();
        for b in bytes.iter_mut() {
            *b ^= 0xFF;
        }
        std::fs::write(&link, &bytes).unwrap();
    }
    let (mut server, rec) =
        Server::<SieveAdnTracker>::recover(recover_cfg(&dir)).expect("never aborts");
    assert_eq!(rec.quarantined.len(), 1);
    assert_eq!(rec.quarantined[0].0, victim);
    assert!(
        !rec.quarantined[0].1.is_empty(),
        "the report carries the restore error"
    );
    assert_eq!(rec.recovered.len(), TENANTS as usize - 1);
    assert_eq!(server.health_of(victim).unwrap().tag(), "quarantined");
    // Quarantine gates ingest for the victim only.
    server
        .submit_batch(victim, 999, batch(victim, 999))
        .expect("submit");
    let report = server.flush().expect("flush");
    assert_eq!(report.quarantined_batches, 1);
    assert_eq!(server.last_t(victim), None, "victim must not step");
    // Supervised repair: reset to fresh and replay the full stream.
    server.reset_tenant(victim);
    assert_eq!(server.health_of(victim).unwrap().tag(), "recovering");
    replay(&mut server);
    assert_eq!(server.health_of(victim).unwrap().tag(), "healthy");
    assert_eq!(
        server.query(victim).unwrap().solution,
        pristine.query(victim).unwrap().solution,
        "reset + replay must converge"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic xorshift64* for reproducible fuzz cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[test]
fn random_damage_never_panics_and_always_reports() {
    let pristine_dir = scratch("fuzz_pristine");
    seed_dir(&pristine_dir);
    let pristine: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&pristine_dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();
    let trial_dir = scratch("fuzz_trial");
    let mut rng = Rng(0x1CDE_2019_0BAD_F00D);
    for trial in 0..40 {
        let _ = std::fs::remove_dir_all(&trial_dir);
        std::fs::create_dir_all(&trial_dir).unwrap();
        for (path, bytes) in &pristine {
            std::fs::write(trial_dir.join(path.file_name().unwrap()), bytes).unwrap();
        }
        let files = links_all(&trial_dir);
        for _ in 0..=rng.below(3) {
            let target = &files[rng.below(files.len())];
            match rng.below(5) {
                0 => {
                    // Truncate to a random prefix.
                    let bytes = std::fs::read(target).unwrap();
                    let cut = rng.below(bytes.len());
                    std::fs::write(target, &bytes[..cut]).unwrap();
                }
                1 => {
                    // Flip a random byte.
                    let mut bytes = std::fs::read(target).unwrap();
                    if !bytes.is_empty() {
                        let i = rng.below(bytes.len());
                        bytes[i] ^= 1 << rng.below(8);
                        std::fs::write(target, &bytes).unwrap();
                    }
                }
                2 => {
                    std::fs::remove_file(target).unwrap();
                }
                3 => {
                    std::fs::write(trial_dir.join(format!("junk-{trial}.tmp")), b"x").unwrap();
                }
                _ => {
                    std::fs::write(trial_dir.join(format!("alien-{trial}.tdnc")), b"???").unwrap();
                }
            }
        }
        // The only acceptable outcomes: a server, with every tenant either
        // recovered or explicitly quarantined. Panics fail the harness.
        let (server, rec) = Server::<SieveAdnTracker>::recover(recover_cfg(&trial_dir))
            .unwrap_or_else(|e| panic!("trial {trial}: recover errored: {e}"));
        assert_eq!(
            rec.recovered.len() + rec.quarantined.len(),
            server.tenants().len(),
            "trial {trial}: every tenant must be classified"
        );
        for (tenant, err) in &rec.quarantined {
            assert!(
                !err.is_empty(),
                "trial {trial}: tenant {tenant} lacks a reason"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&pristine_dir);
    let _ = std::fs::remove_dir_all(&trial_dir);
}

/// Every regular file in the directory (fuzz targets).
fn links_all(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    out.sort();
    out
}
