//! # tdn-faults — deterministic fault injection for the serving stack
//!
//! Chaos testing is only useful when a failing run can be replayed: a
//! fault that appears once in a thousand schedules proves nothing and
//! debugs worse. This crate makes every injected fault a **pure function
//! of `(seed, site, occurrence)`**: a [`FaultPlan`] is seeded once, each
//! injection site asks it [`FaultPlan::roll`] with a site identity
//! (fault kind + scope, e.g. the tenant whose checkpoint is being
//! written), and the decision hashes the seed with the site identity and
//! that site's occurrence counter. Because each site's operations are
//! serial in the serving layer (per-tenant work never runs concurrently
//! with itself), occurrence counters advance identically on every run and
//! at every thread count — the full fault schedule replays exactly.
//!
//! Injection sites:
//!
//! * **I/O faults** flow through [`FaultyIo`], an adapter implementing
//!   persist's [`CheckpointIo`] trait: seeded `EIO` / `ENOSPC` write
//!   failures, torn writes (a deterministic prefix of the bytes lands in
//!   the `.tmp` file, then the write errors — leaving exactly the debris
//!   a power cut leaves), and rename failures between tmp-write and
//!   rename.
//! * **Worker panics** and **crash points** are rolled directly by the
//!   serving layer and the chaos harness ([`FaultKind::WorkerPanic`],
//!   [`FaultKind::Crash`]) — the plan only decides *whether*, the caller
//!   owns *what happens*.
//!
//! Every fired fault is recorded; [`FaultPlan::trace`] returns the full
//! record sorted by site (not by wall-clock firing order, which is
//! schedule-dependent across shard threads), so two runs with the same
//! seed produce byte-identical traces.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tdn_persist::CheckpointIo;

/// What kind of failure a site injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A file write fails with `EIO` (generic I/O error). Retryable.
    IoError,
    /// A file write fails with `ENOSPC` (disk full). Retryable.
    DiskFull,
    /// A write lands a deterministic prefix of its bytes in the `.tmp`
    /// file, then errors — the on-disk debris of a power cut. Retryable,
    /// and the torn tmp file stays behind for recovery scans to clean.
    TornWrite,
    /// The rename from `.tmp` to the final path fails with `EIO`.
    /// Retryable; the orphaned tmp is removed on the failure path.
    RenameFail,
    /// A per-shard worker panics mid-batch (simulating a tracker bug).
    /// Not retryable: the tenant's in-memory state is suspect.
    WorkerPanic,
    /// A process crash point (the harness drops the server on the floor
    /// and recovers from disk). Rolled per tick by the chaos driver.
    Crash,
}

impl FaultKind {
    /// All kinds, in trace order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::IoError,
        FaultKind::DiskFull,
        FaultKind::TornWrite,
        FaultKind::RenameFail,
        FaultKind::WorkerPanic,
        FaultKind::Crash,
    ];

    /// Stable tag used in site hashing and the JSON trace.
    pub fn tag(self) -> u8 {
        match self {
            FaultKind::IoError => 0,
            FaultKind::DiskFull => 1,
            FaultKind::TornWrite => 2,
            FaultKind::RenameFail => 3,
            FaultKind::WorkerPanic => 4,
            FaultKind::Crash => 5,
        }
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IoError => "io_error",
            FaultKind::DiskFull => "disk_full",
            FaultKind::TornWrite => "torn_write",
            FaultKind::RenameFail => "rename_fail",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::Crash => "crash",
        }
    }

    /// Whether the serving layer may retry after this fault without
    /// suspecting its in-memory state (true for the I/O kinds).
    pub fn retryable(self) -> bool {
        !matches!(self, FaultKind::WorkerPanic | FaultKind::Crash)
    }
}

/// Injection rates and limits for a [`FaultPlan`]. Rates are per 10 000
/// rolls (so `250` ≈ 2.5 % of the operations at that site kind fail).
#[derive(Clone, Debug)]
pub struct FaultPlanConfig {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Rate per 10k for each [`FaultKind`], indexed by [`FaultKind::tag`].
    pub rates_per_10k: [u32; 6],
    /// Maximum fires per (kind, scope) site; after this many, the site
    /// goes quiet. Bounds faults so bounded-retry loops terminate.
    pub max_per_site: u32,
}

impl FaultPlanConfig {
    /// A plan that injects nothing (all rates zero) — the identity plan.
    pub fn off() -> Self {
        FaultPlanConfig {
            seed: 0,
            rates_per_10k: [0; 6],
            max_per_site: 0,
        }
    }

    /// A fresh all-zero plan with the given seed; use the builders to
    /// switch on the kinds a harness wants.
    pub fn new(seed: u64) -> Self {
        FaultPlanConfig {
            seed,
            rates_per_10k: [0; 6],
            max_per_site: 2,
        }
    }

    /// Sets the rate (per 10k rolls) for one fault kind (builder form).
    pub fn with_rate(mut self, kind: FaultKind, per_10k: u32) -> Self {
        self.rates_per_10k[kind.tag() as usize] = per_10k;
        self
    }

    /// Sets the per-site fire cap (builder form).
    pub fn with_max_per_site(mut self, cap: u32) -> Self {
        self.max_per_site = cap;
        self
    }

    /// Retryable-sites-only storm: every I/O kind at `per_10k`, panics
    /// and crashes off. Under this plan a serving layer with bounded
    /// retry must still converge to bit-identical state, which is what
    /// the fault-seeded identity test asserts.
    pub fn retryable_storm(seed: u64, per_10k: u32) -> Self {
        FaultPlanConfig::new(seed)
            .with_rate(FaultKind::IoError, per_10k)
            .with_rate(FaultKind::DiskFull, per_10k)
            .with_rate(FaultKind::TornWrite, per_10k)
            .with_rate(FaultKind::RenameFail, per_10k)
    }
}

/// One injected fault: which site fired and its per-site occurrence
/// index at the time. The triple identifies the fault uniquely and
/// reproducibly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// The kind of failure injected.
    pub kind: FaultKind,
    /// Site scope — tenant id for per-tenant sites, tick for crash
    /// points; whatever the caller keys the site by.
    pub scope: u64,
    /// 0-based index of this roll among all rolls at `(kind, scope)`.
    pub occurrence: u32,
}

/// splitmix64 finalizer — the same mixer the workload generators use.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pure fault decision: does roll `occurrence` at `(kind, scope)` fire
/// under `seed` at `rate_per_10k`? Free function so tests (and the docs'
/// determinism argument) can check it independently of any plan state.
pub fn fires(seed: u64, kind: FaultKind, scope: u64, occurrence: u32, rate_per_10k: u32) -> bool {
    if rate_per_10k == 0 {
        return false;
    }
    let h = mix(seed
        ^ mix((kind.tag() as u64) << 56 | scope)
            .wrapping_add(mix(occurrence as u64 | 0xFA17 << 32)));
    (h % 10_000) < rate_per_10k as u64
}

/// A seeded, reproducible fault schedule. Sites call [`FaultPlan::roll`];
/// the plan answers deterministically and records what fired. Shared
/// across shard threads behind an [`Arc`] — the interior mutex only
/// guards counters, never the decision (which is pure).
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    /// Occurrence counters and fire counts per (kind tag, scope).
    sites: Mutex<HashMap<(u8, u64), SiteState>>,
    /// Every fault that fired (unordered; sorted on read-out).
    trace: Mutex<Vec<FaultEvent>>,
    /// Rolls made in total (cheap liveness metric for reports).
    rolls: AtomicU64,
}

#[derive(Clone, Copy, Debug, Default)]
struct SiteState {
    occurrences: u32,
    fired: u32,
}

impl FaultPlan {
    /// Builds a plan. Wrap it in an [`Arc`] to share across the server
    /// and the harness.
    pub fn new(cfg: FaultPlanConfig) -> Self {
        FaultPlan {
            cfg,
            sites: Mutex::new(HashMap::new()),
            trace: Mutex::new(Vec::new()),
            rolls: AtomicU64::new(0),
        }
    }

    /// An inert plan that never fires (and allocates no site state).
    pub fn disabled() -> Arc<Self> {
        Arc::new(FaultPlan::new(FaultPlanConfig::off()))
    }

    /// The configuration the plan runs.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    /// Asks whether the next operation at `(kind, scope)` should fail.
    /// Advances the site's occurrence counter either way; on a fire,
    /// records the event and returns it. Deterministic given the serial
    /// per-site ordering the serving layer guarantees.
    pub fn roll(&self, kind: FaultKind, scope: u64) -> Option<FaultEvent> {
        let rate = self.cfg.rates_per_10k[kind.tag() as usize];
        self.rolls.fetch_add(1, Ordering::Relaxed);
        if rate == 0 {
            return None;
        }
        let mut sites = self.sites.lock().unwrap_or_else(|e| e.into_inner());
        let site = sites.entry((kind.tag(), scope)).or_default();
        let occurrence = site.occurrences;
        site.occurrences += 1;
        if site.fired >= self.cfg.max_per_site
            || !fires(self.cfg.seed, kind, scope, occurrence, rate)
        {
            return None;
        }
        site.fired += 1;
        drop(sites);
        let event = FaultEvent {
            kind,
            scope,
            occurrence,
        };
        self.trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
        Some(event)
    }

    /// Total rolls made (fired or not).
    pub fn rolls(&self) -> u64 {
        self.rolls.load(Ordering::Relaxed)
    }

    /// Number of faults fired so far.
    pub fn injected(&self) -> usize {
        self.trace.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Every fault fired so far, sorted by `(kind, scope, occurrence)` —
    /// a canonical order independent of the thread schedule, so equal
    /// seeds yield equal traces.
    pub fn trace(&self) -> Vec<FaultEvent> {
        let mut t = self.trace.lock().unwrap_or_else(|e| e.into_inner()).clone();
        t.sort();
        t
    }

    /// Fired-fault counts per kind, indexed by [`FaultKind::tag`].
    pub fn counts_by_kind(&self) -> [u64; 6] {
        let mut counts = [0u64; 6];
        for e in self.trace.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            counts[e.kind.tag() as usize] += 1;
        }
        counts
    }

    /// Number of distinct kinds that fired at least once.
    pub fn kinds_fired(&self) -> usize {
        self.counts_by_kind().iter().filter(|&&c| c > 0).count()
    }
}

/// Installs a process-wide panic hook that swallows the default "thread
/// panicked" stderr report for **injected** panics (string payloads
/// containing `"injected"`) and defers to the previous hook for every
/// real panic. Chaos harnesses inject hundreds of panics by design; the
/// serving layer catches them all, and this keeps their noise out of the
/// harness output without hiding genuine failures. Idempotent enough for
/// harness use (stacking it twice just chains two filters).
pub fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(|s| s.contains("injected"))
            .or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.contains("injected"))
            })
            .unwrap_or(false);
        if !injected {
            prev(info);
        }
    }));
}

/// A [`CheckpointIo`] that consults a [`FaultPlan`] before every file
/// operation of one scope (typically one tenant). Non-faulted operations
/// pass through to `std::fs`.
pub struct FaultyIo {
    plan: Arc<FaultPlan>,
    scope: u64,
}

impl FaultyIo {
    /// Wraps the plan for one scope (e.g. one tenant's checkpoint chain).
    pub fn new(plan: Arc<FaultPlan>, scope: u64) -> Self {
        FaultyIo { plan, scope }
    }
}

fn eio() -> io::Error {
    io::Error::from_raw_os_error(5) // EIO
}

fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

impl CheckpointIo for FaultyIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.plan.roll(FaultKind::IoError, self.scope).is_some() {
            return Err(eio());
        }
        if self.plan.roll(FaultKind::DiskFull, self.scope).is_some() {
            return Err(enospc());
        }
        if self.plan.roll(FaultKind::TornWrite, self.scope).is_some() {
            // A deterministic prefix lands, then the "device" dies. The
            // torn file stays on disk: exactly what recovery must cope
            // with (and what stale-tmp cleanup must remove).
            let cut = bytes.len() / 2;
            std::fs::write(path, &bytes[..cut])?;
            return Err(eio());
        }
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.plan.roll(FaultKind::RenameFail, self.scope).is_some() {
            return Err(eio());
        }
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm(seed: u64) -> FaultPlan {
        FaultPlan::new(
            FaultPlanConfig::retryable_storm(seed, 2_000)
                .with_rate(FaultKind::WorkerPanic, 1_000)
                .with_max_per_site(3),
        )
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = storm(42);
        let b = storm(42);
        for scope in 0..20u64 {
            for _ in 0..10 {
                for kind in FaultKind::ALL {
                    assert_eq!(a.roll(kind, scope), b.roll(kind, scope));
                }
            }
        }
        assert_eq!(a.trace(), b.trace());
        assert!(a.injected() > 0, "a storm at these rates must fire");
    }

    #[test]
    fn different_seeds_differ() {
        let a = storm(1);
        let b = storm(2);
        for scope in 0..50u64 {
            for _ in 0..20 {
                a.roll(FaultKind::IoError, scope);
                b.roll(FaultKind::IoError, scope);
            }
        }
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn decision_is_pure_in_occurrence() {
        // Re-rolling a site replays the identical fire/no-fire sequence;
        // the order other sites are rolled in cannot matter.
        let seed = 7;
        let solo: Vec<bool> = (0..64)
            .map(|i| fires(seed, FaultKind::DiskFull, 3, i, 1_500))
            .collect();
        let plan = FaultPlan::new(
            FaultPlanConfig::new(seed)
                .with_rate(FaultKind::DiskFull, 1_500)
                .with_max_per_site(u32::MAX),
        );
        // Interleave rolls on other scopes to perturb any shared state.
        let interleaved: Vec<bool> = (0..64)
            .map(|i| {
                plan.roll(FaultKind::DiskFull, (i % 5) + 100);
                plan.roll(FaultKind::DiskFull, 3).is_some()
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn per_site_cap_bounds_fires() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(9)
                .with_rate(FaultKind::IoError, 10_000) // always fires
                .with_max_per_site(2),
        );
        let fired: usize = (0..10)
            .filter(|_| plan.roll(FaultKind::IoError, 5).is_some())
            .count();
        assert_eq!(fired, 2, "cap must stop the site after two fires");
    }

    #[test]
    fn zero_rate_never_fires_and_keeps_no_state() {
        let plan = FaultPlan::disabled();
        for scope in 0..100 {
            assert!(plan.roll(FaultKind::Crash, scope).is_none());
        }
        assert_eq!(plan.injected(), 0);
        assert_eq!(plan.rolls(), 100);
    }

    #[test]
    fn trace_is_sorted_canonically() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(3)
                .with_rate(FaultKind::IoError, 10_000)
                .with_rate(FaultKind::Crash, 10_000)
                .with_max_per_site(4),
        );
        // Roll in deliberately shuffled site order.
        for scope in [9u64, 2, 7, 2, 9, 1] {
            plan.roll(FaultKind::Crash, scope);
            plan.roll(FaultKind::IoError, scope);
        }
        let trace = plan.trace();
        let mut sorted = trace.clone();
        sorted.sort();
        assert_eq!(trace, sorted);
        assert!(plan.kinds_fired() >= 2);
    }

    #[test]
    fn torn_write_leaves_partial_tmp_and_errors() {
        let dir = std::env::temp_dir().join("tdn_faults_torn");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig::new(1).with_rate(FaultKind::TornWrite, 10_000),
        ));
        let io = FaultyIo::new(plan, 0);
        let path = dir.join("x.tmp");
        let bytes = vec![0xABu8; 100];
        let err = io.write(&path, &bytes).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert_eq!(std::fs::read(&path).unwrap().len(), 50, "torn at half");
        std::fs::remove_dir_all(&dir).ok();
    }
}
