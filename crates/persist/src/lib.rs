//! # tdn-persist — checkpoint/restore with bit-identical warm restart
//!
//! A production tracker cannot rebuild `G_t` and every SIEVEADN instance
//! from the full interaction history after a restart: the paper's point
//! (Zhao et al., ICDE 2019) is that the *state* is bounded while the
//! history is not. This crate snapshots that bounded state — graphs
//! (adjacency and expiry-bucket order verbatim), threshold ladders, sieve
//! slots, instance sets, RNG state, and oracle-call tallies — into a
//! versioned, length-prefixed binary file, and restores it so that
//! feeding the remaining stream yields **bit-identical** solutions,
//! spreads, and oracle tallies to a run that never stopped, at any
//! `TDN_THREADS` setting (the acceptance style of Yang et al.,
//! arXiv:1602.04490: a restored tracker must be indistinguishable from an
//! uninterrupted one).
//!
//! ## File format
//!
//! A [`Manifest`] header (magic, format version, tracker kind, config
//! hash, stream position, payload length, snapshot kind and lineage ids),
//! the state payload, and an FNV-1a checksum over both — see [`manifest`]
//! for the byte layout and `DESIGN.md § Persistence & recovery` for what
//! is and is not serialized. The payload is a **sectioned container**
//! (`codec::SectionWriter`): named, length-prefixed, individually
//! checksummed sections behind a table of contents, so corruption reports
//! name the failing section and unchanged sections can be elided from
//! delta checkpoints. Every tracker writes a small `meta` section plus
//! its instances and graph as sections of their own. Only the current
//! format version is read; older files fail with
//! [`PersistError::UnsupportedVersion`].
//!
//! ## Base + delta checkpoints
//!
//! A **base** snapshot is self-contained. A **delta** snapshot stores only
//! the sections that changed since its parent; a section the parent saved
//! under the same name with the same `(length, checksum)` shrinks to a
//! reference. Restoring a delta resolves the parent chain —
//! [`restore_from_chain`] for in-memory links,
//! [`load_checkpoint`] transparently walking sibling files by snapshot id.
//! [`CheckpointChain`] manages a directory of chained saves and compacts
//! (writes a fresh base) when the chain exceeds its [`CompactionPolicy`].
//! Restores fail loudly with a typed [`PersistError`] on any mismatch:
//! foreign files, other format versions, a different `TrackerConfig`,
//! truncation, bit rot, a missing base, or a cyclic chain. They never
//! panic.
//!
//! ## Panic audit (serving-layer hardening)
//!
//! Every `unwrap`/`expect`/`panic!` in this crate lives in `#[cfg(test)]`
//! code or doctests; none is reachable from the restore paths. The layers
//! below uphold the same rule: `codec::Reader` is panic-free by contract
//! (typed `CodecError` on truncation, length overflow, and domain
//! violations), section resolution returns typed `SectionError`s, and
//! every tracker decoder propagates those. The guarantee is *enforced*,
//! not just asserted: `tests/corrupt_inputs.rs` sweeps exhaustive
//! truncations and byte flips plus seeded multi-site damage, splices, and
//! foreign blobs through [`restore_from_chain`] / [`restore_from_slice`]
//! and requires a typed error — a panic anywhere in the stack fails the
//! suite.
//!
//! ## Example
//!
//! ```
//! use tdn_core::{HistApprox, InfluenceTracker, TrackerConfig};
//! use tdn_persist::{checkpoint_to_vec, restore_from_slice};
//! use tdn_streams::TimedEdge;
//!
//! let cfg = TrackerConfig::new(2, 0.1, 100);
//! let mut live = HistApprox::new(&cfg);
//! live.step(0, &[TimedEdge::new(1u32, 2u32, 5), TimedEdge::new(1u32, 3u32, 9)]);
//!
//! // Snapshot after one processed step, then "crash".
//! let bytes = checkpoint_to_vec(&live, &cfg, 1);
//!
//! // Warm restart: the restored tracker continues exactly where the
//! // interrupted one left off.
//! let (next_step, mut warm): (u64, HistApprox) =
//!     restore_from_slice(&bytes, &cfg).expect("fresh checkpoint restores");
//! assert_eq!(next_step, 1);
//! let batch = [TimedEdge::new(4u32, 1u32, 3)];
//! assert_eq!(warm.step(1, &batch), live.step(1, &batch));
//! assert_eq!(warm.oracle_calls(), live.oracle_calls());
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod io;
pub mod manifest;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tdn_core::{BasicReduction, HistApprox, RandomTracker, SieveAdnTracker, TrackerConfig};

pub use error::PersistError;
pub use io::{CheckpointIo, StdIo};
pub use manifest::{Manifest, SnapshotKind, TrackerKind, FORMAT_VERSION, MAGIC};

/// A tracker type that can be checkpointed and warm-restarted.
///
/// Implementations delegate to the tracker's own `write_sections` /
/// `read_sections` methods (which live next to the private state they
/// serialize); this trait adds the manifest kind tag so the persistence
/// layer can refuse to decode a payload into the wrong type.
pub trait Persist: Sized {
    /// Manifest tag for this tracker type.
    const KIND: TrackerKind;

    /// Emits the tracker's state as named sections into `sink`. Sections
    /// whose bytes match the sink's parent index become references
    /// automatically — that is what makes a save a *delta*.
    fn write_sections(&self, sink: &mut codec::SectionSink);

    /// Rebuilds a tracker from a resolved [`codec::SectionMap`] (a lone
    /// base container, or a fully resolved delta chain).
    fn read_sections(map: &codec::SectionMap) -> Result<Self, PersistError>;
}

impl Persist for SieveAdnTracker {
    const KIND: TrackerKind = TrackerKind::SieveAdn;

    fn write_sections(&self, sink: &mut codec::SectionSink) {
        SieveAdnTracker::write_sections(self, sink);
    }

    fn read_sections(map: &codec::SectionMap) -> Result<Self, PersistError> {
        Ok(SieveAdnTracker::read_sections(map)?)
    }
}

impl Persist for BasicReduction {
    const KIND: TrackerKind = TrackerKind::BasicReduction;

    fn write_sections(&self, sink: &mut codec::SectionSink) {
        BasicReduction::write_sections(self, sink);
    }

    fn read_sections(map: &codec::SectionMap) -> Result<Self, PersistError> {
        Ok(BasicReduction::read_sections(map)?)
    }
}

impl Persist for HistApprox {
    const KIND: TrackerKind = TrackerKind::HistApprox;

    fn write_sections(&self, sink: &mut codec::SectionSink) {
        HistApprox::write_sections(self, sink);
    }

    fn read_sections(map: &codec::SectionMap) -> Result<Self, PersistError> {
        Ok(HistApprox::read_sections(map)?)
    }
}

impl Persist for RandomTracker {
    const KIND: TrackerKind = TrackerKind::Random;

    fn write_sections(&self, sink: &mut codec::SectionSink) {
        RandomTracker::write_sections(self, sink);
    }

    fn read_sections(map: &codec::SectionMap) -> Result<Self, PersistError> {
        Ok(RandomTracker::read_sections(map)?)
    }
}

/// Fingerprints a tracker configuration (FNV-1a over its exact serialized
/// form, `ε` as raw bits). Stored in every manifest; restore compares it
/// against the caller's config and fails with
/// [`PersistError::ConfigMismatch`] on any difference — resuming sieve
/// state under different `k`/`ε`/`L` would silently change the algorithm.
/// The memory budget is deliberately excluded (operational, not logical,
/// state — see `TrackerConfig::write_snapshot`).
pub fn config_hash(cfg: &TrackerConfig) -> u64 {
    let mut w = codec::Writer::new();
    cfg.write_snapshot(&mut w);
    codec::fnv1a64(w.as_slice())
}

/// Derives a snapshot's content identity from what it contains and where
/// it sits in the chain. Deterministic (no clocks, no randomness), so the
/// same state checkpointed at the same step under the same parent gets the
/// same id on every machine.
fn snapshot_id_for(payload_checksum: u64, step: u64, parent_id: u64) -> u64 {
    let mut w = codec::Writer::new();
    w.put_u64(payload_checksum);
    w.put_u64(step);
    w.put_u64(parent_id);
    codec::fnv1a64(w.as_slice())
}

/// Wraps a finished section container in the envelope: manifest
/// header, payload, and a trailing FNV-1a checksum covering *both* (so a
/// flipped bit anywhere in the file fails the restore). Returns the bytes
/// and the content-derived snapshot id recorded in the header.
fn envelope<T: Persist>(
    cfg: &TrackerConfig,
    step: u64,
    snapshot_kind: SnapshotKind,
    parent_id: u64,
    payload: Vec<u8>,
) -> (Vec<u8>, u64) {
    let payload_checksum = codec::fnv1a64(&payload);
    let snapshot_id = snapshot_id_for(payload_checksum, step, parent_id);
    let mut w = codec::Writer::new();
    Manifest {
        format_version: FORMAT_VERSION,
        kind: T::KIND,
        config_hash: config_hash(cfg),
        step,
        payload_len: payload.len() as u64,
        snapshot_kind,
        snapshot_id,
        parent_id,
    }
    .write(&mut w);
    let mut bytes = w.into_vec();
    bytes.extend_from_slice(&payload);
    let file_checksum = codec::fnv1a64(&bytes);
    bytes.extend_from_slice(&file_checksum.to_le_bytes());
    (bytes, snapshot_id)
}

/// Serializes a self-contained base checkpoint into memory: manifest
/// header, sectioned state payload, checksum. `step` is the stream
/// position — the number of steps the tracker has already processed
/// (feeding resumes at that index).
pub fn checkpoint_to_vec<T: Persist>(tracker: &T, cfg: &TrackerConfig, step: u64) -> Vec<u8> {
    checkpoint_base_to_vec(tracker, cfg, step).0
}

/// Like [`checkpoint_to_vec`], but also returns the [`codec::ParentIndex`]
/// describing every section written (for a later
/// [`checkpoint_delta_to_vec`]) and the snapshot id recorded in the
/// header.
pub fn checkpoint_base_to_vec<T: Persist>(
    tracker: &T,
    cfg: &TrackerConfig,
    step: u64,
) -> (Vec<u8>, codec::ParentIndex, u64) {
    let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
    tracker.write_sections(&mut sink);
    let (payload, next) = sink.finish();
    let (bytes, snapshot_id) = envelope::<T>(cfg, step, SnapshotKind::Base, 0, payload);
    (bytes, next, snapshot_id)
}

/// Serializes a delta checkpoint: sections the parent saved under the same
/// name with the same byte checksum are stored as references, everything
/// else inline. `parent` and `parent_id` come from
/// the previous [`checkpoint_base_to_vec`] / `checkpoint_delta_to_vec`
/// call. Returns the bytes, the index for the *next* delta, and this
/// snapshot's id.
pub fn checkpoint_delta_to_vec<T: Persist>(
    tracker: &T,
    cfg: &TrackerConfig,
    step: u64,
    parent: &codec::ParentIndex,
    parent_id: u64,
) -> (Vec<u8>, codec::ParentIndex, u64) {
    let mut sink = codec::SectionSink::new(parent.clone());
    tracker.write_sections(&mut sink);
    let (payload, next) = sink.finish();
    let (bytes, snapshot_id) = envelope::<T>(cfg, step, SnapshotKind::Delta, parent_id, payload);
    (bytes, next, snapshot_id)
}

/// Validates everything that can be checked without touching tracker
/// state: magic, version, kind tag, config hash, payload bounds, and the
/// envelope checksum. Returns the parsed manifest and the payload slice.
fn validate_envelope<'a, T: Persist>(
    bytes: &'a [u8],
    cfg: &TrackerConfig,
) -> Result<(Manifest, &'a [u8]), PersistError> {
    let mut r = codec::Reader::new(bytes);
    let manifest = Manifest::read(&mut r)?;
    if manifest.kind != T::KIND {
        return Err(PersistError::WrongTracker {
            expected: T::KIND,
            found: manifest.kind as u8,
        });
    }
    let expected_hash = config_hash(cfg);
    if manifest.config_hash != expected_hash {
        return Err(PersistError::ConfigMismatch {
            expected: expected_hash,
            found: manifest.config_hash,
        });
    }
    // Subtract instead of `payload_len + 8`: a corrupt header near
    // u64::MAX would overflow the addition (a panic in debug builds, a
    // wrapped — and therefore passing — bound in release).
    if (r.remaining() as u64).saturating_sub(8) < manifest.payload_len {
        return Err(PersistError::Corrupt(codec::CodecError::Truncated {
            needed: manifest
                .payload_len
                .saturating_add(8)
                .min(usize::MAX as u64) as usize,
            remaining: r.remaining(),
        }));
    }
    let header_len = bytes.len() - r.remaining();
    let payload_len = manifest.payload_len as usize;
    let payload = &bytes[header_len..header_len + payload_len];
    let mut tail = codec::Reader::new(&bytes[header_len + payload_len..]);
    let stored_checksum = tail.get_u64()?;
    tail.finish()?;
    if codec::fnv1a64(&bytes[..header_len + payload_len]) != stored_checksum {
        return Err(PersistError::ChecksumMismatch { section: None });
    }
    Ok((manifest, payload))
}

/// Restores a tracker from in-memory checkpoint bytes, verifying magic,
/// version, tracker kind, config hash, payload length, and checksum before
/// decoding. A delta fails with [`PersistError::MissingBase`] — resolve
/// its parents first and use [`restore_from_chain`], or go through
/// [`load_checkpoint`] which does so automatically. Returns the stream
/// position alongside the tracker.
pub fn restore_from_slice<T: Persist>(
    bytes: &[u8],
    cfg: &TrackerConfig,
) -> Result<(u64, T), PersistError> {
    let (manifest, payload) = validate_envelope::<T>(bytes, cfg)?;
    match manifest.snapshot_kind {
        SnapshotKind::Delta => Err(PersistError::MissingBase {
            snapshot_id: manifest.parent_id,
        }),
        SnapshotKind::Base => {
            let map = codec::SectionMap::from_single(payload)?;
            Ok((manifest.step, T::read_sections(&map)?))
        }
    }
}

/// Restores a tracker from an explicit delta chain, ordered tip first:
/// `links[0]` is the snapshot to restore, each following link is its
/// parent, and the last link must be a base. Every envelope is validated
/// (kind, config, checksum) and the parent-id linkage is checked before
/// sections are resolved; a broken link fails with
/// [`PersistError::MissingBase`], a repeated snapshot id with
/// [`PersistError::ChainCycle`].
pub fn restore_from_chain<T: Persist>(
    links: &[&[u8]],
    cfg: &TrackerConfig,
) -> Result<(u64, T), PersistError> {
    let first = links
        .first()
        .ok_or(PersistError::Corrupt(codec::CodecError::Invalid(
            "empty checkpoint chain",
        )))?;
    if links.len() == 1 {
        return restore_from_slice(first, cfg);
    }
    let mut payloads: Vec<&[u8]> = Vec::with_capacity(links.len());
    let mut tip_step = 0u64;
    let mut expected_parent = 0u64;
    let mut seen = HashSet::new();
    for (i, bytes) in links.iter().enumerate() {
        let (m, payload) = validate_envelope::<T>(bytes, cfg)?;
        if i == 0 {
            tip_step = m.step;
        } else if m.snapshot_id != expected_parent {
            return Err(PersistError::MissingBase {
                snapshot_id: expected_parent,
            });
        }
        if !seen.insert(m.snapshot_id) {
            return Err(PersistError::ChainCycle {
                snapshot_id: m.snapshot_id,
            });
        }
        let last = i + 1 == links.len();
        match m.snapshot_kind {
            SnapshotKind::Base if !last => {
                return Err(PersistError::Corrupt(codec::CodecError::Invalid(
                    "base snapshot must terminate the chain",
                )));
            }
            SnapshotKind::Delta if last => {
                return Err(PersistError::MissingBase {
                    snapshot_id: m.parent_id,
                });
            }
            _ => {}
        }
        expected_parent = m.parent_id;
        payloads.push(payload);
    }
    let map = codec::SectionMap::resolve(&payloads)?;
    Ok((tip_step, T::read_sections(&map)?))
}

/// Parses just the manifest from in-memory checkpoint bytes (no payload
/// decoding — cheap inspection of what a file holds).
pub fn peek_manifest(bytes: &[u8]) -> Result<Manifest, PersistError> {
    Manifest::read(&mut codec::Reader::new(bytes))
}

/// Writes a self-contained base checkpoint file. The write is
/// atomic-by-rename: bytes land in `<path>.tmp` first, so a crash
/// mid-write cannot leave a half-written file at the final path (it would
/// fail the checksum anyway, but the previous good checkpoint survives).
pub fn save_checkpoint<T: Persist>(
    path: &Path,
    tracker: &T,
    cfg: &TrackerConfig,
    step: u64,
) -> Result<(), PersistError> {
    save_checkpoint_with(&StdIo, path, tracker, cfg, step)
}

/// [`save_checkpoint`] through an explicit [`CheckpointIo`] — the entry
/// point fault-injection harnesses use to make the tmp write, the rename,
/// or both fail deterministically.
pub fn save_checkpoint_with<T: Persist>(
    io: &dyn CheckpointIo,
    path: &Path,
    tracker: &T,
    cfg: &TrackerConfig,
    step: u64,
) -> Result<(), PersistError> {
    let bytes = checkpoint_to_vec(tracker, cfg, step);
    write_atomic_with(io, path, &bytes)
}

/// Atomic-by-rename write through a [`CheckpointIo`]: bytes land in
/// `<path>.tmp` first, then rename into place. If the rename fails the
/// orphaned tmp file is best-effort removed (an injected or real rename
/// failure must not leave debris that a later recovery scan has to clean);
/// a *crash* between write and rename still can, which is exactly what
/// [`clean_stale_tmp`] and `Server::recover` handle.
pub fn write_atomic_with(
    io: &dyn CheckpointIo,
    path: &Path,
    bytes: &[u8],
) -> Result<(), PersistError> {
    let tmp = path.with_extension("tmp");
    io.write(&tmp, bytes)?;
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Removes stale `*.tmp` debris left in `dir` by crashes between a
/// checkpoint's tmp write and its rename. When `prefix` is given, only
/// files named `{prefix}-*.tmp` are touched (so concurrent chains sharing
/// a directory never clean each other's in-flight writes); `None` sweeps
/// the whole directory and is only safe when no writer is active (e.g.
/// during `Server::recover`). Returns the removed paths, sorted. A missing
/// directory is not an error — there is nothing to clean.
pub fn clean_stale_tmp(dir: &Path, prefix: Option<&str>) -> Result<Vec<PathBuf>, PersistError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let want_prefix = prefix.map(|p| format!("{p}-"));
    let mut removed = Vec::new();
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(".tmp") || !path.is_file() {
            continue;
        }
        if let Some(p) = &want_prefix {
            if !name.starts_with(p.as_str()) {
                continue;
            }
        }
        std::fs::remove_file(&path)?;
        removed.push(path);
    }
    removed.sort();
    Ok(removed)
}

/// Reads and restores a checkpoint file. A base restores directly; a delta
/// triggers chain resolution — sibling files with the same extension are
/// scanned for each required parent snapshot id until a base is reached.
/// A parent that cannot be found fails with [`PersistError::MissingBase`];
/// parent links that revisit a snapshot id fail with
/// [`PersistError::ChainCycle`].
pub fn load_checkpoint<T: Persist>(
    path: &Path,
    cfg: &TrackerConfig,
) -> Result<(u64, T), PersistError> {
    let tip = std::fs::read(path)?;
    let manifest = peek_manifest(&tip)?;
    if manifest.snapshot_kind == SnapshotKind::Base {
        return restore_from_slice(&tip, cfg);
    }
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let ext = path.extension().map(|e| e.to_os_string());
    let mut links: Vec<Vec<u8>> = vec![tip];
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(manifest.snapshot_id);
    let mut need = manifest.parent_id;
    loop {
        if need == 0 {
            // A delta without a parent id is structurally corrupt; surface
            // it as the missing-base it effectively is.
            return Err(PersistError::MissingBase { snapshot_id: 0 });
        }
        if !seen.insert(need) {
            return Err(PersistError::ChainCycle { snapshot_id: need });
        }
        let parent = find_snapshot_in_dir(&dir, ext.as_deref(), need)?
            .ok_or(PersistError::MissingBase { snapshot_id: need })?;
        let pm = peek_manifest(&parent)?;
        let is_base = pm.snapshot_kind == SnapshotKind::Base;
        need = pm.parent_id;
        links.push(parent);
        if is_base {
            break;
        }
    }
    let refs: Vec<&[u8]> = links.iter().map(Vec::as_slice).collect();
    restore_from_chain(&refs, cfg)
}

/// Scans `dir` for a checkpoint file (matching `ext`, if the tip had an
/// extension) whose manifest records `snapshot_id`. Non-checkpoint files
/// and unreadable manifests are skipped, not errors — checkpoint
/// directories may hold logs, tmp files, or foreign data.
fn find_snapshot_in_dir(
    dir: &Path,
    ext: Option<&std::ffi::OsStr>,
    snapshot_id: u64,
) -> Result<Option<Vec<u8>>, PersistError> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_file() || path.extension() != ext {
            continue;
        }
        let Ok(m) = read_manifest(&path) else {
            continue;
        };
        if m.snapshot_id == snapshot_id {
            return Ok(Some(std::fs::read(&path)?));
        }
    }
    Ok(None)
}

/// Reads just the manifest of a checkpoint file.
pub fn read_manifest(path: &Path) -> Result<Manifest, PersistError> {
    // The header is at most 64 bytes; read a small prefix instead of the
    // payload.
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 64];
    let mut got = 0;
    while got < head.len() {
        match file.read(&mut head[got..])? {
            0 => break,
            n => got += n,
        }
    }
    peek_manifest(&head[..got])
}

/// When a [`CheckpointChain`] stops writing deltas and takes a fresh base.
///
/// Both limits bound restore cost: resolving a chain reads every link, so
/// restore time grows with chain length and with the bytes accumulated in
/// deltas. Compaction triggers when either the number of deltas since the
/// last base exceeds `max_chain_len`, or the cumulative delta bytes exceed
/// `max_delta_ratio` times the base's size (past that point a fresh base
/// is no more expensive to write than the chain is to read).
#[derive(Clone, Debug)]
pub struct CompactionPolicy {
    /// Maximum number of deltas after a base before the next save is
    /// forced to be a base.
    pub max_chain_len: usize,
    /// Maximum cumulative delta bytes as a fraction of the base's bytes
    /// before the next save is forced to be a base.
    pub max_delta_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_chain_len: 8,
            max_delta_ratio: 1.0,
        }
    }
}

/// What a [`CheckpointChain`] save produced.
#[derive(Clone, Debug)]
pub struct SaveReceipt {
    /// File the snapshot was written to.
    pub path: PathBuf,
    /// Content-derived snapshot id recorded in the manifest.
    pub snapshot_id: u64,
    /// Whether this save was a base or a delta.
    pub kind: SnapshotKind,
    /// Total file size in bytes (header + payload + checksum).
    pub bytes: u64,
    /// Sections written inline.
    pub fresh_sections: usize,
    /// Sections elided as references to the parent.
    pub ref_sections: usize,
}

/// In-memory bookkeeping for the newest snapshot in a chain.
struct ChainTip {
    snapshot_id: u64,
    parent: codec::ParentIndex,
    deltas_since_base: usize,
    base_bytes: u64,
    delta_bytes: u64,
}

/// A directory of chained checkpoint files: periodic saves write deltas
/// against the previous save and automatically compact to a fresh base
/// when the [`CompactionPolicy`] says the chain has grown too costly to
/// restore.
///
/// Files are named `{prefix}-{step:08}-{snapshot_id:016x}.tdnc`, so
/// lexicographic order is step order and [`load_checkpoint`] can resolve
/// parents by scanning the directory. The chain keeps no state on disk
/// beyond the files themselves: a new `CheckpointChain` (e.g. after a
/// process restart) simply starts with a base.
pub struct CheckpointChain {
    dir: PathBuf,
    prefix: String,
    policy: CompactionPolicy,
    io: Arc<dyn CheckpointIo>,
    tip: Option<ChainTip>,
}

impl CheckpointChain {
    /// Creates a chain writing `{prefix}-*.tdnc` files under `dir` with
    /// the default [`CompactionPolicy`]. Nothing touches the filesystem
    /// until the first save.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        CheckpointChain {
            dir: dir.into(),
            prefix: prefix.into(),
            policy: CompactionPolicy::default(),
            io: Arc::new(StdIo),
            tip: None,
        }
    }

    /// Replaces the compaction policy (builder form).
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Routes this chain's file operations through `io` (builder form).
    /// Restores still read with plain `std::fs` — fault injection targets
    /// the write path, where state can actually be lost.
    pub fn with_io(mut self, io: Arc<dyn CheckpointIo>) -> Self {
        self.io = io;
        self
    }

    /// Removes stale `{prefix}-*.tmp` debris from this chain's directory
    /// (crash leftovers between tmp write and rename). Prefix-scoped, so
    /// it is safe while other chains write to the same directory. Returns
    /// the removed paths.
    pub fn clean_stale_tmp(&self) -> Result<Vec<PathBuf>, PersistError> {
        clean_stale_tmp(&self.dir, Some(&self.prefix))
    }

    /// Snapshot id of the newest save, if any.
    pub fn tip_snapshot_id(&self) -> Option<u64> {
        self.tip.as_ref().map(|t| t.snapshot_id)
    }

    /// Number of deltas written since the last base (0 right after a base
    /// or before any save).
    pub fn deltas_since_base(&self) -> usize {
        self.tip.as_ref().map_or(0, |t| t.deltas_since_base)
    }

    /// Saves a snapshot, choosing delta or base automatically: the first
    /// save is a base, subsequent saves are deltas until the policy's
    /// chain-length or byte-ratio limit is reached, which forces a fresh
    /// base (compaction).
    pub fn save<T: Persist>(
        &mut self,
        tracker: &T,
        cfg: &TrackerConfig,
        step: u64,
    ) -> Result<SaveReceipt, PersistError> {
        let compact = match &self.tip {
            None => true,
            Some(tip) => {
                tip.deltas_since_base >= self.policy.max_chain_len
                    || tip.delta_bytes as f64 > self.policy.max_delta_ratio * tip.base_bytes as f64
            }
        };
        if compact {
            self.save_base(tracker, cfg, step)
        } else {
            self.save_delta(tracker, cfg, step)
        }
    }

    /// Writes a self-contained base snapshot and restarts the chain on it.
    pub fn save_base<T: Persist>(
        &mut self,
        tracker: &T,
        cfg: &TrackerConfig,
        step: u64,
    ) -> Result<SaveReceipt, PersistError> {
        // Drop the old tip before touching the disk: if the write fails,
        // the next save starts a fresh base instead of chaining onto a
        // snapshot whose on-disk fate is unknown.
        self.tip = None;
        let mut sink = codec::SectionSink::new(codec::ParentIndex::new());
        tracker.write_sections(&mut sink);
        let (fresh, refs) = sink.counts();
        let (payload, next) = sink.finish();
        let (bytes, snapshot_id) = envelope::<T>(cfg, step, SnapshotKind::Base, 0, payload);
        let path = self.write_file(step, snapshot_id, &bytes)?;
        self.tip = Some(ChainTip {
            snapshot_id,
            parent: next,
            deltas_since_base: 0,
            base_bytes: bytes.len() as u64,
            delta_bytes: 0,
        });
        Ok(SaveReceipt {
            path,
            snapshot_id,
            kind: SnapshotKind::Base,
            bytes: bytes.len() as u64,
            fresh_sections: fresh,
            ref_sections: refs,
        })
    }

    /// Writes a delta against the current tip. Falls back to
    /// [`CheckpointChain::save_base`] when there is no tip yet (a delta
    /// needs a parent).
    pub fn save_delta<T: Persist>(
        &mut self,
        tracker: &T,
        cfg: &TrackerConfig,
        step: u64,
    ) -> Result<SaveReceipt, PersistError> {
        // Take the tip for the same crash-safety reason as `save_base`: a
        // failed write must not leave the chain pointing at a snapshot
        // that may not exist on disk.
        let Some(tip) = self.tip.take() else {
            return self.save_base(tracker, cfg, step);
        };
        let mut sink = codec::SectionSink::new(tip.parent.clone());
        tracker.write_sections(&mut sink);
        let (fresh, refs) = sink.counts();
        let (payload, next) = sink.finish();
        let (bytes, snapshot_id) =
            envelope::<T>(cfg, step, SnapshotKind::Delta, tip.snapshot_id, payload);
        let path = self.write_file(step, snapshot_id, &bytes)?;
        self.tip = Some(ChainTip {
            snapshot_id,
            parent: next,
            deltas_since_base: tip.deltas_since_base + 1,
            base_bytes: tip.base_bytes,
            delta_bytes: tip.delta_bytes + bytes.len() as u64,
        });
        Ok(SaveReceipt {
            path,
            snapshot_id,
            kind: SnapshotKind::Delta,
            bytes: bytes.len() as u64,
            fresh_sections: fresh,
            ref_sections: refs,
        })
    }

    /// Path of the newest checkpoint in the chain's directory (by
    /// zero-padded step in the filename), or `None` when no chain file
    /// exists yet. Useful after a restart, when the in-memory tip is gone.
    pub fn latest_path(&self) -> Result<Option<PathBuf>, PersistError> {
        let mut best: Option<PathBuf> = None;
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let want_prefix = format!("{}-", self.prefix);
        for entry in entries {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.starts_with(&want_prefix) || !name.ends_with(".tdnc") {
                continue;
            }
            if best
                .as_ref()
                .and_then(|b| b.file_name().and_then(|n| n.to_str()))
                .is_none_or(|b| name > b)
            {
                best = Some(path);
            }
        }
        Ok(best)
    }

    fn write_file(
        &self,
        step: u64,
        snapshot_id: u64,
        bytes: &[u8],
    ) -> Result<PathBuf, PersistError> {
        self.io.create_dir_all(&self.dir)?;
        let path = self
            .dir
            .join(format!("{}-{step:08}-{snapshot_id:016x}.tdnc", self.prefix));
        write_atomic_with(self.io.as_ref(), &path, bytes)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdn_core::InfluenceTracker;
    use tdn_streams::TimedEdge;

    /// `unwrap_err` needs `Debug` on the success type; trackers don't
    /// implement it, so unwrap the error arm by hand.
    fn expect_err<T>(res: Result<(u64, T), PersistError>) -> PersistError {
        match res {
            Ok(_) => panic!("restore unexpectedly succeeded"),
            Err(e) => e,
        }
    }

    fn small_hist() -> (TrackerConfig, HistApprox) {
        let cfg = TrackerConfig::new(2, 0.1, 50);
        let mut h = HistApprox::new(&cfg);
        h.step(
            0,
            &[
                TimedEdge::new(0u32, 1u32, 3),
                TimedEdge::new(0u32, 2u32, 7),
                TimedEdge::new(5u32, 6u32, 20),
            ],
        );
        h.step(1, &[TimedEdge::new(6u32, 7u32, 4)]);
        (cfg, h)
    }

    fn small_sieve() -> (TrackerConfig, SieveAdnTracker) {
        let cfg = TrackerConfig::new(2, 0.2, 50);
        let mut t = SieveAdnTracker::new(&cfg);
        t.step(
            0,
            &[
                TimedEdge::new(0u32, 1u32, 3),
                TimedEdge::new(1u32, 2u32, 7),
                TimedEdge::new(5u32, 6u32, 20),
            ],
        );
        t.step(1, &[TimedEdge::new(6u32, 7u32, 4)]);
        (cfg, t)
    }

    fn batch_for(t: u64) -> Vec<TimedEdge> {
        vec![
            TimedEdge::new((t % 5) as u32, (7 + t % 11) as u32, 1 + (t % 6) as u32),
            TimedEdge::new((t % 3) as u32, (4 + t % 9) as u32, 2 + (t % 4) as u32),
        ]
    }

    #[test]
    fn round_trip_preserves_answers_and_tallies() {
        let (cfg, mut live) = small_hist();
        let bytes = checkpoint_to_vec(&live, &cfg, 2);
        let (step, mut warm): (u64, HistApprox) = restore_from_slice(&bytes, &cfg).unwrap();
        assert_eq!(step, 2);
        assert_eq!(warm.oracle_calls(), live.oracle_calls());
        for t in 2..12 {
            let batch = [TimedEdge::new((t % 4) as u32, 40 + t as u32, 5)];
            assert_eq!(warm.step(t, &batch), live.step(t, &batch), "t={t}");
            assert_eq!(warm.oracle_calls(), live.oracle_calls(), "t={t}");
        }
    }

    #[test]
    fn manifest_peek_reports_position_and_kind() {
        let (cfg, live) = small_hist();
        let bytes = checkpoint_to_vec(&live, &cfg, 7);
        let m = peek_manifest(&bytes).unwrap();
        assert_eq!(m.kind, TrackerKind::HistApprox);
        assert_eq!(m.step, 7);
        assert_eq!(m.format_version, FORMAT_VERSION);
        assert_eq!(m.config_hash, config_hash(&cfg));
        assert_eq!(m.snapshot_kind, SnapshotKind::Base);
        assert_eq!(m.parent_id, 0);
        assert_ne!(m.snapshot_id, 0);
    }

    #[test]
    fn config_mismatch_is_loud() {
        let (cfg, live) = small_hist();
        let bytes = checkpoint_to_vec(&live, &cfg, 2);
        let other = TrackerConfig::new(3, 0.1, 50);
        let err = expect_err(restore_from_slice::<HistApprox>(&bytes, &other));
        assert!(matches!(err, PersistError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn wrong_tracker_kind_is_loud() {
        let (cfg, live) = small_hist();
        let bytes = checkpoint_to_vec(&live, &cfg, 2);
        let err = expect_err(restore_from_slice::<BasicReduction>(&bytes, &cfg));
        assert!(matches!(err, PersistError::WrongTracker { .. }), "{err}");
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let (cfg, live) = small_hist();
        let bytes = checkpoint_to_vec(&live, &cfg, 2);
        for cut in 0..bytes.len() {
            let res = restore_from_slice::<HistApprox>(&bytes[..cut], &cfg);
            assert!(
                res.is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flips_anywhere_fail_the_restore() {
        // The envelope checksum covers the header too, so *every* byte of
        // the file is protected — including the stream position and
        // snapshot ids.
        let (cfg, live) = small_hist();
        let bytes = checkpoint_to_vec(&live, &cfg, 2);
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x5A;
            assert!(
                restore_from_slice::<HistApprox>(&corrupt, &cfg).is_err(),
                "flip at byte {at}/{} restored",
                bytes.len()
            );
        }
    }

    #[test]
    fn hostile_payload_length_is_an_error_not_a_panic() {
        // A corrupt header announcing a near-u64::MAX payload must not
        // overflow the bounds arithmetic (debug panic / release wrap) or
        // reach the slicing code.
        let (cfg, live) = small_hist();
        let mut bytes = checkpoint_to_vec(&live, &cfg, 2);
        for hostile in [u64::MAX, u64::MAX - 7, (bytes.len() as u64) * 2] {
            bytes[29..37].copy_from_slice(&hostile.to_le_bytes());
            let err = expect_err(restore_from_slice::<HistApprox>(&bytes, &cfg));
            assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn foreign_and_future_files_are_rejected() {
        let cfg = TrackerConfig::new(2, 0.1, 50);
        let err = expect_err(restore_from_slice::<HistApprox>(
            b"PNG\x89 not a checkpoint",
            &cfg,
        ));
        assert!(matches!(err, PersistError::BadMagic), "{err}");
        // Craft a header claiming format version 99.
        let (cfg2, live) = small_hist();
        let mut bytes = checkpoint_to_vec(&live, &cfg2, 2);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = expect_err(restore_from_slice::<HistApprox>(&bytes, &cfg2));
        assert!(
            matches!(err, PersistError::UnsupportedVersion { found: 99, .. }),
            "{err}"
        );
    }

    #[test]
    fn file_round_trip() {
        let (cfg, mut live) = small_hist();
        let dir = std::env::temp_dir().join("tdn_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.ckpt");
        save_checkpoint(&path, &live, &cfg, 2).unwrap();
        let m = read_manifest(&path).unwrap();
        assert_eq!(m.step, 2);
        let (step, mut warm): (u64, HistApprox) = load_checkpoint(&path, &cfg).unwrap();
        assert_eq!(step, 2);
        let batch = [TimedEdge::new(9u32, 10u32, 3)];
        assert_eq!(warm.step(2, &batch), live.step(2, &batch));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_chain_round_trips_in_memory() {
        let (cfg, mut live) = small_sieve();
        let (base, idx, base_id) = checkpoint_base_to_vec(&live, &cfg, 2);
        live.step(2, &batch_for(2));
        let (d1, idx, d1_id) = checkpoint_delta_to_vec(&live, &cfg, 3, &idx, base_id);
        live.step(3, &batch_for(3));
        let (d2, _, _) = checkpoint_delta_to_vec(&live, &cfg, 4, &idx, d1_id);

        let (step, mut warm): (u64, SieveAdnTracker) =
            restore_from_chain(&[&d2, &d1, &base], &cfg).unwrap();
        assert_eq!(step, 4);
        assert_eq!(warm.oracle_calls(), live.oracle_calls());
        for t in 4..10 {
            assert_eq!(warm.step(t, &batch_for(t)), live.step(t, &batch_for(t)));
            assert_eq!(warm.oracle_calls(), live.oracle_calls(), "t={t}");
        }
    }

    #[test]
    fn lone_delta_is_a_missing_base() {
        let (cfg, mut live) = small_sieve();
        let (_, idx, base_id) = checkpoint_base_to_vec(&live, &cfg, 2);
        live.step(2, &batch_for(2));
        let (delta, _, _) = checkpoint_delta_to_vec(&live, &cfg, 3, &idx, base_id);
        let err = expect_err(restore_from_slice::<SieveAdnTracker>(&delta, &cfg));
        assert!(
            matches!(err, PersistError::MissingBase { snapshot_id } if snapshot_id == base_id),
            "{err}"
        );
        // Same through the chain API with the base omitted.
        let err = expect_err(restore_from_chain::<SieveAdnTracker>(&[&delta], &cfg));
        assert!(matches!(err, PersistError::MissingBase { .. }), "{err}");
    }

    #[test]
    fn broken_linkage_and_cycles_are_typed_errors() {
        let (cfg, mut live) = small_sieve();
        let (base, idx, base_id) = checkpoint_base_to_vec(&live, &cfg, 2);
        live.step(2, &batch_for(2));
        let (d1, idx2, d1_id) = checkpoint_delta_to_vec(&live, &cfg, 3, &idx, base_id);
        live.step(3, &batch_for(3));
        let (d2, _, _) = checkpoint_delta_to_vec(&live, &cfg, 4, &idx2, d1_id);

        // Skipping d1 breaks the parent linkage.
        let err = expect_err(restore_from_chain::<SieveAdnTracker>(&[&d2, &base], &cfg));
        assert!(
            matches!(err, PersistError::MissingBase { snapshot_id } if snapshot_id == d1_id),
            "{err}"
        );
        // A repeated link is a cycle, not an infinite loop.
        let err = expect_err(restore_from_chain::<SieveAdnTracker>(
            &[&d1, &d1, &base],
            &cfg,
        ));
        assert!(
            matches!(
                err,
                PersistError::ChainCycle { .. } | PersistError::MissingBase { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_chain_saves_deltas_and_load_checkpoint_resolves_them() {
        let (cfg, mut live) = small_sieve();
        let dir = std::env::temp_dir().join("tdn_persist_chain_test");
        std::fs::remove_dir_all(&dir).ok();
        // A toy tracker's deltas are nearly base-sized (fixed overhead
        // dominates), which would trip the byte-ratio compaction this test
        // is not about — pin a permissive policy so every follow-up save
        // stays a delta.
        let mut chain = CheckpointChain::new(&dir, "sieve").with_policy(CompactionPolicy {
            max_chain_len: 64,
            max_delta_ratio: 1e9,
        });

        let r0 = chain.save(&live, &cfg, 2).unwrap();
        assert_eq!(r0.kind, SnapshotKind::Base);
        let mut receipts = vec![r0];
        for t in 2..6 {
            live.step(t, &batch_for(t));
            let r = chain.save(&live, &cfg, t + 1).unwrap();
            assert_eq!(r.kind, SnapshotKind::Delta, "t={t}");
            receipts.push(r);
        }
        // Restore from the newest delta; parents resolve by directory scan.
        let tip = receipts.last().unwrap();
        let (step, mut warm): (u64, SieveAdnTracker) = load_checkpoint(&tip.path, &cfg).unwrap();
        assert_eq!(step, 6);
        assert_eq!(warm.oracle_calls(), live.oracle_calls());
        for t in 6..12 {
            assert_eq!(warm.step(t, &batch_for(t)), live.step(t, &batch_for(t)));
        }
        assert_eq!(
            chain.latest_path().unwrap().as_deref(),
            Some(tip.path.as_path())
        );
        // Deleting the base makes the tip unrestorable — loudly.
        std::fs::remove_file(&receipts[0].path).unwrap();
        let err = match load_checkpoint::<SieveAdnTracker>(&tip.path, &cfg) {
            Ok(_) => panic!("restored without its base"),
            Err(e) => e,
        };
        assert!(matches!(err, PersistError::MissingBase { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Test double: fails the first `fail_renames` rename calls.
    struct RenameBomb {
        remaining: std::sync::Mutex<u32>,
    }

    impl CheckpointIo for RenameBomb {
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            std::fs::write(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            let mut left = self.remaining.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Err(std::io::Error::from_raw_os_error(5)); // EIO
            }
            std::fs::rename(from, to)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            std::fs::read(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            std::fs::create_dir_all(path)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            std::fs::remove_file(path)
        }
    }

    fn dir_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn failed_rename_is_typed_and_leaves_no_tmp_debris() {
        let (cfg, live) = small_hist();
        let dir = std::env::temp_dir().join("tdn_persist_rename_bomb");
        std::fs::remove_dir_all(&dir).ok();
        let io = Arc::new(RenameBomb {
            remaining: std::sync::Mutex::new(1),
        });
        let mut chain = CheckpointChain::new(&dir, "h").with_io(io);
        let err = chain.save(&live, &cfg, 2).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        // The tmp was cleaned up on the failure path and no final file
        // exists — the directory holds no trace of the failed save.
        assert!(dir_names(&dir).is_empty(), "{:?}", dir_names(&dir));
        // The chain did not keep a tip pointing at a phantom snapshot: the
        // next save starts a fresh base and succeeds.
        let r = chain.save(&live, &cfg, 2).unwrap();
        assert_eq!(r.kind, SnapshotKind::Base);
        let (step, _): (u64, HistApprox) = load_checkpoint(&r.path, &cfg).unwrap();
        assert_eq!(step, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_cleanup_is_prefix_scoped() {
        let (cfg, live) = small_hist();
        let dir = std::env::temp_dir().join("tdn_persist_tmp_cleanup");
        std::fs::remove_dir_all(&dir).ok();
        let mut chain = CheckpointChain::new(&dir, "a");
        let receipt = chain.save(&live, &cfg, 2).unwrap();
        // Simulate crashes between write and rename for two chains.
        std::fs::write(dir.join("a-00000003-00000000deadbeef.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("b-00000001-00000000cafef00d.tmp"), b"torn").unwrap();

        let removed = chain.clean_stale_tmp().unwrap();
        assert_eq!(removed.len(), 1, "{removed:?}");
        assert_eq!(
            dir_names(&dir),
            vec![
                receipt
                    .path
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .into_owned(),
                "b-00000001-00000000cafef00d.tmp".to_string(),
            ],
            "prefix-scoped cleanup touched a foreign chain's tmp"
        );

        // The dir-wide sweep (recovery context: no active writers) takes
        // the rest but never a real checkpoint.
        let removed = clean_stale_tmp(&dir, None).unwrap();
        assert_eq!(removed.len(), 1, "{removed:?}");
        assert_eq!(
            dir_names(&dir),
            vec![receipt
                .path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned()]
        );
        // Cleaning a missing directory reports nothing to do.
        assert!(clean_stale_tmp(Path::new("/nonexistent/tdn"), None)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_policy_forces_fresh_bases() {
        let (cfg, mut live) = small_sieve();
        let dir = std::env::temp_dir().join("tdn_persist_compaction_test");
        std::fs::remove_dir_all(&dir).ok();
        let mut chain = CheckpointChain::new(&dir, "c").with_policy(CompactionPolicy {
            max_chain_len: 2,
            max_delta_ratio: 1e9, // only the length limit can trigger
        });
        let mut kinds = Vec::new();
        for t in 2..10 {
            live.step(t, &batch_for(t));
            kinds.push(chain.save(&live, &cfg, t + 1).unwrap().kind);
        }
        // base, delta, delta, base, delta, delta, ...
        for (i, kind) in kinds.iter().enumerate() {
            let expected = if i % 3 == 0 {
                SnapshotKind::Base
            } else {
                SnapshotKind::Delta
            };
            assert_eq!(*kind, expected, "save {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
