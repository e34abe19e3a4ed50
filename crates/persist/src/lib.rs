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
//! [`restore_from_chain`] for in-memory links, [`load_checkpoint`] for a
//! file, reading each parent from the sibling link whose name carries its
//! snapshot id. [`CheckpointChain`] manages a directory of chained saves
//! and compacts (writes a fresh base) when the chain exceeds its
//! [`CompactionPolicy`]. This crate is the only code that names, lists,
//! chains and orders checkpoint files: [`ChainLink`] parses a name,
//! [`list_chain_links`] lists a directory once in numeric step order, and
//! [`load_newest`] restores a chain's newest link that restores, falling
//! back to older ones.
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

/// The one encoder behind every save: the tracker's sections go into a
/// sink over the parent's index and id (`None` for a base), and the
/// finished container is wrapped in the envelope — manifest header,
/// payload, and a trailing FNV-1a checksum covering *both* (so a flipped
/// bit anywhere in the file fails the restore). Returns the bytes, the
/// index for the next delta and the content-derived snapshot id, plus the
/// counts of sections written inline and as references.
fn encode<T: Persist>(
    tracker: &T,
    cfg: &TrackerConfig,
    step: u64,
    parent: Option<(codec::ParentIndex, u64)>,
) -> ((Vec<u8>, codec::ParentIndex, u64), (usize, usize)) {
    let (snapshot_kind, index, parent_id) = match parent {
        None => (SnapshotKind::Base, codec::ParentIndex::new(), 0),
        Some((index, parent_id)) => (SnapshotKind::Delta, index, parent_id),
    };
    let mut sink = codec::SectionSink::new(index);
    tracker.write_sections(&mut sink);
    let sections = sink.counts();
    let (payload, next) = sink.finish();
    let snapshot_id = snapshot_id_for(codec::fnv1a64(&payload), step, parent_id);
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
    ((bytes, next, snapshot_id), sections)
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
    encode(tracker, cfg, step, None).0
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
    encode(tracker, cfg, step, Some((parent.clone(), parent_id))).0
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
    write_atomic_with(&StdIo, path, &checkpoint_to_vec(tracker, cfg, step))
}

/// Atomic-by-rename write through a [`CheckpointIo`]: bytes land in
/// `<path>.tmp` first, then rename into place. If the rename fails the
/// orphaned tmp file is best-effort removed (an injected or real rename
/// failure must not leave debris that a later recovery scan has to clean);
/// a *crash* between write and rename still can, which is exactly what
/// [`clean_stale_tmp`] and `Server::recover` handle.
fn write_atomic_with(io: &dyn CheckpointIo, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
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

/// One checkpoint file of a [`CheckpointChain`], as its name records it:
/// `{prefix}-{step:08}-{snapshot_id:016x}.tdnc`. Links order by prefix,
/// then numeric step, then snapshot id — stream order within a chain at
/// any step width.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChainLink {
    /// The chain's name ([`CheckpointChain::new`]'s `prefix`).
    pub prefix: String,
    /// The stream position the link was saved at.
    pub step: u64,
    /// The content-derived snapshot id in the link's manifest.
    pub snapshot_id: u64,
    /// The file.
    pub path: PathBuf,
}

impl ChainLink {
    /// The file name a chain gives a save — the only place it is spelled.
    fn file_name(prefix: &str, step: u64, snapshot_id: u64) -> String {
        format!("{prefix}-{step:08}-{snapshot_id:016x}.tdnc")
    }

    /// Parses `path`'s file name; `None` unless it is exactly a name
    /// [`ChainLink::file_name`] writes.
    fn parse(path: &Path) -> Option<ChainLink> {
        let name = path.file_name()?.to_str()?;
        let (rest, id) = name.strip_suffix(".tdnc")?.rsplit_once('-')?;
        let (prefix, step) = rest.rsplit_once('-')?;
        let step = step.parse().ok()?;
        let snapshot_id = u64::from_str_radix(id, 16).ok()?;
        (Self::file_name(prefix, step, snapshot_id) == name).then(|| ChainLink {
            prefix: prefix.to_string(),
            step,
            snapshot_id,
            path: path.to_path_buf(),
        })
    }
}

/// Lists the chain links in `dir`, reading the directory once. Returns
/// the links sorted by prefix, then numeric step, then snapshot id (each
/// chain oldest first), and the count of other `.tdnc` files — foreign
/// data sharing the directory. A missing directory lists nothing.
pub fn list_chain_links(dir: &Path) -> std::io::Result<(Vec<ChainLink>, usize)> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut links = Vec::new();
    let mut foreign = 0;
    for entry in entries {
        let path = entry?.path();
        match ChainLink::parse(&path) {
            Some(link) => links.push(link),
            None if path.extension().is_some_and(|e| e == "tdnc") => foreign += 1,
            None => {}
        }
    }
    links.sort_unstable();
    Ok((links, foreign))
}

/// Reads and restores a checkpoint file. A base restores directly. A
/// delta resolves within its own chain: the directory is listed once, and
/// each parent is the link with the delta's prefix whose name carries the
/// parent's snapshot id (so a delta not named as a [`ChainLink`] has no
/// parents to find). A parent that cannot be found fails with
/// [`PersistError::MissingBase`]; parent links that revisit a snapshot id
/// fail with [`PersistError::ChainCycle`].
pub fn load_checkpoint<T: Persist>(
    path: &Path,
    cfg: &TrackerConfig,
) -> Result<(u64, T), PersistError> {
    let tip = std::fs::read(path)?;
    let mut links = Vec::new();
    if peek_manifest(&tip)?.snapshot_kind == SnapshotKind::Delta {
        if let Some(me) = ChainLink::parse(path) {
            let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
            links = list_chain_links(dir.unwrap_or(Path::new(".")))?.0;
            links.retain(|l| l.prefix == me.prefix);
        }
    }
    restore_tip(tip, &links, cfg)
}

/// Restores the newest of one chain's `links` (oldest first, as one
/// prefix's run of [`list_chain_links`]) that restores, falling back to
/// older links when a newer one fails; parents resolve among `links`.
/// Returns the stream position, the tracker and how many newer links
/// failed first, or the last failure as `"{file}: {error}"`.
pub fn load_newest<T: Persist>(
    links: &[ChainLink],
    cfg: &TrackerConfig,
) -> Result<(u64, T, u64), String> {
    let mut last_err = String::from("no chain links");
    for (failed, link) in (0u64..).zip(links.iter().rev()) {
        let restored = std::fs::read(&link.path)
            .map_err(PersistError::from)
            .and_then(|tip| restore_tip(tip, links, cfg));
        match restored {
            Ok((step, tracker)) => return Ok((step, tracker, failed)),
            Err(e) => {
                let name = link.path.file_name().unwrap_or_default();
                last_err = format!("{}: {e}", name.to_string_lossy());
            }
        }
    }
    Err(last_err)
}

/// Restores the chain ending in `tip`: while the last link read is a
/// delta, its parent is read from the link in `links` whose name carries
/// the parent's snapshot id, then [`restore_from_chain`] validates and
/// resolves the whole chain.
fn restore_tip<T: Persist>(
    tip: Vec<u8>,
    links: &[ChainLink],
    cfg: &TrackerConfig,
) -> Result<(u64, T), PersistError> {
    let mut manifest = peek_manifest(&tip)?;
    let mut chain = vec![tip];
    let mut seen = HashSet::from([manifest.snapshot_id]);
    while manifest.snapshot_kind == SnapshotKind::Delta {
        let need = manifest.parent_id;
        if need == 0 {
            // A delta without a parent id is structurally corrupt; surface
            // it as the missing-base it effectively is.
            return Err(PersistError::MissingBase { snapshot_id: 0 });
        }
        if !seen.insert(need) {
            return Err(PersistError::ChainCycle { snapshot_id: need });
        }
        let parent = links
            .iter()
            .find(|l| l.snapshot_id == need)
            .ok_or(PersistError::MissingBase { snapshot_id: need })?;
        let bytes = std::fs::read(&parent.path)?;
        manifest = peek_manifest(&bytes)?;
        chain.push(bytes);
    }
    let refs: Vec<&[u8]> = chain.iter().map(Vec::as_slice).collect();
    restore_from_chain(&refs, cfg)
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
/// Each save is one [`ChainLink`], named
/// `{prefix}-{step:08}-{snapshot_id:016x}.tdnc`: [`list_chain_links`]
/// orders the links by numeric step, and [`load_checkpoint`] finds each
/// delta's parent by the snapshot id in its name. The chain keeps no
/// state on disk beyond the files themselves: a new `CheckpointChain`
/// (e.g. after a process restart) simply starts with a base.
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

    /// Saves a snapshot, choosing delta or base automatically: the first
    /// save is a base, subsequent saves are deltas against the previous
    /// save until the policy's chain-length or byte-ratio limit is
    /// reached, which forces a fresh base (compaction).
    pub fn save<T: Persist>(
        &mut self,
        tracker: &T,
        cfg: &TrackerConfig,
        step: u64,
    ) -> Result<SaveReceipt, PersistError> {
        // Take the tip before touching the disk: if the write fails, the
        // next save starts a fresh base instead of chaining onto a
        // snapshot whose on-disk fate is unknown.
        let policy = &self.policy;
        let tip = self.tip.take().filter(|tip| {
            let compact = tip.deltas_since_base >= policy.max_chain_len
                || tip.delta_bytes as f64 > policy.max_delta_ratio * tip.base_bytes as f64;
            !compact
        });
        let chained = tip
            .as_ref()
            .map(|t| (t.deltas_since_base, t.base_bytes, t.delta_bytes));
        let ((bytes, next, snapshot_id), (fresh, refs)) =
            encode(tracker, cfg, step, tip.map(|t| (t.parent, t.snapshot_id)));
        self.io.create_dir_all(&self.dir)?;
        let path = self
            .dir
            .join(ChainLink::file_name(&self.prefix, step, snapshot_id));
        write_atomic_with(self.io.as_ref(), &path, &bytes)?;
        let len = bytes.len() as u64;
        let (kind, deltas_since_base, base_bytes, delta_bytes) = match chained {
            Some((deltas, base, delta)) => (SnapshotKind::Delta, deltas + 1, base, delta + len),
            None => (SnapshotKind::Base, 0, len, 0),
        };
        self.tip = Some(ChainTip {
            snapshot_id,
            parent: next,
            deltas_since_base,
            base_bytes,
            delta_bytes,
        });
        Ok(SaveReceipt {
            path,
            snapshot_id,
            kind,
            bytes: len,
            fresh_sections: fresh,
            ref_sections: refs,
        })
    }

    /// Path of the chain's newest link in its directory (by numeric
    /// step), or `None` when the chain has no file yet. Useful after a
    /// restart, when the in-memory tip is gone.
    pub fn latest_path(&self) -> Result<Option<PathBuf>, PersistError> {
        let (links, _) = list_chain_links(&self.dir)?;
        Ok(links
            .into_iter()
            .rev()
            .find(|l| l.prefix == self.prefix)
            .map(|l| l.path))
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
        // Restore from the newest delta; parents resolve by name.
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

    /// A chain of one base and two deltas saved through a permissive
    /// policy (every follow-up save stays a delta).
    fn sieve_chain(dir: &Path) -> (TrackerConfig, Vec<SaveReceipt>) {
        let (cfg, mut live) = small_sieve();
        std::fs::remove_dir_all(dir).ok();
        let mut chain = CheckpointChain::new(dir, "sieve").with_policy(CompactionPolicy {
            max_chain_len: 64,
            max_delta_ratio: 1e9,
        });
        let mut receipts = vec![chain.save(&live, &cfg, 2).unwrap()];
        for t in 2..4 {
            live.step(t, &batch_for(t));
            receipts.push(chain.save(&live, &cfg, t + 1).unwrap());
        }
        (cfg, receipts)
    }

    #[test]
    fn latest_path_orders_steps_numerically() {
        // Past step 99,999,999 the step field outgrows its zero padding, so
        // name order is no longer step order.
        let (cfg, live) = small_hist();
        let dir = std::env::temp_dir().join("tdn_persist_latest_numeric");
        std::fs::remove_dir_all(&dir).ok();
        let mut chain = CheckpointChain::new(&dir, "h");
        chain.save(&live, &cfg, 99_999_999).unwrap();
        let newest = chain.save(&live, &cfg, 100_000_000).unwrap();
        assert_eq!(chain.latest_path().unwrap(), Some(newest.path));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_path_ignores_chains_that_extend_the_prefix() {
        let (cfg, live) = small_hist();
        let dir = std::env::temp_dir().join("tdn_persist_latest_prefix");
        std::fs::remove_dir_all(&dir).ok();
        let mut a = CheckpointChain::new(&dir, "a");
        let mine = a.save(&live, &cfg, 2).unwrap();
        CheckpointChain::new(&dir, "a-b")
            .save(&live, &cfg, 5)
            .unwrap();
        assert_eq!(a.latest_path().unwrap(), Some(mine.path));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_links_skip_tmp_and_count_foreign_files() {
        let dir = std::env::temp_dir().join("tdn_persist_list_links");
        let (_, receipts) = sieve_chain(&dir);
        std::fs::write(dir.join("sieve-00000009-00000000deadbeef.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("alien.tdnc"), b"???").unwrap();
        std::fs::write(dir.join("notes.txt"), b"").unwrap();
        let (links, foreign) = list_chain_links(&dir).unwrap();
        let paths: Vec<&Path> = links.iter().map(|l| l.path.as_path()).collect();
        let saved: Vec<&Path> = receipts.iter().map(|r| r.path.as_path()).collect();
        assert_eq!(paths, saved, "oldest first, no tmp");
        assert_eq!(foreign, 1, "alien.tdnc only");
        for (link, receipt) in links.iter().zip(&receipts) {
            assert_eq!(link.prefix, "sieve");
            assert_eq!(link.snapshot_id, receipt.snapshot_id);
            assert_eq!(ChainLink::parse(&link.path).as_ref(), Some(link));
        }
        assert_eq!(
            list_chain_links(&dir.join("missing")).unwrap(),
            (Vec::new(), 0)
        );
        // Only the exact written form is a link.
        for name in [
            "sieve-2-00000000deadbeef.tdnc",
            "sieve-00000002-DEADBEEF00000000.tdnc",
        ] {
            assert_eq!(ChainLink::parse(Path::new(name)), None, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_parent_renamed_by_hand_is_a_missing_base() {
        let dir = std::env::temp_dir().join("tdn_persist_renamed_parent");
        let (cfg, receipts) = sieve_chain(&dir);
        let parent = &receipts[1];
        std::fs::rename(&parent.path, dir.join("sieve-parent.tdnc")).unwrap();
        let err = expect_err(load_checkpoint::<SieveAdnTracker>(&receipts[2].path, &cfg));
        assert!(
            matches!(err, PersistError::MissingBase { snapshot_id } if snapshot_id == parent.snapshot_id),
            "{err}"
        );
        // The walk falls back to the older link, whose chain is intact.
        let links = list_chain_links(&dir).unwrap().0;
        match load_newest::<SieveAdnTracker>(&links, &cfg) {
            Ok((step, _, fallbacks)) => assert_eq!((step, fallbacks), (2, 1)),
            Err(e) => panic!("no link restored: {e}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_file_named_for_the_parent_but_holding_another_snapshot_is_refused() {
        let dir = std::env::temp_dir().join("tdn_persist_impostor_parent");
        let (cfg, receipts) = sieve_chain(&dir);
        let (tip, parent) = (&receipts[2].path, &receipts[1].path);
        let genuine = std::fs::read(parent).unwrap();
        for impostor in [&receipts[0].path, tip] {
            std::fs::write(parent, std::fs::read(impostor).unwrap()).unwrap();
            let err = expect_err(load_checkpoint::<SieveAdnTracker>(tip, &cfg));
            assert!(
                matches!(
                    err,
                    PersistError::MissingBase { .. } | PersistError::ChainCycle { .. }
                ),
                "{err}"
            );
        }
        std::fs::write(parent, genuine).unwrap();
        let (step, _): (u64, SieveAdnTracker) = load_checkpoint(tip, &cfg).unwrap();
        assert_eq!(step, 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
