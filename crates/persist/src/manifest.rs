//! The checkpoint manifest header.
//!
//! Every checkpoint file starts with a fixed-layout header that can be
//! parsed without decoding the (much larger) state payload. The format-4
//! layout:
//!
//! | field | bytes | offset | contents |
//! |-------|-------|--------|----------|
//! | magic | 8 | 0 | `b"TDNCKPT\0"` |
//! | format version | 4 | 8 | little-endian `u32`, currently 4 |
//! | tracker kind | 1 | 12 | [`TrackerKind`] tag |
//! | config hash | 8 | 13 | FNV-1a of the serialized `TrackerConfig` |
//! | stream position | 8 | 21 | steps already processed (restore resumes here) |
//! | payload length | 8 | 29 | byte length of the state payload |
//! | snapshot kind | 1 | 37 | [`SnapshotKind`] tag (base or delta) |
//! | snapshot id | 8 | 38 | content-derived identity of this snapshot |
//! | parent id | 8 | 46 | snapshot id of the delta's parent (0 for a base) |
//! | reserved | 10 | 54 | zero padding to a 64-byte header |
//!
//! The payload follows at byte 64 (8-byte aligned, so the sectioned
//! container's aligned word runs stay aligned in the file), then an 8-byte
//! FNV-1a checksum covering the **header and payload** together, so a bit
//! flip anywhere in the header (stream position, snapshot ids, reserved
//! bytes) fails the restore instead of silently changing resume metadata.
//!
//! Versioning rule: the version is bumped whenever any snapshot layout
//! changes; readers reject every version but their own *before* touching
//! the payload (see `DESIGN.md § Persistence & recovery`).

use crate::error::PersistError;

/// File magic: identifies TDN checkpoints regardless of version.
pub const MAGIC: [u8; 8] = *b"TDNCKPT\0";

/// The format version this build writes and the only one it reads.
/// Version 4 gave every tracker its own sections (instances and graphs
/// included) and dropped the monolithic layouts that versions 2 and 3
/// still carried; files of older versions fail with
/// [`PersistError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 4;

/// Byte offset of the payload (the header is padded to 64 bytes so
/// aligned word runs inside the sectioned payload stay 8-byte aligned on
/// disk).
pub const PAYLOAD_OFFSET: usize = 64;

/// Which tracker type a checkpoint holds. The tag is part of the on-disk
/// format: restoring a file into the wrong tracker type fails with
/// [`PersistError::WrongTracker`] instead of misinterpreting the payload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TrackerKind {
    /// [`tdn_core::SieveAdnTracker`] (Alg. 1, addition-only).
    SieveAdn = 1,
    /// [`tdn_core::BasicReduction`] (Alg. 2, `L` staggered instances).
    BasicReduction = 2,
    /// [`tdn_core::HistApprox`] (Alg. 3, compressed histogram).
    HistApprox = 3,
    /// [`tdn_core::RandomTracker`] (§V-C baseline; carries RNG state).
    Random = 4,
}

impl TrackerKind {
    /// Parses a manifest tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(TrackerKind::SieveAdn),
            2 => Some(TrackerKind::BasicReduction),
            3 => Some(TrackerKind::HistApprox),
            4 => Some(TrackerKind::Random),
            _ => None,
        }
    }
}

/// Whether a checkpoint is self-contained or references a parent.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SnapshotKind {
    /// Self-contained: every section's payload is inline.
    Base = 1,
    /// Sections unchanged since the parent snapshot are stored as
    /// `(length, checksum)` references; restoring needs the parent chain.
    Delta = 2,
}

impl SnapshotKind {
    /// Parses a manifest tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(SnapshotKind::Base),
            2 => Some(SnapshotKind::Delta),
            _ => None,
        }
    }
}

/// Parsed checkpoint header (everything before the state payload).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// On-disk format version.
    pub format_version: u32,
    /// Tracker type held by the payload.
    pub kind: TrackerKind,
    /// FNV-1a fingerprint of the `TrackerConfig` the run used.
    pub config_hash: u64,
    /// Stream position: number of steps the tracker had processed when the
    /// checkpoint was taken. A restored run resumes feeding at this index.
    pub step: u64,
    /// Byte length of the state payload that follows the header.
    pub payload_len: u64,
    /// Base or delta.
    pub snapshot_kind: SnapshotKind,
    /// Content-derived identity: FNV-1a over (payload checksum, step,
    /// parent id).
    pub snapshot_id: u64,
    /// For a delta, the [`Manifest::snapshot_id`] of its parent; zero for a
    /// base.
    pub parent_id: u64,
}

impl Manifest {
    /// Serializes the header (64 bytes).
    pub(crate) fn write(&self, w: &mut codec::Writer) {
        debug_assert_eq!(self.format_version, FORMAT_VERSION);
        for b in MAGIC {
            w.put_u8(b);
        }
        w.put_u32(self.format_version);
        w.put_u8(self.kind as u8);
        w.put_u64(self.config_hash);
        w.put_u64(self.step);
        w.put_u64(self.payload_len);
        w.put_u8(self.snapshot_kind as u8);
        w.put_u64(self.snapshot_id);
        w.put_u64(self.parent_id);
        for _ in 0..(PAYLOAD_OFFSET - 54) {
            w.put_u8(0);
        }
    }

    /// Parses and validates a header: magic first, then version, then the
    /// kind tag — so the most actionable error wins when several things are
    /// wrong at once.
    pub(crate) fn read(r: &mut codec::Reader<'_>) -> Result<Self, PersistError> {
        let mut magic = [0u8; 8];
        for slot in &mut magic {
            *slot = r.get_u8().map_err(|_| PersistError::BadMagic)?;
        }
        if magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let format_version = r.get_u32()?;
        if format_version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: format_version,
                supported: FORMAT_VERSION,
            });
        }
        let tag = r.get_u8()?;
        let config_hash = r.get_u64()?;
        let step = r.get_u64()?;
        let payload_len = r.get_u64()?;
        let kind = TrackerKind::from_tag(tag).ok_or(PersistError::Corrupt(
            codec::CodecError::Invalid("unknown tracker kind tag"),
        ))?;
        let snapshot_kind = SnapshotKind::from_tag(r.get_u8()?).ok_or(PersistError::Corrupt(
            codec::CodecError::Invalid("unknown snapshot kind tag"),
        ))?;
        let snapshot_id = r.get_u64()?;
        let parent_id = r.get_u64()?;
        for _ in 0..(PAYLOAD_OFFSET - 54) {
            r.get_u8()?;
        }
        if snapshot_kind == SnapshotKind::Base && parent_id != 0 {
            return Err(PersistError::Corrupt(codec::CodecError::Invalid(
                "base snapshot carries a parent id",
            )));
        }
        Ok(Manifest {
            format_version,
            kind,
            config_hash,
            step,
            payload_len,
            snapshot_kind,
            snapshot_id,
            parent_id,
        })
    }
}
