//! Typed checkpoint errors.
//!
//! Every failure mode of the persistence layer — I/O, a foreign or
//! truncated file, a version from the future, a checkpoint taken under a
//! different tracker configuration, a delta whose base snapshot is gone —
//! surfaces as a [`PersistError`] variant. Restoring **never panics** on
//! bad input: the acceptance test for the subsystem is that a corrupt or
//! mismatched file degrades into an error the operator can act on.

use crate::manifest::TrackerKind;
use std::fmt;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic (not a checkpoint,
    /// or the header itself is truncated).
    BadMagic,
    /// The file's format version is not the one this build writes (older
    /// layouts are not migrated: a format-2 or format-3 file is rejected
    /// here, as is one from a future build).
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The file holds a different tracker type than the caller asked for.
    WrongTracker {
        /// Kind the caller tried to restore.
        expected: TrackerKind,
        /// Kind tag recorded in the manifest.
        found: u8,
    },
    /// The checkpoint was taken under a different `TrackerConfig` (`k`,
    /// `ε`, `L`, or pruning flag differ). Restoring state into a tracker
    /// with different parameters would silently change the algorithm, so
    /// this fails loudly instead.
    ConfigMismatch {
        /// Fingerprint of the caller's config.
        expected: u64,
        /// Fingerprint recorded in the manifest.
        found: u64,
    },
    /// Stored bytes do not hash to their recorded checksum (bit rot or a
    /// partially overwritten file).
    ChecksumMismatch {
        /// Which section inside the sectioned payload failed, when the
        /// corruption could be localized; `None` means the whole-payload
        /// envelope checksum failed before any section was examined.
        section: Option<String>,
    },
    /// A section required for restore is absent from the container (or,
    /// after resolving a delta chain, was never materialized by any link).
    MissingSection {
        /// Name of the absent or unresolved section.
        section: String,
    },
    /// A delta checkpoint references a base or intermediate snapshot that
    /// could not be found (deleted, renamed, or never copied alongside the
    /// delta).
    MissingBase {
        /// Snapshot id the dangling delta expected as its parent.
        snapshot_id: u64,
    },
    /// Resolving a delta chain revisited a snapshot id — the parent links
    /// form a loop instead of terminating at a base (only possible with
    /// corrupt or hand-crafted files; ids are content-derived).
    ChainCycle {
        /// First snapshot id encountered twice.
        snapshot_id: u64,
    },
    /// The payload failed to decode (truncation, implausible lengths,
    /// out-of-domain values, trailing bytes).
    Corrupt(codec::CodecError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            PersistError::BadMagic => {
                write!(f, "not a TDN checkpoint file (bad or truncated magic)")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format v{found} is not supported (this build reads v{supported})"
            ),
            PersistError::WrongTracker { expected, found } => write!(
                f,
                "checkpoint holds tracker kind tag {found}, expected {expected:?}"
            ),
            PersistError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different tracker config \
                 (hash {found:#018x}, expected {expected:#018x})"
            ),
            PersistError::ChecksumMismatch { section: None } => {
                write!(f, "checkpoint payload checksum mismatch (corrupt file)")
            }
            PersistError::ChecksumMismatch {
                section: Some(section),
            } => write!(
                f,
                "checkpoint section {section:?} failed its checksum (corrupt file)"
            ),
            PersistError::MissingSection { section } => write!(
                f,
                "checkpoint is missing required section {section:?} \
                 (truncated container or incomplete delta chain)"
            ),
            PersistError::MissingBase { snapshot_id } => write!(
                f,
                "delta checkpoint needs parent snapshot {snapshot_id:#018x}, \
                 which was not found"
            ),
            PersistError::ChainCycle { snapshot_id } => write!(
                f,
                "delta chain loops back to snapshot {snapshot_id:#018x} \
                 instead of reaching a base"
            ),
            PersistError::Corrupt(e) => write!(f, "checkpoint payload is corrupt: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<codec::CodecError> for PersistError {
    fn from(e: codec::CodecError) -> Self {
        PersistError::Corrupt(e)
    }
}

impl From<codec::SectionError> for PersistError {
    fn from(e: codec::SectionError) -> Self {
        match e {
            codec::SectionError::Codec(c) => PersistError::Corrupt(c),
            codec::SectionError::Missing { section }
            | codec::SectionError::Unresolved { section } => {
                PersistError::MissingSection { section }
            }
            codec::SectionError::ChecksumMismatch { section } => PersistError::ChecksumMismatch {
                section: Some(section),
            },
            codec::SectionError::Duplicate { .. } => PersistError::Corrupt(
                codec::CodecError::Invalid("duplicate section name in container"),
            ),
        }
    }
}
