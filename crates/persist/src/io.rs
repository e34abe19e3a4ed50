//! The filesystem boundary of the persistence layer.
//!
//! Every byte the checkpoint subsystem writes to disk goes through a
//! [`CheckpointIo`] implementation. Production code uses [`StdIo`]
//! (plain `std::fs`); the fault-injection harness (`tdn-faults`) swaps in
//! an adapter that fails seeded operations with `EIO`/`ENOSPC`, tears
//! writes mid-buffer, or drops the rename of an atomic write — which is
//! how the chaos suite proves that the recovery paths survive a hostile
//! disk without the tests ever touching a real bad device.
//!
//! The trait covers exactly the operations the save/cleanup paths
//! perform. Read-side hardening does not need injection hooks: corrupt
//! *contents* are exercised directly by writing damaged files (see
//! `tests/corrupt_inputs.rs`), and a failed read is already a typed
//! [`PersistError::Io`](crate::PersistError::Io).

use std::io;
use std::path::Path;

/// The file operations the checkpoint layer performs, virtualized so
/// tests can make any of them fail deterministically.
pub trait CheckpointIo: Send + Sync {
    /// Writes `bytes` to `path`, replacing any existing file.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and any missing ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production implementation: plain `std::fs`, no interception.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdIo;

impl CheckpointIo for StdIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}
