//! The manifest: the single root file recovery starts from.
//!
//! Layout (`b"CQMF" | u32 version | str snapshot_file (empty = none) |
//! u64 snapshot_epoch | u64 wal_gen | u64 wal_offset | u32 crc`), with
//! the CRC-32 covering everything before it and nothing after it. A named
//! snapshot is always [`snapshot::filename`] of `snapshot_epoch`, a plain
//! name inside the data directory: [`load`] refuses any other, so a
//! manifest can never make its store read, or a checkpoint delete, a file
//! outside that directory. It also refuses the last WAL generation, which
//! no checkpoint could rotate past. The manifest is tiny and
//! rewritten atomically (temp-then-rename, directory fsynced), so at
//! every instant exactly one consistent `(snapshot, WAL)` pair is named —
//! that atomicity is what makes [`crate::DurableStore::checkpoint`]'s
//! snapshot-plus-log-rotation a single logical step.

use crate::crc32::crc32;
use crate::snapshot;
use cqc_common::error::{CqcError, Result};
use cqc_common::frame::{PayloadReader, PayloadWriter};
use cqc_storage::Epoch;
use std::io::Write;
use std::path::Path;

/// The manifest's filename inside a data directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

const MAGIC: [u8; 4] = *b"CQMF";
const VERSION: u32 = 1;

/// What the data directory currently holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Filename (relative to the data directory) of the current snapshot,
    /// if one has been written.
    pub snapshot_file: Option<String>,
    /// The epoch the snapshot captures (`0` when there is none — epoch 0
    /// is the empty database, which needs no file).
    pub snapshot_epoch: Epoch,
    /// Generation counter of the current WAL file; each checkpoint
    /// rotates to a fresh generation so the old log can be deleted.
    pub wal_gen: u64,
    /// Offset inside the WAL at which replay starts (records before it
    /// are covered by the snapshot — the compaction watermark).
    pub wal_offset: u64,
}

impl Manifest {
    /// The WAL filename this manifest's generation maps to.
    pub fn wal_file(&self) -> String {
        format!("wal-{:06}.log", self.wal_gen)
    }

    /// Why this manifest may not be persisted: a snapshot name other than
    /// [`snapshot::filename`] of its epoch, or a WAL generation no
    /// checkpoint can rotate past.
    fn defect(&self) -> Option<String> {
        if self.wal_gen == u64::MAX {
            return Some(format!("WAL generation {} has no successor", self.wal_gen));
        }
        let name = self.snapshot_file.as_deref()?;
        let expected = snapshot::filename(self.snapshot_epoch);
        (name != expected).then(|| format!("snapshot file {name:?} is not {expected:?}"))
    }
}

/// Loads the manifest from `dir`, `Ok(None)` when none exists (a fresh
/// directory).
///
/// # Errors
///
/// I/O failures, and [`CqcError::Io`] when the file exists but fails its
/// magic, version, checksum or layout — bytes past `wal_offset`, a
/// snapshot name [`store`] would not write, or `wal_gen` at `u64::MAX`.
/// A manifest is written
/// atomically, so a corrupt one means the storage itself is damaged and
/// recovery must not guess.
pub fn load(dir: &Path) -> Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |why: &str| CqcError::Io(format!("manifest {}: {why}", path.display()));
    if bytes.len() < MAGIC.len() + 4 + 4 || bytes[..4] != MAGIC {
        return Err(corrupt("bad magic or truncated"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("len 4"));
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = PayloadReader::new(&body[4..]);
    let map_err = |e: CqcError| CqcError::Io(format!("manifest {}: {e}", path.display()));
    if r.get_u32().map_err(map_err)? != VERSION {
        return Err(corrupt("unsupported version"));
    }
    let snapshot_file = {
        let s = r.get_str().map_err(map_err)?;
        (!s.is_empty()).then(|| s.to_string())
    };
    let m = Manifest {
        snapshot_file,
        snapshot_epoch: r.get_u64().map_err(map_err)?,
        wal_gen: r.get_u64().map_err(map_err)?,
        wal_offset: r.get_u64().map_err(map_err)?,
    };
    if r.remaining() > 0 {
        return Err(corrupt(&format!("{} trailing bytes", r.remaining())));
    }
    if let Some(why) = m.defect() {
        return Err(corrupt(&why));
    }
    Ok(Some(m))
}

/// Atomically replaces the manifest in `dir`: temp file, fsync, rename,
/// directory fsync.
///
/// # Errors
///
/// I/O failures, and [`CqcError::Config`] for a manifest [`load`] would
/// refuse (a snapshot name other than [`snapshot::filename`] of its
/// epoch, or `wal_gen` at `u64::MAX`), before anything is written.
pub fn store(dir: &Path, m: &Manifest) -> Result<()> {
    if let Some(why) = m.defect() {
        return Err(CqcError::Config(format!("manifest not stored: {why}")));
    }
    let mut w = PayloadWriter::new();
    w.start();
    for b in MAGIC {
        w.put_u8(b);
    }
    w.put_u32(VERSION)
        .put_str(m.snapshot_file.as_deref().unwrap_or(""))
        .put_u64(m.snapshot_epoch)
        .put_u64(m.wal_gen)
        .put_u64(m.wal_offset);
    let crc = crc32(w.bytes());
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(w.bytes())?;
    f.write_all(&crc.to_le_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    crate::sync_dir(dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cqc-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_and_absence_is_none() {
        let dir = temp_dir("rt");
        assert_eq!(load(&dir).unwrap(), None);
        let m = Manifest {
            snapshot_file: Some("snap-00000000000000000007.db".into()),
            snapshot_epoch: 7,
            wal_gen: 3,
            wal_offset: 8,
        };
        store(&dir, &m).unwrap();
        assert_eq!(load(&dir).unwrap(), Some(m.clone()));
        let none = Manifest {
            snapshot_file: None,
            snapshot_epoch: 0,
            wal_gen: 0,
            wal_offset: 8,
        };
        store(&dir, &none).unwrap();
        assert_eq!(load(&dir).unwrap(), Some(none));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_loud_not_guessed() {
        let dir = temp_dir("corrupt");
        let m = Manifest {
            snapshot_file: None,
            snapshot_epoch: 0,
            wal_gen: 1,
            wal_offset: 8,
        };
        store(&dir, &m).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&dir), Err(CqcError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
