//! Atomic database snapshots in the flat sorted-column relation layout.
//!
//! Layout (`b"CQSN" | u32 version | u64 epoch | u32 relations |
//! per relation: str name, u16 arity, u64 rows, rows × arity u64 |
//! u32 crc`), the CRC-32 covering everything before it; all integers
//! little endian. [`write()`] decodes each stored relation's packed
//! columns back into rows, in sorted order, so the format does not depend
//! on the in-memory layout; [`load`] rebuilds every relation through
//! [`Relation::from_flat`]'s already-sorted adoption path — the persisted
//! run is taken over as-is, no re-sort, no per-tuple allocation — and
//! [`Database::add`] packs it.
//!
//! Snapshots are immutable once named: [`write()`] goes to `<name>.tmp`,
//! fsyncs, renames to `snap-<epoch>.db`, and fsyncs the directory. A
//! crash at any point leaves either the previous snapshot set or the new
//! file complete — never a half-written file under a live name.

use crate::crc32::crc32;
use cqc_common::error::{CqcError, Result};
use cqc_common::frame::{PayloadReader, PayloadWriter};
use cqc_storage::{Database, Epoch, Relation};
use std::io::Write;
use std::path::Path;

const MAGIC: [u8; 4] = *b"CQSN";
const VERSION: u32 = 1;

/// Columns the empty relations of one snapshot may declare between them.
/// A relation with rows pays for its columns with its values, 8 B each,
/// but an empty one declares any number with its 2-byte arity, and every
/// column costs the loaded relation allocations: without a cap a file of
/// a few hundred bytes could make [`load`] allocate gigabytes. [`write()`]
/// refuses a database past it, so every snapshot it writes loads.
pub const MAX_EMPTY_COLUMNS: usize = 4096;

/// The canonical filename for the snapshot of `epoch` (zero-padded so
/// lexicographic directory order is epoch order).
pub fn filename(epoch: Epoch) -> String {
    format!("snap-{epoch:020}.db")
}

/// Writes a snapshot of `db` into `dir` (temp-file-then-rename); returns
/// the filename it was committed under.
///
/// # Errors
///
/// I/O failures, and [`CqcError::Config`] when the database's empty
/// relations have more than [`MAX_EMPTY_COLUMNS`] columns between them.
pub fn write(dir: &Path, db: &Database) -> Result<String> {
    let empty_columns: usize = db
        .named_relations()
        .filter(|(_, rel)| rel.is_empty())
        .map(|(_, rel)| rel.arity())
        .sum();
    if empty_columns > MAX_EMPTY_COLUMNS {
        return Err(CqcError::Config(format!(
            "the empty relations have {empty_columns} columns; a snapshot holds at most \
             {MAX_EMPTY_COLUMNS}"
        )));
    }
    let mut w = PayloadWriter::new();
    w.start();
    for b in MAGIC {
        w.put_u8(b);
    }
    w.put_u32(VERSION)
        .put_u64(db.epoch())
        .put_u32(db.num_relations() as u32);
    for (name, rel) in db.named_relations() {
        w.put_str(name)
            .put_u16(rel.arity() as u16)
            .put_u64(rel.len() as u64);
        // Decoded from the packed trie: the file keeps 8 B a value.
        let mut scan = rel.scan();
        while let Some(row) = scan.next_row() {
            w.put_values(row);
        }
    }
    let crc = crc32(w.bytes());
    let name = filename(db.epoch());
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(w.bytes())?;
    f.write_all(&crc.to_le_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(&name))?;
    crate::sync_dir(dir)?;
    Ok(name)
}

/// Loads a snapshot back into a [`Database`] at its persisted epoch.
///
/// # Errors
///
/// I/O failures, and [`CqcError::Io`] when the file fails its magic,
/// version, checksum, or structural checks — a snapshot is only ever
/// renamed into place complete, so damage here is real corruption and
/// recovery must not proceed from it.
pub fn load(path: &Path) -> Result<Database> {
    let bytes = std::fs::read(path)?;
    let corrupt = |why: String| CqcError::Io(format!("snapshot {}: {why}", path.display()));
    if bytes.len() < MAGIC.len() + 4 + 8 + 4 + 4 || bytes[..4] != MAGIC {
        return Err(corrupt("bad magic or truncated".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("len 4"));
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch".into()));
    }
    let mut r = PayloadReader::new(&body[4..]);
    let map_err = |e: CqcError| CqcError::Io(format!("snapshot {}: {e}", path.display()));
    if r.get_u32().map_err(map_err)? != VERSION {
        return Err(corrupt("unsupported version".into()));
    }
    let epoch = r.get_u64().map_err(map_err)?;
    let nrel = r.get_u32().map_err(map_err)? as usize;
    let mut db = Database::new();
    let mut empty_columns = 0usize;
    for _ in 0..nrel {
        let name = r.get_str().map_err(map_err)?.to_string();
        let arity = r.get_u16().map_err(map_err)? as usize;
        let rows = r.get_u64().map_err(map_err)? as usize;
        if arity == 0 {
            return Err(corrupt(format!("relation `{name}` claims arity 0")));
        }
        if rows == 0 {
            empty_columns += arity;
            if empty_columns > MAX_EMPTY_COLUMNS {
                return Err(corrupt(format!(
                    "empty relations up to `{name}` declare {empty_columns} columns, \
                     more than {MAX_EMPTY_COLUMNS}"
                )));
            }
        }
        let values = rows.saturating_mul(arity);
        if r.remaining() < values.saturating_mul(8) {
            return Err(corrupt(format!(
                "relation `{name}` claims {rows} rows but the file ends early"
            )));
        }
        let mut flat = Vec::with_capacity(values);
        r.get_values(values, &mut flat).map_err(map_err)?;
        // The sorted run adopts without copying (from_flat's fast path).
        db.add(Relation::from_flat(name, arity, flat))
            .map_err(|e| corrupt(e.to_string()))?;
    }
    if r.remaining() > 0 {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }
    db.restore_epoch(epoch);
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_storage::Delta;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cqc-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(3, 1), (1, 2), (2, 3)]))
            .unwrap();
        db.add(Relation::new("T", 3, vec![vec![9, 8, 7], vec![1, 2, 3]]))
            .unwrap();
        let mut delta = Delta::new();
        delta.insert("R", vec![5, 5]);
        db.apply(&delta).unwrap();
        db
    }

    #[test]
    fn write_load_round_trips_data_and_epoch() {
        let dir = temp_dir("rt");
        let db = sample_db();
        let name = write(&dir, &db).unwrap();
        assert_eq!(name, filename(db.epoch()));
        let back = load(&dir.join(&name)).unwrap();
        assert_eq!(back.epoch(), db.epoch());
        assert_eq!(back.num_relations(), db.num_relations());
        for (name, rel) in db.named_relations() {
            assert_eq!(back.get(name).unwrap(), &**rel);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The on-disk bytes are a format, not a by-product of the in-memory
    /// layout: one fixed database — arities 1, 2 and 3, an empty relation,
    /// and columns whose largest values need 8, 16, 32 and 64 bits — hashes
    /// (FNV-1a, 64 bits) to the same constant however relations are stored.
    #[test]
    fn snapshot_bytes_are_golden() {
        let dir = temp_dir("golden");
        let mut db = Database::new();
        db.add(Relation::from_flat("U", 1, vec![200, 7, 0, 255]))
            .unwrap();
        db.add(Relation::from_pairs(
            "B",
            vec![(1, 60_000), (70_000, 3), (1, 2), (4_000_000_000, 65_535)],
        ))
        .unwrap();
        db.add(Relation::new(
            "T",
            3,
            vec![vec![u64::MAX, 1, 300], vec![5, 1 << 40, 9], vec![5, 2, 1]],
        ))
        .unwrap();
        db.add(Relation::new("E", 2, vec![])).unwrap();
        let mut delta = Delta::new();
        delta.insert("B", vec![2, 2]);
        delta.remove("U", vec![7]);
        db.apply(&delta).unwrap();
        let bytes = std::fs::read(dir.join(write(&dir, &db).unwrap())).unwrap();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (260, 0xbb30_8550_6d32_0375));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Empty relations may declare [`MAX_EMPTY_COLUMNS`] columns between
    /// them, and not one more: `write` refuses the database that would
    /// pass it, so nothing it writes is a file `load` refuses.
    #[test]
    fn empty_columns_are_capped_on_write() {
        let dir = temp_dir("wide");
        let mut db = Database::new();
        db.add(Relation::new("W", MAX_EMPTY_COLUMNS - 1, vec![]))
            .unwrap();
        db.add(Relation::new("E", 1, vec![])).unwrap();
        let back = load(&dir.join(write(&dir, &db).unwrap())).unwrap();
        assert_eq!(back.get("W").unwrap().arity(), MAX_EMPTY_COLUMNS - 1);
        db.add(Relation::new("F", 1, vec![])).unwrap();
        assert!(matches!(write(&dir, &db), Err(CqcError::Config(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_database_round_trips() {
        let dir = temp_dir("empty");
        let db = Database::new();
        let name = write(&dir, &db).unwrap();
        let back = load(&dir.join(&name)).unwrap();
        assert_eq!(back.epoch(), 0);
        assert_eq!(back.num_relations(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_are_detected() {
        let dir = temp_dir("flip");
        let db = sample_db();
        let name = write(&dir, &db).unwrap();
        let path = dir.join(&name);
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit at a spread of positions — every one must be caught
        // by the checksum (or the magic check), never loaded silently.
        for pos in (0..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(load(&path), Err(CqcError::Io(_))),
                "flip at byte {pos} went undetected"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
