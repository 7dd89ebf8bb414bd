//! The write-ahead delta log.
//!
//! File layout: an 8-byte header (`b"CQWL" | u32 version`), then records
//! back to back:
//!
//! ```text
//! | len: u32 le | crc: u32 le | payload: len bytes |
//! payload = u64 epoch | delta (cqc_storage::wire layout)
//! ```
//!
//! `crc` is the CRC-32 of the payload. Epochs are strictly increasing
//! within a file — each record carries the database epoch *after* its
//! delta applied — which is what lets [`scan`] detect a duplicated tail
//! (a record replayed into the file twice by a corrupt copy) as cleanly
//! as a torn or bit-flipped one: replay stops at the first record that is
//! short, fails its checksum, fails to parse, or does not advance the
//! epoch, and everything from that point on is the invalid tail.
//!
//! Durability contract: [`WalWriter::append`] returns only after
//! `fdatasync`. The engine calls it after a delta has applied to its
//! private copy of the database but **before** the new epoch is published,
//! so every epoch any reader ever observed is reconstructible from disk.

use crate::crc32::crc32;
use cqc_common::error::{CqcError, Result};
use cqc_common::frame::{code, PayloadReader, PayloadWriter, MAX_FRAME};
use cqc_storage::{wire, Delta, Epoch};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Size of the file header (`b"CQWL" | u32 version`).
pub const WAL_HEADER: u64 = 8;

/// Per-record framing overhead (`u32 len | u32 crc`).
pub const RECORD_HEADER: u64 = 8;

const MAGIC: [u8; 4] = *b"CQWL";
const VERSION: u32 = 1;

/// Encodes one framed record: `u32 len | u32 crc | u64 epoch | delta`.
pub fn encode_record(epoch: Epoch, delta: &Delta) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.start().put_u64(epoch);
    wire::put_delta(&mut w, delta);
    let payload = w.bytes();
    let mut rec = Vec::with_capacity(RECORD_HEADER as usize + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// Decodes a record payload (the bytes after the `len`/`crc` framing)
/// back into its epoch stamp and delta.
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation or trailing bytes.
pub fn decode_record_payload(payload: &[u8]) -> Result<(Epoch, Delta)> {
    let mut r = PayloadReader::new(payload);
    let epoch = r.get_u64()?;
    let delta = wire::read_delta(&mut r)?;
    if r.remaining() > 0 {
        return Err(CqcError::Protocol {
            code: code::BAD_FRAME,
            detail: format!(
                "{} trailing bytes after a WAL record payload",
                r.remaining()
            ),
        });
    }
    Ok((epoch, delta))
}

/// What a [`scan`] of a log found: the valid prefix, decoded.
#[derive(Debug)]
pub struct WalScan {
    /// The records of the valid prefix, in file order.
    pub records: Vec<(Epoch, Delta)>,
    /// File offset one past the last valid record — where the file must
    /// be truncated to and where appends resume. `0` means the header
    /// itself was missing or foreign and the file must be recreated.
    pub valid_len: u64,
    /// Bytes past `valid_len` (the torn/corrupt tail to be dropped).
    pub truncated_bytes: u64,
}

/// Reads the log at `path`, decoding records from offset `from` (clamped
/// into the file; pass a manifest's `wal_offset` to skip the compacted
/// prefix) until the first invalid record. Never panics on corrupt input:
/// a short header, a record that overruns the file, a checksum or parse
/// failure, and a non-advancing epoch all simply end the valid prefix.
///
/// # Errors
///
/// Only real I/O failures; corruption is reported through the scan.
pub fn scan(path: &Path, from: u64) -> Result<WalScan> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < WAL_HEADER as usize
        || bytes[..4] != MAGIC
        || u32::from_le_bytes(bytes[4..8].try_into().expect("len 4")) != VERSION
    {
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            truncated_bytes: bytes.len() as u64,
        });
    }
    let mut pos = from.max(WAL_HEADER) as usize;
    if pos > bytes.len() {
        pos = WAL_HEADER as usize; // manifest ahead of the file: rescan all
    }
    let mut records = Vec::new();
    let mut last_epoch: Option<Epoch> = None;
    let mut valid = pos;
    while pos < bytes.len() {
        let left = bytes.len() - pos;
        if left < RECORD_HEADER as usize {
            break; // torn mid-header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4")) as usize;
        if len == 0 || len > MAX_FRAME {
            break; // corrupt length prefix
        }
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("len 4"));
        if left - (RECORD_HEADER as usize) < len {
            break; // torn mid-payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // bit flip
        }
        let Ok((epoch, delta)) = decode_record_payload(payload) else {
            break; // checksum collided with a parse failure: still corrupt
        };
        if last_epoch.is_some_and(|e| epoch <= e) {
            break; // duplicated or reordered tail
        }
        last_epoch = Some(epoch);
        records.push((epoch, delta));
        pos += RECORD_HEADER as usize + len;
        valid = pos;
    }
    Ok(WalScan {
        records,
        valid_len: valid as u64,
        truncated_bytes: (bytes.len() - valid) as u64,
    })
}

/// An open log positioned for appending.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    offset: u64,
}

impl WalWriter {
    /// Creates (or truncates to empty) the log at `path`: header written
    /// and fsynced, positioned at [`WAL_HEADER`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn create(path: &Path) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            offset: WAL_HEADER,
        })
    }

    /// Opens the log at `path` for appending after a [`scan`]: the file is
    /// physically truncated to `valid_len` (dropping the torn tail — this
    /// is the "cleanly truncating" half of recovery) and the writer
    /// positioned at the end. `valid_len == 0` (bad header) recreates the
    /// file from scratch.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open_truncated(path: &Path, valid_len: u64) -> Result<WalWriter> {
        if valid_len < WAL_HEADER {
            return WalWriter::create(path);
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalWriter {
            file,
            offset: valid_len,
        })
    }

    /// Appends one epoch-stamped delta record and fsyncs (`fdatasync`);
    /// returns the new end-of-log offset. On return the record is durable:
    /// the caller may publish the epoch.
    ///
    /// # Errors
    ///
    /// I/O failures (the record may then be partially written — exactly
    /// the torn tail the next [`scan`] truncates).
    pub fn append(&mut self, epoch: Epoch, delta: &Delta) -> Result<u64> {
        let rec = encode_record(epoch, delta);
        self.file.write_all(&rec)?;
        self.file.sync_data()?;
        self.offset += rec.len() as u64;
        Ok(self.offset)
    }

    /// Current end-of-log offset (header included).
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(rel: &str, rows: &[(u64, u64)]) -> Delta {
        let mut d = Delta::new();
        for &(a, b) in rows {
            d.insert(rel, vec![a, b]);
        }
        d
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("cqc-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_scan_round_trip() {
        let path = temp_path("round-trip");
        let mut w = WalWriter::create(&path).unwrap();
        let d1 = delta("R", &[(1, 2), (3, 4)]);
        let d2 = delta("S", &[(5, 6)]);
        w.append(4, &d1).unwrap();
        let end = w.append(5, &d2).unwrap();
        assert_eq!(end, w.offset());

        let scan = scan(&path, WAL_HEADER).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.valid_len, end);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], (4, d1));
        assert_eq!(scan.records[1], (5, d2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_ends_the_valid_prefix() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(1, &delta("R", &[(1, 2)])).unwrap();
        let good = w.offset();
        // A torn append: only half of the next record reaches the disk.
        let rec = encode_record(2, &delta("R", &[(3, 4)]));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&rec[..rec.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let s = scan(&path, WAL_HEADER).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.valid_len, good);
        assert_eq!(s.truncated_bytes, (rec.len() / 2) as u64);

        // Recovery truncates and appends continue seamlessly.
        let mut w = WalWriter::open_truncated(&path, s.valid_len).unwrap();
        w.append(2, &delta("R", &[(3, 4)])).unwrap();
        let s = scan(&path, WAL_HEADER).unwrap();
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_tail_is_cut_at_the_epoch_check() {
        let path = temp_path("dup");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(1, &delta("R", &[(1, 2)])).unwrap();
        let one = std::fs::read(&path).unwrap();
        // Corrupt copy doubled the record: same epoch twice.
        let mut doubled = one.clone();
        doubled.extend_from_slice(&one[WAL_HEADER as usize..]);
        std::fs::write(&path, &doubled).unwrap();
        let s = scan(&path, WAL_HEADER).unwrap();
        assert_eq!(s.records.len(), 1, "duplicate must not replay twice");
        assert_eq!(s.valid_len, one.len() as u64);
        assert!(s.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_or_foreign_header_means_recreate() {
        let path = temp_path("hdr");
        std::fs::write(&path, b"not a wal").unwrap();
        let s = scan(&path, WAL_HEADER).unwrap();
        assert_eq!(s.valid_len, 0);
        assert!(s.records.is_empty());
        let w = WalWriter::open_truncated(&path, 0).unwrap();
        assert_eq!(w.offset(), WAL_HEADER);
        let s = scan(&path, WAL_HEADER).unwrap();
        assert_eq!(s.valid_len, WAL_HEADER);
        std::fs::remove_file(&path).unwrap();
    }
}
