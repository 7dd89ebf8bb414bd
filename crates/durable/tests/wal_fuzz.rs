//! The WAL scan under a fixed fuzz budget: seeded, structure-aware
//! mutations of logs written by [`WalWriter`] — rewritten header bytes;
//! `len` prefixes set to 0, to [`MAX_FRAME`], past the end of the file or
//! near their old value; records truncated, duplicated, swapped or spliced
//! out of two records; epoch stamps rewritten; payload bytes flipped,
//! truncated or extended — each scanned by [`scan`] from offset 0, the
//! header, a record boundary, the middle of a record or past the end.
//! Epoch and payload mutations recompute the record's CRC (and its `len`
//! where the payload's length changed), so the hostile content reaches the
//! delta decoder and the epoch check instead of failing the checksum:
//! `wal_robustness.rs` covers tears and CRC-failing flips.
//!
//! The contract, per mutated log:
//!
//! * the scan does not panic;
//! * `valid_len` is 0 (with every byte counted as truncated), or it is the
//!   end of the scanned records: the boundary after exactly
//!   `records.len()` of the `len`-prefixed records that follow the scan's
//!   start (`from` clamped to the header, or the header when `from` is past
//!   the end), at or after the header, with the bytes past it truncated;
//! * each scanned record is what its payload decodes to;
//! * epochs strictly increase;
//! * rescanning the first `valid_len` bytes gives the same records and
//!   truncates nothing;
//! * [`WalWriter::open_truncated`] at `valid_len` and one `append` rescan
//!   to those records plus the appended one.
//!
//! No input the budget reaches has broken the contract.

use cqc_common::frame::MAX_FRAME;
use cqc_durable::crc32::crc32;
use cqc_durable::wal::{decode_record_payload, scan, WalWriter, RECORD_HEADER, WAL_HEADER};
use cqc_storage::{Delta, Epoch};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mutated logs per run: a few thousand, a few seconds (each check
/// appends, and an append syncs).
const BUDGET: usize = 4096;

/// A log as bytes: the header, then whole records (`len | crc | payload`).
#[derive(Clone)]
struct Log {
    header: Vec<u8>,
    records: Vec<Vec<u8>>,
}

impl Log {
    fn bytes(&self) -> Vec<u8> {
        let mut out = self.header.clone();
        for r in &self.records {
            out.extend_from_slice(r);
        }
        out
    }
}

/// A fresh scratch file path, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("cqc-wal-fuzz-{}-{tag}-{n}", std::process::id());
        Scratch(std::env::temp_dir().join(name))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn delta(inserts: &[(&str, &[u64])], removes: &[(&str, &[u64])]) -> Delta {
    let mut d = Delta::new();
    for (rel, t) in inserts {
        d.insert(rel, t.to_vec());
    }
    for (rel, t) in removes {
        d.remove(rel, t.to_vec());
    }
    d
}

/// The histories every mutation starts from, each written by a
/// [`WalWriter`] and read back: `(epoch, delta)` per record.
fn histories() -> Vec<Vec<(Epoch, Delta)>> {
    vec![
        vec![
            (1, delta(&[("R", &[1, 2]), ("R", &[3, 4])], &[])),
            (2, delta(&[("S", &[5, 6, 7])], &[("R", &[1, 2])])),
            (5, Delta::new()),
            (9, delta(&[("T", &[u64::MAX, 0])], &[("S", &[5, 6, 7])])),
        ],
        vec![(7, delta(&[("R", &[8, 9])], &[]))],
        Vec::new(),
        (1..=6)
            .map(|e| (e * 3, delta(&[("R", &[e, e + 1])], &[("S", &[e])])))
            .collect(),
    ]
}

/// `history` written by a [`WalWriter`], split at the offsets its appends
/// returned.
fn write_log(history: &[(Epoch, Delta)]) -> Log {
    let file = Scratch::new("seed");
    let mut w = WalWriter::create(&file.0).unwrap();
    let mut ends = vec![WAL_HEADER as usize];
    for (epoch, d) in history {
        ends.push(w.append(*epoch, d).unwrap() as usize);
    }
    let bytes = std::fs::read(&file.0).unwrap();
    assert_eq!(bytes.len(), *ends.last().unwrap());
    Log {
        header: bytes[..WAL_HEADER as usize].to_vec(),
        records: ends
            .windows(2)
            .map(|e| bytes[e[0]..e[1]].to_vec())
            .collect(),
    }
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Rewrites `record`'s `len` to its payload's length and its `crc` to the
/// payload's checksum: what a hostile writer that knows the format emits.
fn reframe(record: &mut [u8]) {
    let payload_len = (record.len() - RECORD_HEADER as usize) as u32;
    let crc = crc32(&record[RECORD_HEADER as usize..]);
    record[..4].copy_from_slice(&payload_len.to_le_bytes());
    record[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// A value near `old` or at an edge.
fn near(rng: &mut StdRng, old: u64, max: u64) -> u64 {
    match rng.gen_range(0..6u32) {
        0 => 0,
        1 => max,
        2 => old.saturating_add(1).min(max),
        3 => old.saturating_sub(1),
        4 => rng.gen_range(0..=max.min(64)),
        _ => rng.gen_range(0..=max),
    }
}

/// One to three structure-aware mutations of `log` (`other` supplies the
/// far half of a splice), then, one time in eight, a cut of the file.
fn mutate(rng: &mut StdRng, log: &Log, other: &Log) -> Vec<u8> {
    let mut log = log.clone();
    for _ in 0..rng.gen_range(1..=3u32) {
        let n = log.records.len();
        let pick = |rng: &mut StdRng| rng.gen_range(0..n);
        match rng.gen_range(0..8u32) {
            // Header bytes.
            0 => {
                let at = rng.gen_range(0..log.header.len());
                log.header[at] = match rng.gen_range(0..3u32) {
                    0 => log.header[at] ^ 1 << rng.gen_range(0..8u32),
                    1 => 0,
                    _ => rng.next_u64() as u8,
                };
            }
            // A `len` prefix at 0, at or past MAX_FRAME, past the end of
            // the file, or near its value; the CRC is left alone.
            1 if n > 0 => {
                let i = pick(rng);
                if log.records[i].len() < 4 {
                    continue; // torn shorter by an earlier mutation
                }
                let old = u64::from(read_u32(&log.records[i], 0));
                let rest: usize = log.records[i..].iter().map(Vec::len).sum();
                let len = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => MAX_FRAME as u64 + rng.gen_range(0..=1u64),
                    2 => rest as u64 + rng.gen_range(0..64u64),
                    _ => near(rng, old, u64::from(u32::MAX)),
                };
                log.records[i][..4].copy_from_slice(&(len as u32).to_le_bytes());
            }
            // A record torn short in the middle of the log.
            2 if n > 0 => {
                let i = pick(rng);
                if log.records[i].is_empty() {
                    continue;
                }
                let keep = rng.gen_range(0..log.records[i].len());
                log.records[i].truncate(keep);
            }
            // A record duplicated right after itself or at the end.
            3 if n > 0 => {
                let i = pick(rng);
                let at = if rng.gen_bool(0.5) { i + 1 } else { n };
                let copy = log.records[i].clone();
                log.records.insert(at, copy);
            }
            // Two records swapped.
            4 if n > 1 => {
                let (i, j) = (pick(rng), pick(rng));
                log.records.swap(i, j);
            }
            // A splice: the head of one record, the tail of another (of
            // this log or of another), reframed one time in two.
            5 if n > 0 && !other.records.is_empty() => {
                let i = pick(rng);
                let from = if rng.gen_bool(0.5) {
                    &log.records
                } else {
                    &other.records
                };
                let tail = &from[rng.gen_range(0..from.len())];
                let head = rng.gen_range(0..=log.records[i].len());
                let cut = rng.gen_range(0..=tail.len());
                let mut spliced = log.records[i][..head].to_vec();
                spliced.extend_from_slice(&tail[cut..]);
                if spliced.len() >= RECORD_HEADER as usize && rng.gen_bool(0.5) {
                    reframe(&mut spliced);
                }
                log.records[i] = spliced;
            }
            // An epoch stamp rewritten, the CRC recomputed.
            6 if n > 0 => {
                let i = pick(rng);
                let at = RECORD_HEADER as usize;
                let epoch_of = |rec: &[u8]| {
                    rec.get(at..at + 8)
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                };
                let Some(old) = epoch_of(&log.records[i]) else {
                    continue;
                };
                let prev = i
                    .checked_sub(1)
                    .and_then(|p| epoch_of(&log.records[p]))
                    .unwrap_or(0);
                let rec = &mut log.records[i];
                let epoch = match rng.gen_range(0..3u32) {
                    0 => prev,
                    1 => prev.saturating_sub(1),
                    _ => near(rng, old, u64::MAX),
                };
                rec[at..at + 8].copy_from_slice(&epoch.to_le_bytes());
                reframe(rec);
            }
            // Payload bytes past the epoch flipped, overwritten with a
            // near-edge count, truncated or extended; `len` and the CRC
            // recomputed.
            7 if n > 0 => {
                let i = pick(rng);
                let rec = &mut log.records[i];
                if rec.len() < RECORD_HEADER as usize {
                    continue;
                }
                let body = RECORD_HEADER as usize + 8;
                match rng.gen_range(0..4u32) {
                    0 if rec.len() > body => {
                        for _ in 0..rng.gen_range(1..=4u32) {
                            let at = rng.gen_range(body..rec.len());
                            rec[at] ^= 1 << rng.gen_range(0..8u32);
                        }
                    }
                    1 if rec.len() >= body + 4 => {
                        let at = rng.gen_range(body..=rec.len() - 4);
                        let old = u64::from(read_u32(rec, at));
                        let new = near(rng, old, u64::from(u32::MAX)) as u32;
                        rec[at..at + 4].copy_from_slice(&new.to_le_bytes());
                    }
                    2 => {
                        let keep = rng.gen_range(RECORD_HEADER as usize..=rec.len());
                        rec.truncate(keep);
                    }
                    _ => {
                        for _ in 0..rng.gen_range(1..=24u32) {
                            rec.push(rng.next_u64() as u8);
                        }
                    }
                }
                if rec.len() > RECORD_HEADER as usize {
                    reframe(rec);
                }
            }
            _ => {}
        }
    }
    let mut bytes = log.bytes();
    if rng.gen_range(0..8u32) == 0 {
        bytes.truncate(rng.gen_range(0..=bytes.len()));
    }
    bytes
}

/// Where to start the scan: 0, the header, the start of some record, the
/// middle of one, or past the end of the file.
fn pick_from(rng: &mut StdRng, bytes: &[u8]) -> u64 {
    let n = bytes.len() as u64;
    match rng.gen_range(0..5u32) {
        0 => 0,
        1 => WAL_HEADER,
        2 => {
            let starts = boundaries(bytes, WAL_HEADER as usize);
            starts[rng.gen_range(0..starts.len())] as u64
        }
        3 => rng.gen_range(0..=n),
        _ => n + rng.gen_range(1..64u64),
    }
}

/// The offsets a scan starting at `start` walks by `len` prefixes alone:
/// `start`, then the end of each whole record it can frame (a non-zero
/// `len` no larger than [`MAX_FRAME`] whose payload fits in the file).
fn boundaries(bytes: &[u8], start: usize) -> Vec<usize> {
    let mut out = vec![start];
    let mut at = start;
    while at + RECORD_HEADER as usize <= bytes.len() {
        let len = read_u32(bytes, at) as usize;
        if len == 0 || len > MAX_FRAME || bytes.len() - at - (RECORD_HEADER as usize) < len {
            break;
        }
        at += RECORD_HEADER as usize + len;
        out.push(at);
    }
    out
}

/// What one mutated log showed, for the coverage counts.
#[derive(Default)]
struct Seen {
    /// The scan kept every record it could frame.
    whole: bool,
    /// The scan stopped at a record whose CRC held: the decoder or the
    /// epoch check refused it.
    refused_past_crc: bool,
}

/// The contract for one log scanned from `from`; `header` is what
/// [`WalWriter::create`] writes.
fn check(file: &Path, bytes: &[u8], from: u64, header: &[u8]) -> Result<Seen, String> {
    std::fs::write(file, bytes).unwrap();
    let s = std::panic::catch_unwind(|| scan(file, from))
        .map_err(|_| "scan panicked".to_string())?
        .map_err(|e| format!("scan failed: {e}"))?;
    let n = bytes.len() as u64;
    let mut seen = Seen::default();
    let start = if s.valid_len == 0 || from > n {
        WAL_HEADER
    } else {
        from.max(WAL_HEADER)
    };
    if s.valid_len == 0 {
        if bytes.starts_with(header) || !s.records.is_empty() || s.truncated_bytes != n {
            return Err(format!("valid_len 0 with {} records", s.records.len()));
        }
    } else {
        let walk = boundaries(bytes, start as usize);
        if walk.get(s.records.len()) != Some(&(s.valid_len as usize)) {
            return Err(format!(
                "valid_len {} is not the end of {} records from {start} ({walk:?})",
                s.valid_len,
                s.records.len()
            ));
        }
        if s.truncated_bytes != n - s.valid_len {
            return Err(format!(
                "{} truncated bytes past {}",
                s.truncated_bytes, s.valid_len
            ));
        }
        for (k, record) in s.records.iter().enumerate() {
            let payload = &bytes[walk[k] + RECORD_HEADER as usize..walk[k + 1]];
            if decode_record_payload(payload).as_ref().ok() != Some(record) {
                return Err(format!("record {k} is not what its payload decodes to"));
            }
        }
        seen.whole = s.records.len() + 1 == walk.len();
        let at = s.valid_len as usize;
        if let Some(&end) = walk.get(s.records.len() + 1) {
            let crc = read_u32(bytes, at + 4);
            seen.refused_past_crc = crc32(&bytes[at + RECORD_HEADER as usize..end]) == crc;
        }
    }
    if !s.records.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("epochs do not strictly increase".to_string());
    }

    // The valid prefix alone scans to the same records, whole.
    std::fs::write(file, &bytes[..s.valid_len as usize]).unwrap();
    let again = scan(file, from).map_err(|e| format!("rescan failed: {e}"))?;
    if again.records != s.records || again.truncated_bytes != 0 {
        return Err(format!(
            "the {}-byte prefix rescans to {} records, {} truncated bytes",
            s.valid_len,
            again.records.len(),
            again.truncated_bytes
        ));
    }

    // Truncate and append: one more record, after the valid ones.
    std::fs::write(file, bytes).unwrap();
    let Some(epoch) = s.records.last().map_or(Some(1), |r| r.0.checked_add(1)) else {
        // Nothing advances past the largest epoch; the engine never
        // stamps it.
        return Ok(seen);
    };
    let extra = delta(&[("R", &[4, 2])], &[]);
    let mut w = WalWriter::open_truncated(file, s.valid_len)
        .map_err(|e| format!("open_truncated failed: {e}"))?;
    let end = w
        .append(epoch, &extra)
        .map_err(|e| format!("append failed: {e}"))?;
    drop(w);
    let after = scan(file, start).map_err(|e| format!("scan after append failed: {e}"))?;
    let mut expect = s.records;
    expect.push((epoch, extra));
    if after.records != expect || after.valid_len != end || after.truncated_bytes != 0 {
        return Err(format!(
            "after one append: {} records to {} ({} truncated), expected {} to {end}",
            after.records.len(),
            after.valid_len,
            after.truncated_bytes,
            expect.len()
        ));
    }
    Ok(seen)
}

#[test]
fn every_seed_scans_to_its_history() {
    let file = Scratch::new("seeds");
    for history in histories() {
        let log = write_log(&history);
        let bytes = log.bytes();
        std::fs::write(&file.0, &bytes).unwrap();
        let s = scan(&file.0, WAL_HEADER).unwrap();
        assert_eq!(s.records, history);
        assert_eq!((s.valid_len, s.truncated_bytes), (bytes.len() as u64, 0));
        assert!(
            check(&file.0, &bytes, WAL_HEADER, &log.header)
                .unwrap()
                .whole
        );
    }
}

#[test]
fn mutated_logs_keep_the_scan_contract() {
    let logs: Vec<Log> = histories().iter().map(|h| write_log(h)).collect();
    let file = Scratch::new("fuzz");
    let mut rng = StdRng::seed_from_u64(0x3a1_f022);
    let (mut whole, mut cut, mut refused_past_crc) = (0usize, 0usize, 0usize);
    for i in 0..BUDGET {
        let log = &logs[i % logs.len()];
        let other = &logs[rng.gen_range(0..logs.len())];
        let bytes = mutate(&mut rng, log, other);
        let from = pick_from(&mut rng, &bytes);
        match check(&file.0, &bytes, from, &logs[0].header) {
            Ok(seen) => {
                if seen.whole {
                    whole += 1;
                } else {
                    cut += 1;
                }
                refused_past_crc += usize::from(seen.refused_past_crc);
            }
            Err(broke) => panic!("mutation {i}, from {from}: {broke}; log {bytes:02x?}"),
        }
    }
    // The budget reaches both verdicts, and hostile content the CRC
    // vouches for.
    assert!(
        whole > BUDGET / 10 && cut > BUDGET / 4 && refused_past_crc > BUDGET / 20,
        "{whole} whole, {cut} cut, {refused_past_crc} refused past a valid CRC"
    );
}
