//! The snapshot decoder under a fixed fuzz budget: seeded,
//! structure-aware mutations of files written by [`snapshot::write`] —
//! bit flips, truncation, extension, and the `nrel`, `arity`, `rows` and
//! string-length fields rewritten to 0, to their maximum, near their old
//! value or past the end of the file — each loaded by [`snapshot::load`].
//! The trailing CRC is recomputed over the mutated body (all but one
//! mutation in eight), so the hostile content reaches the structural
//! checks instead of failing the checksum; the bit-flip test beside
//! `snapshot::load` covers a stale CRC.
//!
//! The contract, per mutated file:
//!
//! * the load does not panic, and ends (the budget completes);
//! * it returns a database or a [`CqcError::Io`], never another error;
//! * it allocates in proportion to the file, never to a count the file
//!   declares: the bytes it requests stay under [`alloc_limit`] —
//!   [`ALLOC_PER_FILE_BYTE`] per file byte, [`ALLOC_PER_COLUMN`] per
//!   column the file can hold (one per 8 bytes of values, plus the
//!   [`snapshot::MAX_EMPTY_COLUMNS`] empty relations may declare) and
//!   [`ALLOC_SLACK`];
//! * a database it returns holds no more values than the file has room
//!   for, sits at the epoch the file names, and writes back to a file that
//!   loads to the same database.
//!
//! One input broke it, and is kept as a named regression: a 133-byte file
//! whose empty relation declared 45 442 columns made `load` request 8 MB
//! (every column of a stored relation costs allocations, rows or not).
//! `load` now refuses empty relations past
//! [`snapshot::MAX_EMPTY_COLUMNS`] columns between them.
//!
//! The binary counts allocations process-wide, so its tests take [`LOCK`]
//! while they load: no other test's allocations land inside a measured
//! load.

use cqc_common::alloc::{bytes_allocated, CountingAlloc};
use cqc_common::CqcError;
use cqc_durable::crc32::crc32;
use cqc_durable::snapshot;
use cqc_storage::{Database, Delta, Relation};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each test while it loads: the counters are process-wide.
static LOCK: Mutex<()> = Mutex::new(());

/// Mutated files per run.
const BUDGET: usize = 4096;

/// Bytes a load may request per byte of its file: the read buffer, the
/// values, a sort's columns and permutation, the packed relation.
const ALLOC_PER_FILE_BYTE: u64 = 16;

/// Bytes a load may request per column of a stored relation, rows or
/// not (177 measured): its order entry, its key and offset columns.
const ALLOC_PER_COLUMN: u64 = 256;

/// Bytes a load may request whatever its file: names, maps, headers.
const ALLOC_SLACK: u64 = 64 * 1024;

/// The most a load of a `len`-byte file may request.
fn alloc_limit(len: usize) -> u64 {
    let columns = len / 8 + snapshot::MAX_EMPTY_COLUMNS;
    ALLOC_PER_FILE_BYTE * len as u64 + ALLOC_PER_COLUMN * columns as u64 + ALLOC_SLACK
}

/// Bytes before the first relation: magic, version, epoch, `nrel`.
const HEADER: usize = 4 + 4 + 8 + 4;

/// A scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("cqc-snapshot-fuzz-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where each field of a snapshot's body sits: the offsets of `nrel`,
/// and per relation of its name's length, its arity and its row count.
#[derive(Debug, Default)]
struct Fields {
    name_lens: Vec<usize>,
    arities: Vec<usize>,
    rows: Vec<usize>,
}

/// A file [`snapshot::write`] wrote, as its body (CRC cut off) and the
/// positions of its fields.
struct Seed {
    body: Vec<u8>,
    fields: Fields,
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// The fields of a well-formed body, walked the way `load` reads them.
fn fields(body: &[u8]) -> Fields {
    let mut f = Fields::default();
    let mut at = HEADER;
    for _ in 0..u32_at(body, HEADER - 4) {
        f.name_lens.push(at);
        at += 4 + u32_at(body, at) as usize;
        f.arities.push(at);
        let arity = u16::from_le_bytes([body[at], body[at + 1]]) as usize;
        f.rows.push(at + 2);
        at += 2 + 8 + 8 * arity * u64_at(body, at + 2) as usize;
    }
    assert_eq!(at, body.len(), "a seed's fields end where its body does");
    f
}

fn db(relations: Vec<Relation>, delta: Option<Delta>) -> Database {
    let mut db = Database::new();
    for r in relations {
        db.add(r).unwrap();
    }
    if let Some(d) = delta {
        db.apply(&d).unwrap();
    }
    db
}

/// The databases every mutation starts from: arities 1 to 4, an empty
/// relation, values of every width, and the empty database.
fn databases() -> Vec<Database> {
    let mut delta = Delta::new();
    delta.insert("R", vec![5, 5]);
    delta.remove("U", vec![7]);
    vec![
        db(
            vec![
                Relation::from_pairs("R", vec![(3, 1), (1, 2), (2, 3)]),
                Relation::new("T", 3, vec![vec![9, 8, 7], vec![1, 2, 3]]),
                Relation::from_flat("U", 1, vec![200, 7, 0, 255]),
            ],
            Some(delta),
        ),
        db(
            vec![
                Relation::from_pairs("B", vec![(1, 60_000), (4_000_000_000, 65_535)]),
                Relation::new("E", 2, vec![]),
                Relation::new("Q", 4, vec![vec![u64::MAX, 1, 300, 1 << 40]]),
            ],
            None,
        ),
        db(
            vec![Relation::from_pairs(
                "edges",
                (0..40u64).map(|i| (i % 7, i * 13 % 11)).collect::<Vec<_>>(),
            )],
            None,
        ),
        Database::new(),
    ]
}

fn seeds(dir: &Path) -> Vec<Seed> {
    databases()
        .iter()
        .map(|d| {
            let mut body = std::fs::read(dir.join(snapshot::write(dir, d).unwrap())).unwrap();
            body.truncate(body.len() - 4);
            let fields = fields(&body);
            Seed { body, fields }
        })
        .collect()
}

/// A value near `old` or at an edge: what a confused or hostile writer is
/// likeliest to emit.
fn near(rng: &mut StdRng, old: u64, max: u64, past_end: u64) -> u64 {
    match rng.gen_range(0..7u32) {
        0 => 0,
        1 => max,
        2 => old.saturating_add(1).min(max),
        3 => old.saturating_sub(1),
        4 => rng.gen_range(0..=max.min(64)),
        5 => past_end.min(max),
        _ => rng.gen_range(0..=max),
    }
}

/// Overwrites the `width`-byte little-endian field at `at`, if the body
/// still holds it.
fn rewrite(body: &mut [u8], at: usize, width: usize, v: u64) {
    if let Some(field) = body.get_mut(at..at + width) {
        field.copy_from_slice(&v.to_le_bytes()[..width]);
    }
}

/// One to three structure-aware mutations of `seed`, then the CRC (stale
/// one time in eight).
fn mutate(rng: &mut StdRng, seed: &Seed) -> Vec<u8> {
    let mut body = seed.body.clone();
    let f = &seed.fields;
    let n = f.arities.len();
    for _ in 0..rng.gen_range(1..=3u32) {
        let len = body.len() as u64;
        match rng.gen_range(0..8u32) {
            // Bit flips anywhere.
            0 if !body.is_empty() => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let i = rng.gen_range(0..body.len());
                    body[i] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            // Truncation.
            1 if !body.is_empty() => body.truncate(rng.gen_range(0..body.len())),
            // Extension by random bytes.
            2 => {
                for _ in 0..rng.gen_range(1..=24u32) {
                    body.push(rng.next_u64() as u8);
                }
            }
            // `nrel`.
            3 => {
                let old = u64::from(u32_at(&seed.body, HEADER - 4));
                let v = near(rng, old, u64::from(u32::MAX), len / 14 + 1);
                rewrite(&mut body, HEADER - 4, 4, v);
            }
            // A relation's arity.
            4 if n > 0 => {
                let at = f.arities[rng.gen_range(0..n)];
                let old = u64::from(u16::from_le_bytes([seed.body[at], seed.body[at + 1]]));
                let v = near(rng, old, u64::from(u16::MAX), len / 8);
                rewrite(&mut body, at, 2, v);
            }
            // A relation's row count.
            5 if n > 0 => {
                let at = f.rows[rng.gen_range(0..n)];
                let v = near(rng, u64_at(&seed.body, at), u64::MAX, len / 8 + 1);
                rewrite(&mut body, at, 8, v);
            }
            // A relation's name length.
            6 if n > 0 => {
                let at = f.name_lens[rng.gen_range(0..n)];
                let old = u64::from(u32_at(&seed.body, at));
                let v = near(rng, old, u64::from(u32::MAX), len);
                rewrite(&mut body, at, 4, v);
            }
            // The magic or version bytes.
            7 => {
                let at = rng.gen_range(0..8usize);
                if let Some(b) = body.get_mut(at) {
                    *b = near(rng, u64::from(*b), 0xFF, 0) as u8;
                }
            }
            _ => {}
        }
    }
    let crc = if rng.gen_range(0..8u32) == 0 {
        crc32(&seed.body)
    } else {
        crc32(&body)
    };
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Values the database holds across its relations.
fn values(db: &Database) -> usize {
    db.named_relations().map(|(_, r)| r.len() * r.arity()).sum()
}

/// What one load came to.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Loaded,
    Refused,
}

/// Loads `bytes` from `path` and checks the contract.
fn check(dir: &Path, path: &Path, bytes: &[u8]) -> Result<(Outcome, u64), String> {
    std::fs::write(path, bytes).unwrap();
    let before = bytes_allocated();
    let loaded = std::panic::catch_unwind(|| snapshot::load(path))
        .map_err(|_| "load panicked".to_string())?;
    let requested = bytes_allocated() - before;
    let limit = alloc_limit(bytes.len());
    if requested > limit {
        return Err(format!(
            "a {}-byte file requested {requested} bytes",
            bytes.len()
        ));
    }
    let db = match loaded {
        Err(CqcError::Io(_)) => return Ok((Outcome::Refused, requested)),
        Err(e) => return Err(format!("untyped refusal: {e}")),
        Ok(db) => db,
    };
    if 8 * values(&db) > bytes.len() {
        return Err(format!(
            "{} values from a {}-byte file",
            values(&db),
            bytes.len()
        ));
    }
    if db.epoch() != u64_at(bytes, 8) {
        return Err(format!("epoch {} is not the file's", db.epoch()));
    }
    let again = snapshot::load(&dir.join(snapshot::write(dir, &db).unwrap()))
        .map_err(|e| format!("a loaded database does not round-trip: {e}"))?;
    let same = again.epoch() == db.epoch()
        && again.num_relations() == db.num_relations()
        && db
            .named_relations()
            .all(|(name, r)| again.get(name) == Some(&**r));
    if !same {
        return Err("a loaded database writes back to a different one".into());
    }
    Ok((Outcome::Loaded, requested))
}

#[test]
fn mutated_snapshots_load_or_fail_typed() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = Scratch::new("fuzz");
    let dir = &scratch.0;
    let path = dir.join("mutant.db");
    let seeds = seeds(dir);

    // Every seed loads, as written, to what it was written from.
    for (seed, db) in seeds.iter().zip(databases()) {
        let mut bytes = seed.body.clone();
        bytes.extend_from_slice(&crc32(&seed.body).to_le_bytes());
        assert_eq!(check(dir, &path, &bytes).unwrap().0, Outcome::Loaded);
        let back = snapshot::load(&path).unwrap();
        assert_eq!((back.epoch(), values(&back)), (db.epoch(), values(&db)));
    }

    let mut rng = StdRng::seed_from_u64(0x5a4e_5f46_555a_5a31);
    let (mut loaded, mut worst) = (0, 0.0f64);
    for i in 0..BUDGET {
        let seed = &seeds[i % seeds.len()];
        let bytes = mutate(&mut rng, seed);
        match check(dir, &path, &bytes) {
            Ok((outcome, requested)) => {
                loaded += usize::from(outcome == Outcome::Loaded);
                worst = worst.max(requested as f64 / alloc_limit(bytes.len()) as f64);
            }
            Err(why) => panic!("mutation {i}: {why}; bytes {bytes:?}"),
        }
    }
    println!(
        "{loaded} of {BUDGET} mutants loaded; the most any load requested was {:.0} % of its limit",
        100.0 * worst
    );
    assert!(
        loaded > 0,
        "some mutants must get past the structural checks"
    );
}

/// The fuzz's one find: a seed whose second relation, `E`, was rewritten
/// to arity 45 442 with no rows. Loading it requested 7 999 386 bytes for
/// a 133-byte file; it is refused now, and so is a file of twenty empty
/// relations at the widest arity the format stores, within the bound.
#[test]
fn a_wide_empty_relation_is_refused_before_it_is_built() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = Scratch::new("wide");
    let dir = &scratch.0;
    let path = dir.join("wide.db");
    let found: &[u8] = &[
        67, 81, 83, 78, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 66, 2, 0, 2, 0,
        0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 96, 234, 0, 0, 0, 0, 0, 0, 0, 40, 107, 238, 0, 0,
        0, 0, 255, 255, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 69, 130, 177, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
        0, 0, 81, 4, 0, 1, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255, 1, 0, 0, 0,
        0, 0, 0, 0, 44, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 110, 173, 81, 164,
    ];
    assert_eq!(
        crc32(&found[..found.len() - 4]),
        u32_at(found, found.len() - 4)
    );
    assert_eq!(check(dir, &path, found).unwrap().0, Outcome::Refused);

    let mut body: Vec<u8> = b"CQSN".to_vec();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&9u64.to_le_bytes());
    body.extend_from_slice(&20u32.to_le_bytes());
    for i in 0..20u8 {
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'a' + i);
        body.extend_from_slice(&u16::MAX.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
    }
    body.extend_from_slice(&crc32(&body).to_le_bytes());
    assert_eq!(check(dir, &path, &body).unwrap().0, Outcome::Refused);
}
