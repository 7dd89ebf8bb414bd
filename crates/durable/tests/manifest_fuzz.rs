//! The manifest decoder under a fixed fuzz budget: seeded, structure-aware
//! mutations of manifests written by [`manifest::store`] — bit flips,
//! truncation, extension, the snapshot name's length rewritten and its
//! text replaced by hostile names (a sibling directory's snapshot, an
//! absolute path, another epoch's name), and the epoch, WAL generation and
//! WAL offset rewritten to 0, to their maximum or near their old value —
//! each loaded by [`manifest::load`] in a store's data directory beside a
//! sibling store's. The trailing CRC is recomputed over the mutated body
//! (all but one mutation in eight), so the hostile content reaches the
//! layout checks instead of failing the checksum.
//!
//! The contract, per mutated manifest:
//!
//! * the load does not panic, and ends (the budget completes);
//! * it returns a manifest or a [`CqcError::Io`], never another error;
//! * a manifest it returns names no snapshot but [`snapshot::filename`] of
//!   its epoch, and [`manifest::store`] writes it back to the same bytes;
//! * [`DurableStore::open`] on the directory, and a checkpoint of what it
//!   recovers, neither panic nor touch a file outside the directory: the
//!   sibling store's files keep their bytes, and nothing appears beside
//!   the two directories.
//!
//! Three inputs broke it, and are kept as named regressions: a manifest
//! whose snapshot name was `../b/snap-….db` made `open` load the sibling
//! store's snapshot, and the next checkpoint delete it; bytes after
//! `wal_offset` were ignored; and a WAL generation of `u64::MAX` loaded,
//! so the next checkpoint overflowed rotating past it (a panic in a debug
//! build, a wrap to generation 0 in release). `load` now refuses all
//! three, and `store` refuses to write what `load` would refuse.

use cqc_common::CqcError;
use cqc_durable::crc32::crc32;
use cqc_durable::manifest::{self, Manifest, MANIFEST_FILE};
use cqc_durable::{snapshot, DurableStore};
use cqc_storage::{Database, Delta, Relation};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Mutated manifests per run.
const BUDGET: usize = 4096;

/// Bytes before the snapshot name's text: magic, version, its length.
const NAME_AT: usize = 4 + 4 + 4;

/// A scratch directory holding the store under test (`a`) and its sibling
/// (`b`), removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("cqc-manifest-fuzz-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn a(&self) -> PathBuf {
        self.0.join("a")
    }

    fn b(&self) -> PathBuf {
        self.0.join("b")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// A database at epoch `epoch`: `R` holds one pair per delta applied.
fn database(epoch: u64) -> Database {
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3)]))
        .unwrap();
    for i in 0..epoch {
        let mut d = Delta::new();
        d.insert("R", vec![10 + i, i]);
        db.apply(&d).unwrap();
    }
    db
}

/// Builds a store in `dir`: created, `logged` deltas logged, checkpointed
/// after the first `checkpoint_at` of them when that is `Some`.
fn store_in(dir: &Path, logged: u64, checkpoint_at: Option<u64>) {
    let store = DurableStore::create(dir).unwrap();
    if checkpoint_at == Some(0) {
        store.checkpoint(&database(0)).unwrap();
    }
    let mut db = database(0);
    for i in 0..logged {
        let mut d = Delta::new();
        d.insert("R", vec![10 + i, i]);
        db.apply(&d).unwrap();
        store.log(db.epoch(), &d).unwrap();
        if checkpoint_at == Some(i + 1) {
            store.checkpoint(&db).unwrap();
        }
    }
}

/// A store's files, and its manifest's body (CRC cut off).
struct Seed {
    files: BTreeMap<String, Vec<u8>>,
    body: Vec<u8>,
}

/// The stores every mutation starts from: fresh, checkpointed at epoch 1
/// with a record past it, and checkpointed at epoch 3 (the sibling's
/// epoch, so its snapshot has the same name).
fn seeds(scratch: &Scratch) -> Vec<Seed> {
    [(0, None), (2, Some(1)), (3, Some(3))]
        .into_iter()
        .map(|(logged, at)| {
            let dir = scratch.0.join("seed");
            let _ = std::fs::remove_dir_all(&dir);
            store_in(&dir, logged, at);
            let mut files = files(&dir);
            std::fs::remove_dir_all(&dir).unwrap();
            let mut body = files.remove(MANIFEST_FILE).unwrap();
            body.truncate(body.len() - 4);
            Seed { files, body }
        })
        .collect()
}

/// The offsets of the three `u64` fields after the name in `body`, while
/// its name length still says where the name ends.
fn tail_fields(body: &[u8]) -> Option<[usize; 3]> {
    let len = u32::from_le_bytes(body.get(8..12)?.try_into().unwrap()) as usize;
    let at = NAME_AT.checked_add(len)?;
    (at + 24 <= body.len()).then_some([at, at + 8, at + 16])
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

/// Names a hostile or confused writer might put where the snapshot's is,
/// `snap` the sibling store's snapshot.
fn hostile_name(rng: &mut StdRng, old: &str, snap: &str) -> String {
    match rng.gen_range(0..7u32) {
        0 => format!("../b/{snap}"),
        1 => format!("/tmp/{snap}"),
        2 => format!("./{old}"),
        3 => snapshot::filename(rng.gen_range(0..8)),
        4 => format!("{old}\0"),
        5 => "..".into(),
        _ => old.to_uppercase(),
    }
}

/// Replaces the name in `body` by `name`, its length field with it.
fn set_name(body: &mut Vec<u8>, name: &str) {
    let Some(len) = body.get(8..12) else { return };
    let old = u32::from_le_bytes(len.try_into().unwrap()) as usize;
    let end = (NAME_AT + old).min(body.len());
    body.splice(NAME_AT..end, name.bytes());
    body[8..12].copy_from_slice(&(name.len() as u32).to_le_bytes());
}

/// One to three structure-aware mutations of `seed`, then the CRC (stale
/// one time in eight); `snap` is the sibling store's snapshot.
fn mutate(rng: &mut StdRng, seed: &Seed, snap: &str) -> Vec<u8> {
    let mut body = seed.body.clone();
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..9u32) {
            // Bit flips anywhere.
            0 => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let i = rng.gen_range(0..body.len());
                    body[i] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            // Truncation.
            1 => body.truncate(rng.gen_range(0..body.len())),
            // Extension by random bytes.
            2 => {
                for _ in 0..rng.gen_range(1..=24u32) {
                    body.push(rng.next_u64() as u8);
                }
            }
            // The name's length.
            3 if body.len() >= NAME_AT => {
                let old = u64::from(u32::from_le_bytes(body[8..12].try_into().unwrap()));
                let v = near(rng, old, u64::from(u32::MAX)) as u32;
                body[8..12].copy_from_slice(&v.to_le_bytes());
            }
            // The name's text.
            4 => {
                let old = tail_fields(&body)
                    .and_then(|[at, ..]| std::str::from_utf8(&body[NAME_AT..at]).ok())
                    .unwrap_or("")
                    .to_string();
                let name = hostile_name(rng, &old, snap);
                set_name(&mut body, &name);
            }
            // The epoch, the WAL generation or the WAL offset.
            5..=6 => {
                if let Some(fields) = tail_fields(&body) {
                    let at = fields[rng.gen_range(0..3usize)];
                    let old = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
                    body[at..at + 8].copy_from_slice(&near(rng, old, u64::MAX).to_le_bytes());
                }
            }
            // Another epoch's canonical name, with that epoch: a snapshot
            // the directory does not hold.
            8 => {
                let epoch = rng.gen_range(0..8u64);
                set_name(&mut body, &snapshot::filename(epoch));
                if let Some([at, ..]) = tail_fields(&body) {
                    body[at..at + 8].copy_from_slice(&epoch.to_le_bytes());
                }
            }
            // The magic or version bytes.
            7 => {
                let at = rng.gen_range(0..8usize.min(body.len()));
                body[at] = near(rng, u64::from(body[at]), 0xFF) as u8;
            }
            _ => {}
        }
        if body.is_empty() {
            body.push(0);
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

/// What one mutated manifest came to.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// `load` refused it.
    Refused,
    /// `load` accepted it and `open` refused the directory.
    Unopened,
    /// Both accepted, and the store checkpointed.
    Opened,
}

/// Puts `seed`'s files and the manifest `bytes` in `scratch`'s `a`, loads,
/// opens and checkpoints it, and checks the contract.
fn check(scratch: &Scratch, seed: &Seed, bytes: &[u8]) -> Result<Outcome, String> {
    let a = scratch.a();
    let _ = std::fs::remove_dir_all(&a);
    std::fs::create_dir_all(&a).unwrap();
    for (name, content) in &seed.files {
        std::fs::write(a.join(name), content).unwrap();
    }
    std::fs::write(a.join(MANIFEST_FILE), bytes).unwrap();
    let loaded =
        std::panic::catch_unwind(|| manifest::load(&a)).map_err(|_| "load panicked".to_string())?;
    let m = match loaded {
        Err(CqcError::Io(_)) => return Ok(Outcome::Refused),
        Err(e) => return Err(format!("untyped refusal: {e}")),
        Ok(None) => return Err("a manifest that exists loaded as none".into()),
        Ok(Some(m)) => m,
    };
    if let Some(name) = &m.snapshot_file {
        if *name != snapshot::filename(m.snapshot_epoch) {
            return Err(format!("accepted snapshot name {name:?}"));
        }
    }
    let rt = scratch.0.join("rt");
    std::fs::create_dir_all(&rt).unwrap();
    manifest::store(&rt, &m).map_err(|e| format!("an accepted manifest does not store: {e}"))?;
    if std::fs::read(rt.join(MANIFEST_FILE)).unwrap() != bytes {
        return Err(format!("{m:?} stores back to other bytes"));
    }
    let opened = std::panic::catch_unwind(|| DurableStore::open(&a))
        .map_err(|_| "open panicked".to_string())?;
    match opened {
        Ok(recovered) => {
            recovered
                .store
                .checkpoint(&recovered.db)
                .map_err(|e| format!("checkpoint failed: {e}"))?;
            Ok(Outcome::Opened)
        }
        Err(CqcError::Io(_) | CqcError::Schema(_)) => Ok(Outcome::Unopened),
        Err(e) => Err(format!("open refused with {e}")),
    }
}

/// The sibling store's files as they must stay, and its snapshot's name.
fn sibling(scratch: &Scratch) -> (BTreeMap<String, Vec<u8>>, String) {
    store_in(&scratch.b(), 3, Some(3));
    let before = files(&scratch.b());
    let snap = before
        .keys()
        .find(|n| n.starts_with("snap-"))
        .unwrap()
        .clone();
    (before, snap)
}

/// Nothing outside `a` (and the round-trip scratch) moved.
fn assert_untouched(scratch: &Scratch, sibling: &BTreeMap<String, Vec<u8>>, ctx: &str) {
    assert!(
        files(&scratch.b()) == *sibling,
        "{ctx}: the sibling store changed"
    );
    let beside: Vec<String> = std::fs::read_dir(&scratch.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !["a", "b", "rt"].contains(&n.as_str()))
        .collect();
    assert!(
        beside.is_empty(),
        "{ctx}: {beside:?} appeared beside the stores"
    );
}

#[test]
fn hostile_manifests_are_refused_or_stay_inside_their_directory() {
    let scratch = Scratch::new("budget");
    let seeds = seeds(&scratch);
    let (sibling, snap) = sibling(&scratch);
    let mut rng = StdRng::seed_from_u64(0x3a11_f357);
    let mut outcomes = BTreeMap::new();
    for i in 0..BUDGET {
        let seed = &seeds[i % seeds.len()];
        let bytes = mutate(&mut rng, seed, &snap);
        let outcome = check(&scratch, seed, &bytes).unwrap_or_else(|e| panic!("mutation {i}: {e}"));
        assert_untouched(&scratch, &sibling, &format!("mutation {i}"));
        *outcomes.entry(format!("{outcome:?}")).or_insert(0usize) += 1;
    }
    // The budget must exercise every verdict.
    assert_eq!(outcomes.len(), 3, "{outcomes:?}");
    assert!(outcomes.values().all(|&n| n >= 32), "{outcomes:?}");
}

/// The manifest `seed` with its body edited by `edit`, under a fresh CRC.
fn edited(seed: &Seed, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = seed.body.clone();
    edit(&mut body);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// The escape: a manifest with a valid CRC naming `../b/snap-….db` made
/// `open` on `a` load `b`'s snapshot, and `a`'s next checkpoint then
/// delete that file out of `b`.
#[test]
fn a_snapshot_in_a_sibling_directory_is_refused() {
    let scratch = Scratch::new("escape");
    let seeds = seeds(&scratch);
    let (sibling, snap) = sibling(&scratch);
    let escape = edited(&seeds[1], |body| set_name(body, &format!("../b/{snap}")));
    assert_eq!(check(&scratch, &seeds[1], &escape), Ok(Outcome::Refused));
    assert!(matches!(
        DurableStore::open(&scratch.a()),
        Err(CqcError::Io(_))
    ));
    assert_untouched(&scratch, &sibling, "escape");
    // `store` does not write it either.
    let m = Manifest {
        snapshot_file: Some(format!("../b/{snap}")),
        snapshot_epoch: 4,
        wal_gen: 1,
        wal_offset: 8,
    };
    assert!(matches!(
        manifest::store(&scratch.a(), &m),
        Err(CqcError::Config(_))
    ));
    // The untouched seed opens.
    let clean = edited(&seeds[1], |_| {});
    assert_eq!(check(&scratch, &seeds[1], &clean), Ok(Outcome::Opened));
}

/// Bytes after `wal_offset`, under a valid CRC, were ignored.
#[test]
fn trailing_bytes_are_refused() {
    let scratch = Scratch::new("trailing");
    let seeds = seeds(&scratch);
    for seed in &seeds {
        let trailing = edited(seed, |body| body.extend_from_slice(&[0; 3]));
        assert_eq!(check(&scratch, seed, &trailing), Ok(Outcome::Refused));
    }
}

/// A WAL generation of `u64::MAX`, under a valid CRC, loaded, and the
/// checkpoint after `open` overflowed computing the next one.
#[test]
fn the_last_wal_generation_is_refused() {
    let scratch = Scratch::new("last-gen");
    let seeds = seeds(&scratch);
    for seed in &seeds {
        let last = edited(seed, |body| {
            let [_, at, _] = tail_fields(body).unwrap();
            body[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert_eq!(check(&scratch, seed, &last), Ok(Outcome::Refused));
    }
}
