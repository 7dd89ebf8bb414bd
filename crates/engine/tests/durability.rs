//! Engine-level durability: attach → log → crash (drop) → `open` recovers
//! the exact pre-crash epoch and serves byte-identical answers, for one
//! engine and for a fleet of per-slice engines. The byte-format robustness
//! tests live in `cqc-durable`; these cover the wiring above it.

use cqc_common::{AnswerBlock, BlockMerger};
use cqc_engine::{BlockService, Engine, Policy};
use cqc_storage::{Database, Delta, Epoch, PartitionSpec, Partitioning, Relation};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("cqc-eng-dur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn seed_engine() -> Engine {
    let mut engine = Engine::new(Database::new());
    engine
        .add_relation(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 4)]))
        .unwrap();
    engine
        .add_relation(Relation::from_pairs("S", vec![(2, 10), (3, 20), (4, 30)]))
        .unwrap();
    engine
}

fn register_and_serve(engine: &Engine) -> Vec<Vec<u64>> {
    engine
        .register_text(
            "V",
            "V(x, y, z) :- R(x, y), S(y, z)",
            "bff",
            Policy::default(),
        )
        .unwrap();
    let mut out = AnswerBlock::new();
    for x in 1..=4u64 {
        engine.serve_into("V", &[x], &mut out).unwrap();
    }
    out.to_tuples()
}

#[test]
fn attach_log_reopen_recovers_epoch_and_answers() {
    let dir = temp_dir("single");
    let mut engine = seed_engine();
    engine.attach_durable(&dir).unwrap();

    let mut d = Delta::new();
    d.insert("R", vec![4, 4]);
    engine.update(&d).unwrap();
    let mut d = Delta::new();
    d.insert("S", vec![4, 40]);
    d.remove("S", vec![4, 30]);
    engine.update(&d).unwrap();

    let epoch: Epoch = engine.epoch();
    let want = register_and_serve(&engine);
    drop(engine); // "crash": nothing flushed beyond what update() already fsynced

    let recovered = Engine::open(&dir).unwrap();
    assert_eq!(
        recovered.epoch(),
        epoch,
        "must rejoin at the pre-crash epoch"
    );
    let stats = recovered.recovery_stats().unwrap();
    assert_eq!(stats.epoch, epoch);
    assert_eq!(stats.replayed, 2, "both logged deltas replay");
    assert_eq!(stats.truncated_bytes, 0);
    assert_eq!(register_and_serve(&recovered), want);

    // Further updates keep logging: one more delta, one more replay.
    let mut d = Delta::new();
    d.insert("R", vec![9, 9]);
    recovered.update(&d).unwrap();
    let epoch2 = recovered.epoch();
    drop(recovered);
    let again = Engine::open(&dir).unwrap();
    assert_eq!(again.epoch(), epoch2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_compacts_then_reopen_replays_nothing() {
    let dir = temp_dir("ckpt");
    let mut engine = seed_engine();
    engine.attach_durable(&dir).unwrap();
    let mut d = Delta::new();
    d.insert("R", vec![7, 8]);
    engine.update(&d).unwrap();
    engine.checkpoint().unwrap();
    let epoch = engine.epoch();
    drop(engine);

    let recovered = Engine::open(&dir).unwrap();
    assert_eq!(recovered.epoch(), epoch);
    let stats = recovered.recovery_stats().unwrap();
    assert_eq!(stats.replayed, 0, "the snapshot covers everything");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_on_a_fresh_directory_is_a_typed_error() {
    let dir = temp_dir("fresh");
    assert!(Engine::open(&dir).is_err());
    // And attach refuses a directory that already holds state.
    let mut engine = seed_engine();
    engine.attach_durable(&dir).unwrap();
    let mut second = seed_engine();
    assert!(second.attach_durable(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable sharded deployment is one durable [`Engine`] per slice — one
/// `cqe serve --shard=i/n --data-dir=…` each. Every slice logs only its own
/// sub-deltas, rejoins at its own pre-crash epoch (so the fleet rejoins at
/// its exact epoch *vector*), and the recovered slices' streams, k-way
/// merged, equal the unsharded oracle's — order included.
#[test]
fn durable_slices_recover_their_exact_epoch_vector() {
    let base = temp_dir("slices");
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", (0..32u64).map(|i| (i, i + 1))))
        .unwrap();
    db.add(Relation::from_pairs("S", (0..33u64).map(|i| (i, 100 + i))))
        .unwrap();
    let partitioning =
        Partitioning::new(PartitionSpec::new().hash("R", 1).hash("S", 0), 3).unwrap();
    let dirs: Vec<_> = (0..3).map(|s| base.join(format!("slice-{s}"))).collect();
    let mut slices: Vec<Engine> = partitioning
        .split_database(&db)
        .unwrap()
        .into_iter()
        .map(Engine::new)
        .collect();
    for (slice, dir) in slices.iter_mut().zip(&dirs) {
        slice.attach_durable(dir).unwrap();
    }
    let oracle = Engine::new(db);

    // Each delta reaches only the slices owning its rows, so the epoch
    // vector goes uneven.
    let mut first = Delta::new();
    first.insert("R", vec![100, 101]);
    let mut second = Delta::new();
    second.insert("R", vec![101, 102]);
    second.insert("S", vec![101, 201]);
    second.remove("S", vec![5, 105]);
    for delta in [first, second] {
        oracle.update(&delta).unwrap();
        for (slice, sub) in slices.iter().zip(partitioning.split_delta(&delta).unwrap()) {
            if !sub.is_empty() {
                slice.update(&sub).unwrap();
            }
        }
    }
    let version: Vec<Epoch> = slices.iter().map(Engine::epoch).collect();
    assert!(
        version.iter().any(|&e| e != version[0]),
        "the deltas must leave an uneven vector: {version:?}"
    );
    drop(slices); // "crash"

    let recovered: Vec<Engine> = dirs.iter().map(|d| Engine::open(d).unwrap()).collect();
    assert_eq!(
        recovered.iter().map(Engine::epoch).collect::<Vec<_>>(),
        version,
        "each slice must rejoin at its own pre-crash epoch"
    );
    for slice in &recovered {
        assert_eq!(slice.recovery_stats().unwrap().epoch, slice.epoch());
    }

    let query = "V(x, y, z) :- R(x, y), S(y, z)";
    oracle
        .register_text("V", query, "bff", Policy::default())
        .unwrap();
    for slice in &recovered {
        slice
            .register_text("V", query, "bff", Policy::default())
            .unwrap();
    }
    let mut answers = 0;
    for x in 0..=101u64 {
        let mut want = AnswerBlock::new();
        oracle.serve_into("V", &[x], &mut want).unwrap();
        let blocks: Vec<AnswerBlock> = recovered
            .iter()
            .map(|slice| {
                let mut block = AnswerBlock::new();
                slice.serve_into("V", &[x], &mut block).unwrap();
                block
            })
            .collect();
        let refs: Vec<&AnswerBlock> = blocks.iter().collect();
        let mut merged = AnswerBlock::new();
        BlockMerger::new().merge_into(&refs, &mut merged);
        assert_eq!(merged.to_tuples(), want.to_tuples(), "x = {x}");
        answers += want.len();
    }
    assert_eq!(answers, 32, "31 seed paths + (100, 101, 201) - (4, 5, 105)");
    std::fs::remove_dir_all(&base).unwrap();
}
