//! Engine-level durability: attach → log → crash (drop) → `open` recovers
//! the exact pre-crash epoch and serves byte-identical answers, for both
//! the single engine and the sharded engine. The byte-format robustness
//! tests live in `cqc-durable`; these cover the wiring above it.

use cqc_common::AnswerBlock;
use cqc_engine::{BlockService, Engine, Policy, ShardedEngine, ShardedEngineConfig};
use cqc_storage::{Database, Delta, Epoch, PartitionSpec, Relation};

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

#[test]
fn sharded_engine_recovers_its_exact_epoch_vector() {
    let dir = temp_dir("sharded");
    let mut db = cqc_storage::Database::new();
    db.add(Relation::from_pairs("R", (0..32u64).map(|i| (i, i + 1))))
        .unwrap();
    db.add(Relation::from_pairs("S", (0..33u64).map(|i| (i, 100 + i))))
        .unwrap();
    let spec = PartitionSpec::new().hash("R", 1).hash("S", 0);
    let config = ShardedEngineConfig {
        shards: 3,
        ..ShardedEngineConfig::default()
    };
    let mut sharded = ShardedEngine::new(db, spec.clone(), config).unwrap();
    sharded.attach_durable(&dir).unwrap();

    // Touch only some shards so the epoch vector is uneven.
    let mut d = Delta::new();
    d.insert("R", vec![100, 101]);
    sharded.update(&d).unwrap();
    let mut d = Delta::new();
    d.insert("R", vec![100, 102]);
    d.insert("S", vec![100, 200]);
    sharded.update(&d).unwrap();

    let version = sharded.version();
    let planning_rows: usize = sharded.planning_db().relations().map(|r| r.len()).sum();
    drop(sharded);

    let recovered = ShardedEngine::open(&dir, spec, config).unwrap();
    assert_eq!(recovered.num_shards(), 3);
    assert_eq!(
        recovered.version(),
        version,
        "each shard must rejoin at its own pre-crash epoch"
    );
    let merged_rows: usize = recovered.planning_db().relations().map(|r| r.len()).sum();
    assert_eq!(
        merged_rows, planning_rows,
        "the merged planning snapshot must match the pre-crash one"
    );
    assert!(recovered.recovery_stats().is_some());

    // The recovered engine registers and serves like the original.
    recovered
        .register_text(
            "V",
            "V(x, y, z) :- R(x, y), S(y, z)",
            "bff",
            Policy::default(),
        )
        .unwrap();
    let mut served = AnswerBlock::new();
    recovered.serve_into("V", &[5], &mut served).unwrap();
    assert_eq!(served.to_tuples(), vec![vec![6, 106]]);
    std::fs::remove_dir_all(&dir).unwrap();
}
