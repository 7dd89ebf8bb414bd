//! Sharded allocation-discipline regression: each shard's steady-state
//! serve loop performs **zero** heap allocations per answer. Every shard
//! is warmed and then measured on the test thread, through the same
//! [`cqc_engine::Engine::with_view_enumerator`] primitive
//! `ShardedEngine::serve_blocks_into` drives, into blocks the test owns —
//! so what is counted is exactly the per-shard enumerate-into-flat-block
//! loops, with no thread spawn or scratch warm-up inside the window.
//! (Reuse of `ShardedBlocks` across calls is pinned by
//! `serve_blocks_into_is_reusable` in `sharded.rs`.)
//!
//! Sabotage check: a `to_vec()` of the answer in
//! `Theorem1Iter::drain_into` turns this test and `alloc_free.rs` red.
//!
//! Single `#[test]` on purpose: the allocation counters are process-wide.

use cqc_common::alloc::{self as cqalloc, CountingAlloc};
use cqc_common::AnswerBlock;
use cqc_engine::{Policy, ShardedEngine, ShardedEngineConfig};
use cqc_query::parser::parse_adorned;
use cqc_storage::Database;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn sharded_steady_state_is_allocation_free() {
    let mut rng = cqc_workload::rng(7);
    let mut db = Database::new();
    for name in ["R", "S"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 600, 40))
            .unwrap();
    }
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "bff").unwrap();
    let sharded = ShardedEngine::for_view(
        db,
        &view,
        ShardedEngineConfig {
            shards: 4,
            ..ShardedEngineConfig::default()
        },
    )
    .unwrap();
    sharded
        .register(
            "p2",
            view,
            Policy::Fixed(cqc_core::Strategy::Tradeoff {
                tau: 8.0,
                weights: None,
            }),
        )
        .unwrap();
    let bounds: Vec<Vec<u64>> = (0..40u64).map(|x| vec![x]).collect();

    let mut blocks: Vec<AnswerBlock> = bounds.iter().map(|_| AnswerBlock::new()).collect();
    let (mut answers, mut allocs) = (0usize, 0u64);
    for s in 0..sharded.num_shards() {
        let shard_allocs = sharded
            .shard(s)
            .with_view_enumerator("p2", |enumerator| {
                let mut pass = |blocks: &mut [AnswerBlock]| {
                    for (b, block) in bounds.iter().zip(blocks.iter_mut()) {
                        block.clear();
                        enumerator.answer_into(b, block).unwrap();
                    }
                };
                // Warm pass: grows the enumerator's scratch and every block
                // to this shard's high-water mark.
                pass(&mut blocks);
                let before = cqalloc::snapshot();
                pass(&mut blocks);
                cqalloc::snapshot().allocations_since(&before)
            })
            .unwrap();
        allocs += shard_allocs;
        answers += blocks.iter().map(AnswerBlock::len).sum::<usize>();
    }
    assert!(
        answers > 1_000,
        "workload too sparse to be meaningful: {answers}"
    );
    assert_eq!(
        allocs, 0,
        "steady-state sharded serving must not allocate ({answers} answers)"
    );
}
