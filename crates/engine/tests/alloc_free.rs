//! Allocation-discipline regression: steady-state serving performs **zero**
//! heap allocations per answer.
//!
//! This test binary installs the vendored counting allocator from
//! `cqc_common::alloc` as its global allocator, warms a view enumerator's
//! scratch and the test's own answer block with one pass over a request
//! stream, and asserts the second pass allocates nothing at all. The file
//! intentionally contains a single `#[test]`: the counters are
//! process-wide, and a concurrently running test would pollute the
//! measured window.
//!
//! Sabotage check: a `to_vec()` of the answer in
//! `Theorem1Iter::drain_into` turns this test and `sharded_alloc.rs` red.

use cqc_common::alloc::{self as cqalloc, CountingAlloc};
use cqc_common::AnswerBlock;
use cqc_engine::{Engine, Policy};
use cqc_storage::Database;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_serve_is_allocation_free() {
    // A dense 2-path workload with a Theorem 1 representation — the
    // acceptance path of the flat-block pipeline.
    let mut rng = cqc_workload::rng(7);
    let mut db = Database::new();
    for name in ["R", "S"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 600, 40))
            .unwrap();
    }
    let engine = Engine::new(db);
    engine
        .register_text(
            "p2",
            "Q(x,y,z) :- R(x,y), S(y,z)",
            "bff",
            Policy::Fixed(cqc_core::Strategy::Tradeoff {
                tau: 8.0,
                weights: None,
            }),
        )
        .unwrap();
    let bounds: Vec<Vec<u64>> = (0..40u64).map(|x| vec![x]).collect();

    // Oracle pass through the legacy pull path (also warms the catalog).
    let expected: Vec<Vec<Vec<u64>>> = bounds
        .iter()
        .map(|b| engine.answer("p2", b).unwrap())
        .collect();
    let total: usize = expected.iter().map(Vec::len).sum();
    assert!(
        total > 1_000,
        "workload too sparse to be meaningful: {total}"
    );

    let mut block = AnswerBlock::new();
    let (served, allocs) = engine
        .with_view_enumerator("p2", |enumerator| {
            // Warm pass: grows every scratch buffer to its high-water mark.
            for b in &bounds {
                block.clear();
                enumerator.answer_into(b, &mut block).unwrap();
            }
            // Measured pass: steady state must not touch the allocator.
            let before = cqalloc::snapshot();
            let mut served = 0usize;
            for (b, expect) in bounds.iter().zip(&expected) {
                block.clear();
                enumerator.answer_into(b, &mut block).unwrap();
                served += block.len();
                assert_eq!(block.len(), expect.len(), "cardinality for {b:?}");
            }
            (served, cqalloc::snapshot().allocations_since(&before))
        })
        .unwrap();

    assert_eq!(served, total, "flat path must serve every answer");
    assert_eq!(
        allocs, 0,
        "steady-state serving of {served} answers performed {allocs} heap allocations \
         (expected 0; the flat-block pipeline regressed)"
    );

    // Correctness of the measured pass (content, not just counts): replay
    // once more and compare tuples outside the measured window.
    engine
        .with_view_enumerator("p2", |enumerator| {
            for (b, expect) in bounds.iter().zip(&expected) {
                block.clear();
                enumerator.answer_into(b, &mut block).unwrap();
                assert_eq!(&block.to_tuples(), expect, "answers for {b:?}");
            }
        })
        .unwrap();
}
