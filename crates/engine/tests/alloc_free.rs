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
//! `Theorem1Iter::drain_into` turns this test and `sharded_alloc.rs` red;
//! a fresh root-check probe key per request in `Theorem2Iter::reset`
//! (`let (valuation, key) = (&self.valuation, &mut Vec::new());` for the
//! destructuring in its loop) turns the all-bound row red, 2 allocations a
//! request; reading
//! the head from `s.view.free_head()` in `Theorem2Iter::fill_emit` (a
//! fresh `Vec` per answer, as before PR 25) turns both d-representation
//! rows — the factorized 2-path and the 3-path at `bbff` — red. The two
//! §2.3 extremes have rows of their own, each with its sabotage:
//! `materialize` (`p2_mat`, Theorem 2's odometer over one bag) turns red
//! when `Theorem2Iter::reset` takes a fresh valuation per request
//! (`self.valuation = vec![None; self.s.num_vars];` for its `clear` and
//! `resize`); `direct` (`p2_dir`, Theorem 1's one leaf, so every answer
//! comes out of the `⊥` branch's join) turns red when
//! `Theorem1Iter::advance` builds a fresh join per box
//! (`Some(j) => *j = s.plan.join(cons.clone()),` for its `reset`).

use cqc_common::alloc::{self as cqalloc, CountingAlloc};
use cqc_common::AnswerBlock;
use cqc_engine::{Engine, Policy};
use cqc_join::naive::evaluate_view;
use cqc_query::parser::parse_adorned;
use cqc_storage::Database;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serves `bounds` from one enumerator of `view` three times — a warm pass
/// that grows every scratch buffer to its high-water mark, a measured pass
/// and a content pass outside the measured window — and returns the
/// measured pass's `(answers served, heap allocations)`. Every pass must
/// serve exactly `expected`, the naive join's answers in its order.
fn steady_state(
    engine: &Engine,
    view: &str,
    bounds: &[Vec<u64>],
    expected: &[Vec<Vec<u64>>],
) -> (usize, u64) {
    let mut block = AnswerBlock::new();
    engine
        .with_view_enumerator(view, |enumerator| {
            for b in bounds {
                block.clear();
                enumerator.answer_into(b, &mut block).unwrap();
            }
            let before = cqalloc::snapshot();
            let mut served = 0usize;
            for (b, expect) in bounds.iter().zip(expected) {
                block.clear();
                enumerator.answer_into(b, &mut block).unwrap();
                served += block.len();
                assert_eq!(block.len(), expect.len(), "`{view}`: cardinality for {b:?}");
            }
            let allocs = cqalloc::snapshot().allocations_since(&before);
            for (b, expect) in bounds.iter().zip(expected) {
                block.clear();
                enumerator.answer_into(b, &mut block).unwrap();
                assert_eq!(&block.to_tuples(), expect, "`{view}`: answers for {b:?}");
            }
            (served, allocs)
        })
        .unwrap()
}

#[test]
fn steady_state_serve_is_allocation_free() {
    // A dense 2-path workload with a Theorem 1 representation — the
    // acceptance path of the flat-block pipeline — and the same join
    // all-bound, which Proposition 1 — Theorem 2 over the root bag —
    // answers by membership probes.
    let mut rng = cqc_workload::rng(7);
    let mut db = Database::new();
    for name in ["R", "S", "T"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 600, 40))
            .unwrap();
    }
    let engine = Engine::new(db);
    let query = "Q(x,y,z) :- R(x,y), S(y,z)";
    engine
        .register_text(
            "p2",
            query,
            "bff",
            Policy::Fixed(cqc_core::Strategy::Tradeoff {
                tau: 8.0,
                weights: None,
            }),
        )
        .unwrap();
    let all_bound = engine
        .register_text("p2_bbb", query, "bbb", Policy::default())
        .unwrap();
    assert_eq!(all_bound.selection.tag, "bound-only");
    // Two d-representations (Theorem 2 at δ ≡ 0): the same 2-path, and a
    // 3-path with two bound variables, whose `R(w, x)` is a root check.
    let factorized = Policy::Fixed(cqc_core::Strategy::Factorized);
    let query3 = "Q(w,x,y,z) :- R(w,x), S(x,y), T(y,z)";
    for (name, query, pattern) in [("p2_fac", query, "bff"), ("p3_fac", query3, "bbff")] {
        let registered = engine
            .register_text(name, query, pattern, factorized.clone())
            .unwrap();
        assert_eq!(registered.selection.tag, "factorized");
    }
    // The two §2.3 extremes of the same 2-path: one Theorem 2 bag keyed by
    // `x`, and Theorem 1 at τ = ∞ (one leaf, the join over the whole grid).
    for (name, token) in [("p2_mat", "materialize"), ("p2_dir", "direct")] {
        let policy = Policy::parse(token).unwrap();
        engine.register_text(name, query, "bff", policy).unwrap();
    }

    // The oracle is the naive join over the engine's snapshot.
    let oracle = |query: &str, pattern: &str, bounds: &[Vec<u64>]| -> Vec<Vec<Vec<u64>>> {
        let view = parse_adorned(query, pattern).unwrap();
        let db = engine.db();
        let answers = bounds.iter().map(|b| evaluate_view(&view, &db, b).unwrap());
        answers.collect()
    };
    let bounds: Vec<Vec<u64>> = (0..40u64).map(|x| vec![x]).collect();
    let expected = oracle(query, "bff", &bounds);
    let total: usize = expected.iter().map(Vec::len).sum();
    assert!(
        total > 1_000,
        "workload too sparse to be meaningful: {total}"
    );

    for view in ["p2", "p2_fac", "p2_mat", "p2_dir"] {
        let (served, allocs) = steady_state(&engine, view, &bounds, &expected);
        assert_eq!(served, total, "`{view}`: flat path must serve every answer");
        assert_eq!(
            allocs, 0,
            "`{view}`: steady-state serving of {served} answers performed {allocs} heap \
             allocations (expected 0; the flat-block pipeline regressed)"
        );
    }

    // All-bound requests: every fifth answer of the 2-path (a hit) and the
    // same valuation with z pushed out of the domain (a miss).
    let mut probes: Vec<Vec<u64>> = Vec::new();
    for (b, answers) in bounds.iter().zip(&expected) {
        for yz in answers.iter().step_by(5) {
            probes.push(vec![b[0], yz[0], yz[1]]);
            probes.push(vec![b[0], yz[0], yz[1] + 1_000]);
        }
    }
    let expected = oracle(query, "bbb", &probes);
    let hits = expected.iter().filter(|a| !a.is_empty()).count();
    assert_eq!(hits * 2, probes.len(), "half the probes hit");
    let work = cqc_common::metrics::snapshot();
    let (served, allocs) = steady_state(&engine, "p2_bbb", &probes, &expected);
    let work = cqc_common::metrics::snapshot().delta_since(&work).work();
    assert_eq!(served, hits);
    assert_eq!(
        allocs,
        0,
        "{} all-bound requests performed {allocs} heap allocations (expected 0: the probe \
         key is the enumerator's scratch)",
        probes.len()
    );
    // A root check is one binary search over the relation's rows: no trie
    // seek, count probe or dictionary lookup.
    assert_eq!(work, 0, "all-bound requests did {work} units of work");

    // The 3-path at `bbff`: every `(w, x)` of `R` with `w` below 40 (a
    // hit, its answers from two bags) and the same `x` under a `w` outside
    // the domain (a root-check miss).
    let pairs: Vec<Vec<u64>> = {
        let db = engine.db();
        let r = db.require("R").unwrap();
        (0..r.len())
            .map(|i| [r.value(0, i), r.value(1, i)])
            .filter(|wx| wx[0] < 40)
            .flat_map(|wx| [wx.to_vec(), vec![wx[0] + 1_000, wx[1]]])
            .collect()
    };
    let expected = oracle(query3, "bbff", &pairs);
    let total: usize = expected.iter().map(Vec::len).sum();
    assert!(total > 1_000, "3-path workload too sparse: {total}");
    let (served, allocs) = steady_state(&engine, "p3_fac", &pairs, &expected);
    assert_eq!(served, total);
    assert_eq!(
        allocs, 0,
        "`p3_fac`: steady-state serving of {served} answers performed {allocs} heap \
         allocations (expected 0: a request binds, and every answer reads, the structure's \
         own head lists)"
    );
}
