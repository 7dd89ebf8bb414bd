//! Order-aware range access: because Theorem 1 enumerates in lexicographic
//! order, the structure supports "answers between `lo` and `hi`" natively —
//! only the O(log) tree nodes straddling the range boundary lose the
//! dictionary's progress guarantee.
//!
//! ```bash
//! cargo run --release --example range_access
//! ```
//!
//! The scenario: a product co-purchase graph; given two products that are
//! often bought together (bound pair), list the common co-purchases whose
//! ids fall in a catalogue segment (the range).

use cqc_common::{AnswerBlock, CountingSink, ExistsSink};
use cqc_core::theorem1::Theorem1Structure;
use cqc_workload::{graphs, queries};
use std::time::Instant;

fn main() {
    let mut rng = cqc_workload::rng(77);
    let graph = graphs::friendship_graph(&mut rng, 500, 4000, 0.9);
    let mut db = cqc_storage::Database::new();
    db.add(graph).unwrap();
    println!("co-purchase graph: {} edges", db.size());

    // V^bfb(x, y, z): given products (x, z), enumerate common neighbors y.
    let view = queries::triangle_self("bfb").unwrap();
    let s = Theorem1Structure::build(&view, &db, &[0.5, 0.5, 0.5], 8.0).unwrap();
    println!(
        "structure: α = {}, {} tree nodes, {} dictionary entries\n",
        s.alpha(),
        s.stats().tree_nodes,
        s.stats().dict_entries
    );

    // Pick a bound pair with a fat answer.
    let rel = db.get("R").unwrap();
    // One cursor serves every request below from the same scratch.
    let mut cursor = s.enumerator();
    let mut best = ([0u64, 0u64], 0usize);
    for i in (0..rel.len()).step_by(11) {
        let pair = [rel.value(0, i), rel.value(1, i)];
        let mut n = CountingSink::default();
        cursor.answer_into(&pair, &mut n).unwrap();
        if n.count > best.1 {
            best = (pair, n.count);
        }
    }
    let (pair, total) = best;
    println!("pair {pair:?} has {total} common co-purchases");

    // Full enumeration vs three catalogue segments.
    let t = Instant::now();
    // μ = 1: a block's flat values are the answers themselves.
    let mut all = AnswerBlock::new();
    cursor.answer_into(&pair, &mut all).unwrap();
    println!(
        "full enumeration: {} results in {:.1?}",
        all.len(),
        t.elapsed()
    );

    for (lo, hi) in [(0u64, 99u64), (100, 299), (300, 499)] {
        let t = Instant::now();
        let mut seg = AnswerBlock::new();
        cursor
            .answer_range_into(&pair, &[lo], &[hi], &mut seg)
            .unwrap();
        let dt = t.elapsed();
        // Cross-check against the client-side filter.
        let expect: Vec<u64> = all
            .values()
            .iter()
            .copied()
            .filter(|&y| y >= lo && y <= hi)
            .collect();
        assert_eq!(seg.values(), expect);
        println!(
            "segment [{lo:>3}, {hi:>3}]: {:>3} results in {dt:.1?} (verified)",
            seg.len()
        );
    }

    // Ranges also compose with the boolean probe: "is anything in this
    // segment?" without enumerating it.
    let mut any_high = ExistsSink::default();
    cursor
        .answer_range_into(&pair, &[450], &[499], &mut any_high)
        .unwrap();
    println!("\nany co-purchase with id ≥ 450? {}", any_high.found);
}
