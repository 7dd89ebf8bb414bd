//! Example 1 from the paper at scale: mutual-friend queries on a synthetic
//! social network, comparing the paper's structure against both extremes.
//!
//! ```bash
//! cargo run --release --example social_triangles
//! ```
//!
//! Prints, for each representation, its space and the time to answer a
//! batch of mutual-friend requests — the `O(N^{3/2}/τ)` space versus
//! `Õ(τ)` delay continuum of the introduction.

use cqc_common::heap::HeapSize;
use cqc_common::CountingSink;
use cqc_core::compressed::{CompressedView, Strategy};
use cqc_core::theorem1::Theorem1Structure;
use cqc_workload::{graphs, queries};
use std::time::Instant;

fn main() {
    let n_nodes = 300u64;
    let n_edges = 3000usize;
    let mut rng = cqc_workload::rng(7);
    let graph = graphs::friendship_graph(&mut rng, n_nodes, n_edges, 1.0);
    let mut db = cqc_storage::Database::new();
    let n = graph.len();
    db.add(graph).unwrap();
    println!("friendship graph: {n} directed edges over {n_nodes} users\n");

    let view = queries::triangle_self("bfb").unwrap();

    // Requests: existing friend pairs (the realistic access pattern).
    let rel = db.get("R").unwrap();
    let requests: Vec<[u64; 2]> = (0..rel.len())
        .step_by(3)
        .map(|i| [rel.value(0, i), rel.value(1, i)])
        .collect();

    // Extreme 1: materialize all triangles (Theorem 2 at δ ≡ 0, one bag
    // keyed by the bound pair).
    let t0 = Instant::now();
    let mat = CompressedView::build(&view, &db, Strategy::Materialize).unwrap();
    let mat_build = t0.elapsed();
    // Extreme 2: evaluate per request (Theorem 1 at τ = ∞, one leaf).
    let t0 = Instant::now();
    let dir = CompressedView::build(&view, &db, Strategy::Direct).unwrap();
    let dir_build = t0.elapsed();

    let run_mat = || {
        let t = Instant::now();
        let mut out = CountingSink::default();
        for r in &requests {
            mat.answer_into(r, &mut out).unwrap();
        }
        (t.elapsed(), out.count)
    };
    let run_dir = || {
        let t = Instant::now();
        let mut out = CountingSink::default();
        let mut join = dir.enumerator();
        for r in &requests {
            join.answer_into(r, &mut out).unwrap();
        }
        (t.elapsed(), out.count)
    };
    let (mat_t, outs) = run_mat();
    let (dir_t, outs2) = run_dir();
    assert_eq!(outs, outs2);

    println!(
        "{:<28} {:>12} {:>12} {:>14}",
        "representation", "space (B)", "build", "answer batch"
    );
    println!(
        "{:<28} {:>12} {:>10.1?} {:>12.1?}",
        "materialized (extreme 1)",
        mat.heap_bytes(),
        mat_build,
        mat_t
    );
    println!(
        "{:<28} {:>12} {:>10.1?} {:>12.1?}",
        "direct (extreme 2)",
        dir.heap_bytes(),
        dir_build,
        dir_t
    );

    for tau in [2.0, 8.0, 32.0] {
        let t0 = Instant::now();
        let s = Theorem1Structure::build(&view, &db, &[0.5, 0.5, 0.5], tau).unwrap();
        let build = t0.elapsed();
        let t = Instant::now();
        let mut out = CountingSink::default();
        let mut cursor = s.enumerator();
        for r in &requests {
            cursor.answer_into(r, &mut out).unwrap();
        }
        let answer = t.elapsed();
        assert_eq!(out.count, outs);
        println!(
            "{:<28} {:>12} {:>10.1?} {:>12.1?}   (tree {} nodes, dict {})",
            format!("theorem 1, τ = {tau}"),
            s.heap_bytes(),
            build,
            answer,
            s.stats().tree_nodes,
            s.stats().dict_entries,
        );
    }
    println!(
        "\n{outs} mutual-friend results per batch of {} requests",
        requests.len()
    );
}
