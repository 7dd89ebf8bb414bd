//! §1 graph analytics: serving co-author neighborhood queries from a
//! compressed view of an author–paper table, DBLP-style.
//!
//! ```bash
//! cargo run --release --example coauthor_graph
//! ```
//!
//! The co-author graph `V(x, y) = R(x, p), R(y, p)` is usually far denser
//! than the input table (hub papers create cliques). The paper's structures
//! avoid materializing it while still answering neighbor requests fast.
//! Because the PODS'18 framework covers full CQs only (§8 defers
//! projections), the compressed view keeps the witness paper `p`; the
//! neighborhood is the client-side projection of the answer stream.

use cqc_common::heap::HeapSize;
use cqc_common::{AnswerBlock, CountingSink, FnSink};
use cqc_core::compressed::{CompressedView, Strategy};
use cqc_query::parser::parse_adorned;
use cqc_storage::{Database, Interner};
use cqc_workload::graphs;
use std::time::Instant;

fn main() {
    let mut rng = cqc_workload::rng(13);
    let authors = 500u64;
    let papers = 1500u64;
    let rows = 6000usize;
    let table = graphs::author_paper(&mut rng, authors, papers, rows, 1.1);
    let input_tuples = table.len();
    let mut db = Database::new();
    db.add(table).unwrap();

    // A fake interner so the demo reads like DBLP.
    let mut names = Interner::new();
    for i in 0..authors {
        names.intern(&format!("author_{i:03}"));
    }

    let view = parse_adorned("V(x, y, p) :- R(x, p), R(y, p)", "bff").unwrap();

    println!("author-paper table: {input_tuples} rows");
    let t0 = Instant::now();
    let eager = CompressedView::build(&view, &db, Strategy::Materialize).unwrap();
    println!(
        "materialized co-author view: {} tuples-worth, {} B, built in {:.1?}",
        {
            let mut n = CountingSink::default();
            for a in 0..authors {
                eager.answer_into(&[a], &mut n).unwrap();
            }
            n.count
        },
        eager.heap_bytes(),
        t0.elapsed()
    );

    let t0 = Instant::now();
    let compressed = CompressedView::build(
        &view,
        &db,
        Strategy::Tradeoff {
            tau: (input_tuples as f64).sqrt(),
            weights: None,
        },
    )
    .unwrap();
    println!(
        "compressed view (τ = √N):    {} B, built in {:.1?}\n",
        compressed.heap_bytes(),
        t0.elapsed()
    );

    // Neighborhood API: co-authors of an author.
    for author in [0u64, 1, 42] {
        let t = Instant::now();
        // Answers are (y, p) pairs: keep each other author y once.
        let mut coauthors: Vec<u64> = Vec::new();
        let mut keep_y = FnSink(|t: &[u64]| {
            if t[0] != author {
                coauthors.push(t[0]);
            }
            true
        });
        compressed.answer_into(&[author], &mut keep_y).unwrap();
        coauthors.sort_unstable();
        coauthors.dedup();
        let dt = t.elapsed();
        let name = names.resolve(author).unwrap_or("?");
        let display: Vec<&str> = coauthors
            .iter()
            .take(8)
            .map(|&c| names.resolve(c).unwrap_or("?"))
            .collect();
        println!(
            "{name}: {} co-authors in {dt:.1?} — {display:?}{}",
            coauthors.len(),
            if coauthors.len() > 8 { " …" } else { "" }
        );
    }

    // Cross-check one neighborhood against the materialized extreme.
    // Both enumerate in lexicographic order, so the streams are equal as
    // they arrive.
    let (mut a, mut b) = (AnswerBlock::new(), AnswerBlock::new());
    compressed.answer_into(&[7], &mut a).unwrap();
    eager.answer_into(&[7], &mut b).unwrap();
    assert_eq!(a.values(), b.values(), "representations must agree");
    println!("\ncompressed and materialized views agree on author_007");
}
