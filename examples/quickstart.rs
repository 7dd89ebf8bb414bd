//! Quickstart: compress a triangle view and answer access requests.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the full pipeline of the paper on the intro's mutual-friend
//! view `V^bfb(x, y, z) = R(x,y), R(y,z), R(z,x)`: build the compressed
//! representation at a few τ points, inspect the space/delay knobs, and
//! answer requests.

use cqc_common::heap::HeapSize;
use cqc_core::compressed::{CompressedView, Strategy};
use cqc_core::theorem1::Theorem1Structure;
use cqc_query::parser::parse_adorned;
use cqc_storage::{Database, Relation};

fn main() {
    // A small friendship graph (symmetric).
    let edges = vec![
        (1u64, 2u64),
        (2, 3),
        (3, 1),
        (1, 4),
        (4, 2),
        (3, 4),
        (4, 5),
        (5, 1),
        (5, 3),
    ];
    let mut pairs = Vec::new();
    for (a, b) in edges {
        pairs.push((a, b));
        pairs.push((b, a));
    }
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", pairs)).unwrap();
    println!("database: {} tuples", db.size());

    // The adorned view: given friends (x, z), enumerate mutual friends y.
    let view = parse_adorned("V(x, y, z) :- R(x, y), R(y, z), R(z, x)", "bfb").unwrap();
    println!("view: {view}");

    // One structure per point on the space/delay tradeoff.
    for tau in [1.0, 4.0, 16.0] {
        let s = Theorem1Structure::build(&view, &db, &[0.5, 0.5, 0.5], tau).unwrap();
        let st = s.stats();
        println!(
            "τ = {tau:>4}: slack α = {:.1}, tree nodes = {}, dictionary entries = {}, heap = {} B",
            st.alpha, st.tree_nodes, st.dict_entries, st.heap_bytes
        );
    }

    // Answer requests through the unified front door.
    let cv = CompressedView::build(
        &view,
        &db,
        Strategy::Tradeoff {
            tau: 2.0,
            weights: None,
        },
    )
    .unwrap();
    println!(
        "strategy = {}, heap = {} bytes",
        cv.strategy_name(),
        cv.heap_bytes()
    );
    for (x, z) in [(1u64, 2u64), (3, 4), (2, 5)] {
        // Answers arrive at a sink as borrowed slices; a block keeps them
        // flat (one free variable here, so its values are the answers).
        let mut mutuals = cqc_common::AnswerBlock::new();
        cv.answer_into(&[x, z], &mut mutuals).unwrap();
        println!("mutual friends of ({x}, {z}): {:?}", mutuals.values());
    }

    // Boolean access: is there any triangle through the pair at all?
    println!("exists(1, 2) = {}", cv.exists(&[1, 2]).unwrap());
    println!("exists(5, 2) = {}", cv.exists(&[5, 2]).unwrap());
}
