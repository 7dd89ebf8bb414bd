//! §1 statistical inference: the Felix scenario. An inference engine
//! repeatedly evaluates adorned rule views; Felix chooses between eager
//! materialization and lazy evaluation per subquery. The paper's structure
//! explores the whole continuum — this example walks it and also shows
//! Theorem 2 splitting the rule across a decomposition.
//!
//! ```bash
//! cargo run --release --example inference_views
//! ```

use cqc_common::heap::HeapSize;
use cqc_core::compressed::CompressedView;
use cqc_engine::policy::{select, Policy};
use cqc_query::parser::parse_adorned;
use cqc_storage::Database;
use std::time::Instant;

fn main() {
    // Rule body: Mention(doc, person), Friend(person, other),
    // Works(other, org). Access pattern: given (doc, org), enumerate the
    // witnessing (person, other) chains.
    let mut rng = cqc_workload::rng(123);
    let mut db = Database::new();
    for (name, rows) in [("Mention", 4000), ("Friend", 4000), ("Works", 4000)] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, rows, 220))
            .unwrap();
    }
    let view = parse_adorned(
        "Rule(doc, org, person, other) :- Mention(doc, person), Friend(person, other), Works(other, org)",
        "bbff",
    )
    .unwrap();
    println!("rule view: {view}");
    println!("input size |D| = {}\n", db.size());

    let requests = cqc_workload::witness_requests(&mut rng, &view, &db, 400);

    // The two extremes are fixed recipes; the middle ground is the
    // planner's choice under a space budget.
    let strategies = [
        ("lazy (direct)", "direct"),
        ("eager (materialize)", "materialize"),
        ("partial: budget |D|^1.0", "auto:1.0"),
        ("partial: budget |D|^1.3", "auto:1.3"),
        ("partial: budget |D|^2.0", "auto:2.0"),
    ];

    println!(
        "{:<26} {:>12} {:>12} {:>14} {:>10}",
        "strategy", "space (B)", "build", "batch answer", "results"
    );
    for (name, token) in strategies {
        let t0 = Instant::now();
        let selection = select(&view, &db, &Policy::parse(token).unwrap()).unwrap();
        let cv = CompressedView::build(&view, &db, selection.strategy).unwrap();
        let build = t0.elapsed();
        let t0 = Instant::now();
        let mut results = cqc_common::CountingSink::default();
        let mut enumerator = cv.enumerator();
        for r in &requests {
            enumerator.answer_into(r, &mut results).unwrap();
        }
        let results = results.count;
        let answer = t0.elapsed();
        println!(
            "{:<26} {:>12} {:>10.1?} {:>12.1?} {:>10}",
            name,
            cv.heap_bytes(),
            build,
            answer,
            results
        );
    }

    println!(
        "\nThe partial strategies realize Felix's missing middle ground: \
         less space than eager, faster answers than lazy."
    );
}
