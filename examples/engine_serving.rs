//! Register-once / serve-many with the engine on the social-triangles
//! workload: the mutual-friends view of Example 1, served concurrently from
//! the representation catalog.
//!
//! ```bash
//! cargo run --release --example engine_serving
//! ```
//!
//! Demonstrates the subsystem the paper motivates: one compressed
//! representation, built once by auto strategy selection, amortized over a
//! large batch of access requests served across threads — with the catalog
//! proving that the request path performs zero rebuilds.

use cqc_common::measure::{fmt_bytes, fmt_ns};
use cqc_common::CountingSink;
use cqc_engine::{stripe_requests, BlockService, Engine, Policy};
use cqc_workload::{graphs, queries, witness_requests};
use std::time::Instant;

fn main() {
    // A skewed friendship graph, as in the paper's §1 social-network pitch.
    let mut rng = cqc_workload::rng(7);
    let graph = graphs::friendship_graph(&mut rng, 500, 6000, 1.0);
    let mut db = cqc_storage::Database::new();
    db.add(graph).unwrap();
    println!("|D| = {} friendship edges over 500 users", db.size());

    let engine = Engine::new(db);

    // Register once: auto selection consults widths, the §6 LPs and the
    // cost oracle, then builds into the catalog.
    let t0 = Instant::now();
    let view = queries::triangle_self("bfb").unwrap();
    let rv = engine
        .register("mutual", view.clone(), Policy::default())
        .unwrap();
    println!(
        "registered `mutual` in {} → {} ({})",
        fmt_ns(t0.elapsed().as_nanos() as u64),
        rv.selection.tag,
        rv.selection.reason
    );
    println!("{}\n", engine.explain("mutual").unwrap());

    // Serve many: a stream of mutual-friend requests over actual edges.
    let requests = witness_requests(&mut rng, &view, &engine.db(), 5000);

    for threads in [1, 4] {
        let t0 = Instant::now();
        let served = stripe_requests(requests.len(), threads, |i| {
            let mut counted = CountingSink::default();
            engine.serve_into("mutual", &requests[i], &mut counted)?;
            Ok(counted.count)
        })
        .unwrap();
        let wall = t0.elapsed();
        println!(
            "served {} requests on {threads} thread(s): {} ({:.0} req/s), \
             {} result tuples",
            served.len(),
            fmt_ns(wall.as_nanos() as u64),
            served.len() as f64 / wall.as_secs_f64(),
            served.iter().sum::<usize>()
        );
    }

    let stats = engine.catalog_stats();
    println!(
        "\ncatalog: {} build(s), {} hits, {} resident — the serve path rebuilt nothing",
        stats.builds,
        stats.hits,
        fmt_bytes(stats.resident_bytes)
    );
    assert_eq!(stats.builds, 1, "register-once must mean build-once");
}
