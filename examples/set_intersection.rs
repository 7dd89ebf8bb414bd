//! §3.1: the fast set intersection structure of Cohen & Porat [13] as the
//! special case `S_2^{bbf}(x1, x2, z) = R(x1, z), R(x2, z)`, plus the
//! boolean k-SetDisjointness access of §3.3.
//!
//! ```bash
//! cargo run --release --example set_intersection
//! ```

use cqc_common::heap::HeapSize;
use cqc_core::theorem1::Theorem1Structure;
use cqc_workload::{gen, queries};
use std::time::Instant;

fn main() {
    // A family of sets with Zipf-skewed membership: a few huge sets, many
    // small ones — the regime where precomputing intersections of heavy
    // pairs pays off.
    let mut rng = cqc_workload::rng(99);
    let sets = 120u64;
    let universe = 250usize;
    let memberships = 4000usize;
    let zipf = gen::Zipf::new(universe, 0.9);
    let rel = gen::zipf_pairs(&mut rng, "R", memberships, sets, &zipf);
    let n = rel.len();
    let mut db = cqc_storage::Database::new();
    db.add(rel).unwrap();
    println!("set membership relation: {n} pairs, {sets} sets\n");

    let view = queries::set_intersection().unwrap();

    // Pairs to intersect: skewed towards the big sets.
    let set_zipf = gen::Zipf::new(sets as usize, 0.8);
    let requests: Vec<[u64; 2]> = (0..500)
        .map(|_| [set_zipf.sample(&mut rng), set_zipf.sample(&mut rng)])
        .collect();

    println!(
        "{:<16} {:>12} {:>14} {:>16}",
        "τ", "space (B)", "batch time", "intersect sizes"
    );
    for tau in [4.0, 16.0, 64.0, 256.0] {
        let s = Theorem1Structure::build(&view, &db, &[1.0, 1.0], tau).unwrap();
        let t = Instant::now();
        let mut total = cqc_common::CountingSink::default();
        let mut cursor = s.enumerator();
        for r in &requests {
            cursor.answer_into(r, &mut total).unwrap();
        }
        let total = total.count;
        let dt = t.elapsed();
        println!(
            "{:<16} {:>12} {:>12.1?} {:>16}",
            tau,
            s.heap_bytes(),
            dt,
            total
        );
    }

    // Boolean variant: k-SetDisjointness via first-answer probes (§3.3).
    let k = 3;
    let kview = queries::k_set_disjointness(k).unwrap();
    let s = Theorem1Structure::build(&kview, &db, &vec![1.0; k], 16.0).unwrap();
    println!(
        "\nk-SetDisjointness (k = {k}), α = {} (slack = k):",
        s.alpha()
    );
    for _ in 0..5 {
        let q: Vec<u64> = (0..k).map(|_| set_zipf.sample(&mut rng)).collect();
        println!("  sets {q:?} intersect? {}", s.exists(&q).unwrap());
    }
}
