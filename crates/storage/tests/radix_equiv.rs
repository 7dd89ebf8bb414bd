//! Property tests: the radix-sorted construction paths are byte-for-byte
//! equivalent to comparison sorting.
//!
//! [`SortedIndex::build`] and [`Relation::from_flat`] now sort through the
//! LSD radix permutation sort (with a comparison fallback); these tests pin
//! them against independent comparison-sorted references across random
//! relations, arities, attribute orders, duplicate-heavy inputs,
//! already-sorted inputs (the adoption fast path), and value domains from
//! single-byte to the full `u64` range (1–8 radix passes per column).

use cqc_common::packed::byte_width_for;
use cqc_common::value::{lex_cmp, Value};
use cqc_storage::{Relation, SortedIndex};

/// Deterministic LCG so failures replay.
fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m.max(1)
    }
}

/// Reference index construction: comparison sort of owned tuples.
fn reference_index(rel: &Relation, order: &[usize]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rel
        .iter()
        .map(|r| order.iter().map(|&c| r[c]).collect())
        .collect();
    rows.sort_by(|a, b| lex_cmp(a, b));
    // Transpose to column-major, one column per depth.
    (0..order.len())
        .map(|d| rows.iter().map(|r| r[d]).collect())
        .collect()
}

/// Depth `d` of the index holds exactly the column `expect` row by row,
/// and its keys are stored at the whole word size the column's largest
/// value needs (the `u64::MAX - 1` domain keeps width 64 covered).
fn assert_column(ix: &SortedIndex, d: usize, expect: &[Value], what: &str) {
    let c = ix.order()[d];
    let mut column = Vec::with_capacity(ix.len());
    let mut scan = ix.scan();
    while let Some(row) = scan.next_row() {
        column.push(row[c]);
    }
    assert_eq!(column, expect, "{what}");
    let max = expect.iter().copied().max().unwrap_or(0);
    assert_eq!(ix.keys(d).width(), byte_width_for(max), "{what}");
}

/// All attribute orders exercised per arity (identity, reversed, one
/// rotation — identity hits the sorted-adoption fast path on schema-sorted
/// relations).
fn orders(arity: usize) -> Vec<Vec<usize>> {
    let identity: Vec<usize> = (0..arity).collect();
    let mut reversed = identity.clone();
    reversed.reverse();
    let mut rotated = identity.clone();
    rotated.rotate_left(1.min(arity.saturating_sub(1)));
    let mut all = vec![identity, reversed, rotated];
    all.dedup();
    all
}

#[test]
fn sorted_index_matches_comparison_reference() {
    let mut next = rng(41);
    for trial in 0..24u64 {
        let arity = 1 + (trial % 4) as usize;
        // Cross the radix/comparison threshold in both directions and mix
        // tiny and huge domains (1-byte through 8-byte key passes).
        let n = [5usize, 40, 300, 2000][(trial % 4) as usize];
        let domain = [5u64, 1000, 1 << 20, u64::MAX - 1][((trial / 4) % 4) as usize];
        let mut flat = Vec::with_capacity(n * arity);
        for _ in 0..n * arity {
            flat.push(next(domain));
        }
        let rel = Relation::from_flat("R", arity, flat);
        for order in orders(arity) {
            let ix = SortedIndex::build(&SortedIndex::pack(&rel), &order);
            let expect = reference_index(&rel, &order);
            assert_eq!(ix.len(), rel.len(), "trial {trial} order {order:?}");
            for (d, col) in expect.iter().enumerate() {
                assert_column(
                    &ix,
                    d,
                    col,
                    &format!("trial {trial} order {order:?} depth {d}"),
                );
            }
        }
    }
}

#[test]
fn sorted_index_duplicate_heavy_columns() {
    // Columns with 2–3 distinct values: every counting-sort bucket is hot
    // and most byte planes are constant (the skip path).
    let mut next = rng(97);
    let n = 1500;
    let mut flat = Vec::with_capacity(n * 3);
    for _ in 0..n {
        flat.push(next(2));
        flat.push(next(3) * 1_000_000); // 3 distinct multi-byte values
        flat.push(7); // constant column
    }
    let rel = Relation::from_flat("D", 3, flat);
    for order in orders(3) {
        let ix = SortedIndex::build(&SortedIndex::pack(&rel), &order);
        let expect = reference_index(&rel, &order);
        for (d, col) in expect.iter().enumerate() {
            assert_column(&ix, d, col, &format!("order {order:?} depth {d}"));
        }
    }
}

#[test]
fn from_flat_matches_tuple_construction() {
    let mut next = rng(1213);
    for trial in 0..24u64 {
        let arity = 1 + (trial % 3) as usize;
        let n = [7usize, 120, 900][(trial % 3) as usize];
        let domain = [4u64, 600, u64::MAX / 3][((trial / 3) % 3) as usize];
        let mut tuples: Vec<Vec<Value>> = Vec::with_capacity(n);
        for _ in 0..n {
            tuples.push((0..arity).map(|_| next(domain)).collect());
        }
        // Heavy duplication for the low-domain trials.
        let flat: Vec<Value> = tuples.iter().flatten().copied().collect();
        assert_eq!(
            Relation::from_flat("R", arity, flat),
            Relation::new("R", arity, tuples),
            "trial {trial}"
        );
    }
}

#[test]
fn from_flat_already_sorted_adoption() {
    // Strictly sorted input must be adopted as-is; sorted-with-duplicates
    // and reverse-sorted must still sort + dedup correctly.
    let sorted: Vec<Value> = (0..500u64).flat_map(|i| [i, i * 3]).collect();
    let rel = Relation::from_flat("S", 2, sorted.clone());
    assert_eq!(rel.len(), 500);
    let back: Vec<Value> = rel.iter().flatten().copied().collect();
    assert_eq!(back, sorted);

    let mut with_dups = sorted.clone();
    with_dups.extend_from_slice(&sorted);
    assert_eq!(Relation::from_flat("T", 2, with_dups).len(), 500);

    let mut reversed = sorted.clone();
    reversed.reverse();
    // Reversing the flat buffer reverses the *values*, giving (3i, i)
    // pairs in descending order — sorting must recover a valid relation.
    let rrel = Relation::from_flat("U", 2, reversed);
    assert_eq!(rrel.len(), 500);
    assert!(rrel.iter().any(|r| r == [3 * 499, 499]));
}

#[test]
fn index_counts_survive_radix_path() {
    // End-to-end: counts on a radix-built index agree with a naive filter.
    let mut next = rng(7);
    let n = 800;
    let mut flat = Vec::with_capacity(n * 2);
    for _ in 0..n {
        flat.push(next(30));
        flat.push(next(30));
    }
    let rel = Relation::from_flat("R", 2, flat);
    let ix = SortedIndex::build(&SortedIndex::pack(&rel), &[1, 0]);
    for p in 0..30u64 {
        let expect = rel.iter().filter(|r| r[1] == p).count();
        assert_eq!(ix.count(&[p], None), expect, "prefix {p}");
        let expect_range = rel
            .iter()
            .filter(|r| r[1] == p && r[0] >= 5 && r[0] <= 20)
            .count();
        assert_eq!(ix.count(&[p], Some((5, 20))), expect_range, "range {p}");
    }
}
