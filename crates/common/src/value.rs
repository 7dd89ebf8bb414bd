//! Domain values and tuples.
//!
//! The paper works over an abstract ordered domain **dom**. We represent
//! values as `u64`: real datasets are interned through
//! `cqc_storage::interner::Interner`, and the total order on `u64` plays the
//! role of the order `≤` on **dom** that the lexicographic enumeration order
//! of Section 3.1 is derived from.

use std::cmp::Ordering;

/// A single domain value.
pub type Value = u64;

/// An owned tuple of domain values.
///
/// Tuples are kept as plain `Vec<Value>`; arities in conjunctive queries are
/// tiny (≤ 8 in every workload in this repository) and the flat storage used
/// by `cqc-storage` avoids per-row allocations on the hot paths, so a simple
/// representation suffices here.
pub type Tuple = Vec<Value>;

/// Lexicographic comparison of two equal-length value slices.
///
/// This is the order `≤` lifted from **dom** to tuples in Section 4.1 of the
/// paper; all output enumeration guarantees are stated with respect to it.
///
/// Arities 1 and 2 — the binary relations of every graph workload and the
/// unary projections — take branch-free unrolled paths: this comparator is
/// the inner loop of every remaining comparison sort and sorted merge on
/// the build path, where the generic loop's per-element bounds checks and
/// loop control are measurable.
///
/// Both slices must have the same length (debug-asserted).
#[inline]
pub fn lex_cmp(a: &[Value], b: &[Value]) -> Ordering {
    // Debug-only: this is every build-path sort's comparator, and a length
    // mismatch reads nothing outside either slice (`zip` stops at the
    // shorter one, so it compares the common prefix).
    debug_assert_eq!(a.len(), b.len(), "lex_cmp requires equal arity");
    match (a, b) {
        ([x], [y]) => x.cmp(y),
        ([x0, x1], [y0, y1]) => x0.cmp(y0).then_with(|| x1.cmp(y1)),
        _ => {
            for (x, y) in a.iter().zip(b.iter()) {
                match x.cmp(y) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        }
    }
}

/// Returns `true` if `a` is lexicographically strictly smaller than `b`.
#[inline]
pub fn lex_lt(a: &[Value], b: &[Value]) -> bool {
    lex_cmp(a, b) == Ordering::Less
}

/// Returns `true` if `a ≤ b` lexicographically.
#[inline]
pub fn lex_le(a: &[Value], b: &[Value]) -> bool {
    lex_cmp(a, b) != Ordering::Greater
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_cmp_orders_prefix_first() {
        assert_eq!(lex_cmp(&[1, 2, 3], &[1, 2, 3]), Ordering::Equal);
        assert_eq!(lex_cmp(&[1, 2, 3], &[1, 3, 0]), Ordering::Less);
        assert_eq!(lex_cmp(&[2, 0, 0], &[1, 9, 9]), Ordering::Greater);
    }

    #[test]
    fn lex_helpers_agree_with_cmp() {
        assert!(lex_lt(&[0, 1], &[0, 2]));
        assert!(!lex_lt(&[0, 2], &[0, 2]));
        assert!(lex_le(&[0, 2], &[0, 2]));
        assert!(!lex_le(&[1, 0], &[0, 9]));
    }

    #[test]
    fn unrolled_arity_1_and_2_match_generic() {
        // The fast paths must agree with the generic loop on every
        // ordering outcome, including the equal-prefix cases.
        for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (7, 7)] {
            assert_eq!(lex_cmp(&[a], &[b]), a.cmp(&b));
        }
        for a0 in 0u64..3 {
            for a1 in 0u64..3 {
                for b0 in 0u64..3 {
                    for b1 in 0u64..3 {
                        let expect = (a0, a1).cmp(&(b0, b1));
                        assert_eq!(lex_cmp(&[a0, a1], &[b0, b1]), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_tuples_are_equal() {
        assert_eq!(lex_cmp(&[], &[]), Ordering::Equal);
        assert!(lex_le(&[], &[]));
    }
}
