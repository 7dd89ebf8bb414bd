//! Search and comparison helpers shared across the workspace.
//!
//! The Lemma 3 split-point search in `cqc-core` binary-searches a monotone
//! real-valued function over a sorted domain ([`partition_point`]), and
//! compares the floating-point cost estimates it produces. Searches over
//! stored sorted columns — trie cursors, count indexes, active domains —
//! run on the column itself ([`crate::packed::Packed::lower_bound`] and
//! its siblings).

/// Binary search for the smallest index `i` in `[lo, hi)` such that
/// `pred(i)` is `true`, under the assumption that `pred` is monotone
/// (`false … false true … true`). Returns `hi` when `pred` is `false`
/// everywhere.
///
/// This drives the Lemma 3 search for the split value `β`: the predicate
/// "`T(⟨prefix, [⊥, dom[i]]⟩) ≥ target`" is monotone in `i` because `T` is
/// non-decreasing as the interval grows.
#[inline]
pub fn partition_point<P: FnMut(usize) -> bool>(lo: usize, hi: usize, mut pred: P) -> usize {
    let mut lo = lo;
    let mut hi = hi;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Approximate comparison for the floating-point `T(·)` estimates.
///
/// Counts are integers but the exponents `û_F = u_F / α` are rationals, so
/// the estimates carry `powf` rounding noise; all threshold comparisons in
/// `cqc-core` go through this epsilon.
pub const F64_EPS: f64 = 1e-9;

/// `a > b` up to [`F64_EPS`] relative tolerance.
#[inline]
pub fn approx_gt(a: f64, b: f64) -> bool {
    a > b + F64_EPS * (1.0 + a.abs().max(b.abs()))
}

/// `a >= b` up to [`F64_EPS`] relative tolerance.
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    a >= b - F64_EPS * (1.0 + a.abs().max(b.abs()))
}

/// `|a - b|` within [`F64_EPS`] relative tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= F64_EPS * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_point_finds_threshold() {
        // pred(i) = i >= 42
        assert_eq!(partition_point(0, 100, |i| i >= 42), 42);
        assert_eq!(partition_point(0, 100, |_| true), 0);
        assert_eq!(partition_point(0, 100, |_| false), 100);
        assert_eq!(partition_point(10, 10, |_| true), 10);
    }

    #[test]
    fn approx_comparisons() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.001));
        assert!(approx_gt(1.001, 1.0));
        assert!(!approx_gt(1.0 + 1e-12, 1.0));
        assert!(approx_ge(1.0, 1.0 + 1e-12));
    }
}
