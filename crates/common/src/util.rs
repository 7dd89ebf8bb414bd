//! Search primitives shared across the workspace.
//!
//! Trie cursors (`cqc-join`) and count indexes (`cqc-storage`) repeatedly
//! locate boundaries inside sorted runs; the Lemma 3 split-point search in
//! `cqc-core` binary-searches a monotone real-valued function over a sorted
//! domain. Everything funnels through the helpers in this module.

/// Returns the index of the first element in `data[lo..hi]` that is `>= key`,
/// or `hi` if none is.
///
/// Plain binary search; used when the caller has no positional hint.
#[inline]
pub fn lower_bound(data: &[u64], lo: usize, hi: usize, key: u64) -> usize {
    debug_assert!(lo <= hi && hi <= data.len());
    let mut lo = lo;
    let mut hi = hi;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if data[mid] < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Returns the index of the first element in `data[lo..hi]` that is `> key`,
/// or `hi` if none is.
#[inline]
pub fn upper_bound(data: &[u64], lo: usize, hi: usize, key: u64) -> usize {
    debug_assert!(lo <= hi && hi <= data.len());
    let mut lo = lo;
    let mut hi = hi;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if data[mid] <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Galloping (exponential) search: the index of the first element in
/// `data[lo..hi]` that is `>= key`, assuming the answer is usually close to
/// `lo`.
///
/// This is the access pattern of leapfrog trie-join — each seek advances a
/// cursor by a usually-small amount — where galloping gives the
/// amortized-logarithmic bounds of the worst-case-optimal join analysis.
#[inline]
pub fn gallop(data: &[u64], lo: usize, hi: usize, key: u64) -> usize {
    debug_assert!(lo <= hi && hi <= data.len());
    if lo >= hi || data[lo] >= key {
        return lo;
    }
    // Invariant: data[lo + step/2] < key (for the previous step).
    let mut step = 1usize;
    while lo + step < hi && data[lo + step] < key {
        step <<= 1;
    }
    let new_lo = lo + step / 2 + 1;
    let new_hi = (lo + step + 1).min(hi);
    lower_bound(data, new_lo, new_hi, key)
}

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
    fn bounds_match_std_partition() {
        let data = [1u64, 3, 3, 3, 7, 9];
        assert_eq!(lower_bound(&data, 0, data.len(), 0), 0);
        assert_eq!(lower_bound(&data, 0, data.len(), 3), 1);
        assert_eq!(lower_bound(&data, 0, data.len(), 4), 4);
        assert_eq!(lower_bound(&data, 0, data.len(), 10), 6);
        assert_eq!(upper_bound(&data, 0, data.len(), 3), 4);
        assert_eq!(upper_bound(&data, 0, data.len(), 9), 6);
        assert_eq!(upper_bound(&data, 0, data.len(), 0), 0);
    }

    #[test]
    fn bounds_respect_subranges() {
        let data = [1u64, 3, 3, 3, 7, 9];
        assert_eq!(lower_bound(&data, 2, 5, 3), 2);
        assert_eq!(upper_bound(&data, 2, 5, 3), 4);
        assert_eq!(lower_bound(&data, 4, 4, 3), 4);
    }

    #[test]
    fn gallop_agrees_with_lower_bound() {
        let data: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        for lo in [0usize, 1, 17, 500, 998] {
            for key in [0u64, 1, 2, 3, 100, 1500, 2997, 2998, 5000] {
                assert_eq!(
                    gallop(&data, lo, data.len(), key),
                    lower_bound(&data, lo, data.len(), key),
                    "lo={lo} key={key}"
                );
            }
        }
    }

    #[test]
    fn gallop_on_empty_and_single() {
        let data = [5u64];
        assert_eq!(gallop(&data, 0, 0, 3), 0);
        assert_eq!(gallop(&data, 0, 1, 3), 0);
        assert_eq!(gallop(&data, 0, 1, 5), 0);
        assert_eq!(gallop(&data, 0, 1, 6), 1);
    }

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
