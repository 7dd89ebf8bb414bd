//! Active domains in rank space.
//!
//! The paper equips each variable's active domain `D[x]` with the total order
//! inherited from **dom**, with `⊥`/`⊤` its smallest and largest elements
//! (§4.1). Representing a domain as a sorted vector and working with *ranks*
//! (positions in that vector) turns the successor/predecessor arithmetic of
//! interval splitting into `±1` on integers and makes every open/closed
//! endpoint case exact.
//!
//! The sorted vector is a searchable [`Packed`] column: ranks are found by
//! searching it in place, at the whole word size its largest value needs.

use cqc_common::heap::HeapSize;
use cqc_common::packed::Packed;
use cqc_common::value::Value;

/// A sorted active domain for one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    values: Packed,
}

impl Domain {
    /// Builds a domain from arbitrary values (sorted and deduplicated).
    pub fn new(mut values: Vec<Value>) -> Domain {
        values.sort_unstable();
        values.dedup();
        Domain {
            values: Packed::searchable(values),
        }
    }

    /// Builds a domain that is the sorted union of several value sets.
    pub fn union_of<'a>(sets: impl IntoIterator<Item = &'a [Value]>) -> Domain {
        Domain::new(sets.into_iter().flatten().copied().collect())
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at `rank`, which must be below [`Domain::len`] (debug
    /// builds check).
    #[inline]
    pub fn value(&self, rank: usize) -> Value {
        self.values.get(rank)
    }

    /// All values in sorted order: the packed column itself.
    pub fn values(&self) -> &Packed {
        &self.values
    }

    /// The exact rank of `v`, if present.
    pub fn rank(&self, v: Value) -> Option<usize> {
        let r = self.rank_ceil(v);
        (r < self.len() && self.value(r) == v).then_some(r)
    }

    /// Rank of the smallest domain value `>= v` (i.e. `len()` if none).
    pub fn rank_ceil(&self, v: Value) -> usize {
        self.values.lower_bound(0, self.len(), v)
    }

    /// Rank of the largest domain value `<= v`, or `None` if all values
    /// exceed `v`.
    pub fn rank_floor(&self, v: Value) -> Option<usize> {
        self.values.upper_bound(0, self.len(), v).checked_sub(1)
    }

    /// The smallest element `⊥` (rank 0), if the domain is non-empty.
    pub fn bottom(&self) -> Option<Value> {
        (!self.is_empty()).then(|| self.value(0))
    }

    /// The largest element `⊤` (rank `len()-1`), if non-empty.
    pub fn top(&self) -> Option<Value> {
        self.len().checked_sub(1).map(|r| self.value(r))
    }
}

impl HeapSize for Domain {
    fn heap_bytes(&self) -> usize {
        self.values.heap_bytes()
    }
}

/// Lexicographic successor of a rank tuple over a product of domains:
/// `+1` with carry, where coordinate `i` ranges over `0..sizes[i]`.
///
/// Returns `false` (leaving `ranks` unspecified) when `ranks` is the maximal
/// tuple.
///
/// # Panics
///
/// Panics unless `ranks` has one rank per domain, in release builds too: a
/// shorter tuple would be stepped against the wrong domains' sizes, a
/// wrong endpoint.
pub fn rank_tuple_succ(ranks: &mut [usize], sizes: &[usize]) -> bool {
    assert_eq!(
        ranks.len(),
        sizes.len(),
        "a rank tuple has one rank per domain"
    );
    for i in (0..ranks.len()).rev() {
        if ranks[i] + 1 < sizes[i] {
            ranks[i] += 1;
            for r in ranks.iter_mut().skip(i + 1) {
                *r = 0;
            }
            return true;
        }
    }
    false
}

/// Lexicographic predecessor of a rank tuple: `-1` with borrow.
///
/// Returns `false` when `ranks` is the all-zero tuple.
///
/// # Panics
///
/// Panics unless `ranks` has one rank per domain, in release builds too
/// (see [`rank_tuple_succ`]).
pub fn rank_tuple_pred(ranks: &mut [usize], sizes: &[usize]) -> bool {
    assert_eq!(
        ranks.len(),
        sizes.len(),
        "a rank tuple has one rank per domain"
    );
    for i in (0..ranks.len()).rev() {
        if ranks[i] > 0 {
            ranks[i] -= 1;
            for (r, &s) in ranks.iter_mut().zip(sizes.iter()).skip(i + 1) {
                *r = s - 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_and_values() {
        let d = Domain::new(vec![30, 10, 20, 10]);
        assert_eq!(d.len(), 3);
        assert!(d.values().iter().eq([10, 20, 30]));
        assert_eq!(d.values().width(), 8);
        assert_eq!(d.heap_bytes(), 8);
        assert_eq!(d.rank(20), Some(1));
        assert_eq!(d.rank(25), None);
        assert_eq!(d.rank_ceil(15), 1);
        assert_eq!(d.rank_ceil(10), 0);
        assert_eq!(d.rank_ceil(31), 3);
        assert_eq!(d.rank_floor(15), Some(0));
        assert_eq!(d.rank_floor(30), Some(2));
        assert_eq!(d.rank_floor(5), None);
        assert_eq!(d.bottom(), Some(10));
        assert_eq!(d.top(), Some(30));
        assert_eq!(d.value(2), 30);
    }

    #[test]
    fn union_of_sets() {
        let d = Domain::union_of([&[3u64, 1][..], &[2, 3][..]]);
        assert!(d.values().iter().eq([1, 2, 3]));
    }

    #[test]
    fn empty_domain() {
        let d = Domain::new(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.bottom(), None);
        assert_eq!(d.rank_ceil(5), 0);
        assert_eq!(d.rank_floor(5), None);
    }

    #[test]
    fn succ_carries() {
        let sizes = [2usize, 3, 2];
        let mut r = [0usize, 0, 0];
        let mut seen = vec![r.to_vec()];
        while rank_tuple_succ(&mut r, &sizes) {
            seen.push(r.to_vec());
        }
        assert_eq!(seen.len(), 12);
        assert_eq!(seen[0], vec![0, 0, 0]);
        assert_eq!(seen[1], vec![0, 0, 1]);
        assert_eq!(seen[2], vec![0, 1, 0]);
        assert_eq!(seen[11], vec![1, 2, 1]);
        // Sorted lexicographically by construction.
        for w in seen.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    /// A rank tuple shorter than the grid would be stepped against the
    /// wrong domains' sizes: `succ` panics, in release builds too.
    #[test]
    #[should_panic(expected = "one rank per domain")]
    fn succ_of_a_short_rank_tuple_panics() {
        rank_tuple_succ(&mut [0, 0], &[2, 3, 2]);
    }

    /// See [`succ_of_a_short_rank_tuple_panics`].
    #[test]
    #[should_panic(expected = "one rank per domain")]
    fn pred_of_a_short_rank_tuple_panics() {
        rank_tuple_pred(&mut [1, 1], &[2, 3, 2]);
    }

    #[test]
    fn pred_is_inverse_of_succ() {
        let sizes = [3usize, 2, 4];
        let mut fwd = vec![vec![0usize, 0, 0]];
        let mut r = [0usize, 0, 0];
        while rank_tuple_succ(&mut r, &sizes) {
            fwd.push(r.to_vec());
        }
        let mut r = [2usize, 1, 3];
        let mut bwd = vec![r.to_vec()];
        while rank_tuple_pred(&mut r, &sizes) {
            bwd.push(r.to_vec());
        }
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn succ_pred_bounds() {
        let sizes = [2usize, 2];
        let mut r = [1usize, 1];
        assert!(!rank_tuple_succ(&mut r, &sizes));
        let mut r = [0usize, 0];
        assert!(!rank_tuple_pred(&mut r, &sizes));
    }
}
