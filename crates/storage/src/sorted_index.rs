//! Sorted, column-major relation indexes.
//!
//! A [`SortedIndex`] stores the tuples of a relation sorted lexicographically
//! under an arbitrary attribute permutation, column-major. It serves two
//! masters:
//!
//! 1. **Count probes** (`cqc-core`): the quantities `|R_F(B)|` and
//!    `|R_F(v_b, B)|` of §4.2 constrain a *prefix* of attributes to constants
//!    plus at most one attribute to a value range, so under the right
//!    attribute order they select a contiguous run of rows — two binary
//!    searches, the paper's Õ(1) count oracle.
//! 2. **Trie cursors** (`cqc-join`): the leapfrog trie-join navigates the
//!    sorted runs level by level; this index exposes the per-level columns
//!    and range-narrowing operations the cursors need.
//!
//! Each depth's column is a searchable [`Packed`] column, stored at the
//! whole word size (8, 16, 32 or 64 bits) its largest value needs and
//! searched in place: node ids of a few thousand take 2 B a value, not 8.
//!
//! The identity-order index ([`SortedIndex::pack`]) is also how a
//! [`crate::Database`] stores a relation: there is no second, unpacked
//! copy of the rows, and a delta splices into it through
//! [`SortedIndex::merge_insert`] and [`SortedIndex::merge_remove`].

use crate::radix::{columns_sorted, sort_perm};
use crate::relation::Relation;
use cqc_common::heap::HeapSize;
use cqc_common::metrics::{self, BuildPhase};
use cqc_common::packed::Packed;
use cqc_common::value::{lex_cmp, Tuple, Value};
use std::time::Instant;

/// A lexicographically sorted projection of a relation under a fixed
/// attribute order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedIndex {
    /// `order[d]` is the schema column stored at sort depth `d`.
    order: Vec<usize>,
    /// Column-major storage: `cols[d]` holds depth `d` of every row in
    /// sorted order, at its own width.
    cols: Vec<Packed>,
    len: usize,
}

impl SortedIndex {
    /// The identity-order index of `relation`: its schema-sorted rows
    /// packed column by column, with no sort. This is the form a
    /// [`crate::Database`] stores every relation in.
    pub fn pack(relation: &Relation) -> SortedIndex {
        let (arity, n) = (relation.arity(), relation.len());
        let cols = (0..arity)
            .map(|c| Packed::searchable((0..n).map(|i| relation.row(i)[c])))
            .collect();
        SortedIndex {
            order: (0..arity).collect(),
            cols,
            len: n,
        }
    }

    /// Builds the index of the stored `relation` sorted by the attribute
    /// permutation `order` (`order[d]` = schema column at depth `d`).
    ///
    /// Construction is sort-light: the depth-major columns are decoded in
    /// one sequential pass each, an input already sorted under `order` is
    /// adopted as-is, and everything else goes through an LSD radix
    /// permutation sort (comparison fallback for high arities and tiny
    /// inputs) instead of a comparison sort through the row indirection.
    ///
    /// # Panics
    ///
    /// Panics unless `order` is a permutation of `0..relation.arity()`.
    pub fn build(relation: &SortedIndex, order: &[usize]) -> SortedIndex {
        let arity = relation.arity();
        assert_eq!(order.len(), arity, "order must cover all attributes");
        let mut seen = vec![false; arity];
        for &c in order {
            assert!(c < arity && !seen[c], "order must be a permutation");
            seen[c] = true;
        }

        let n = relation.len();
        let t0 = Instant::now();
        let mut cols: Vec<Vec<Value>> = order
            .iter()
            .map(|&c| {
                let mut col = Vec::with_capacity(n);
                relation.schema_col(c).decode_into(0..n, &mut col);
                col
            })
            .collect();
        let already_sorted = columns_sorted(&cols, n);
        metrics::record_build_phase(BuildPhase::Index, t0.elapsed().as_nanos() as u64);
        if !already_sorted {
            let t0 = Instant::now();
            let mut perm: Vec<u32> = (0..n as u32).collect();
            sort_perm(&mut perm, &cols);
            metrics::record_build_phase(BuildPhase::Sort, t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            for col in &mut cols {
                let gathered = std::mem::take(col);
                *col = perm.iter().map(|&ri| gathered[ri as usize]).collect();
            }
            metrics::record_build_phase(BuildPhase::Index, t0.elapsed().as_nanos() as u64);
        }
        let t0 = Instant::now();
        let cols = cols
            .iter()
            .map(|col| Packed::searchable(col.iter().copied()));
        let index = SortedIndex {
            order: order.to_vec(),
            cols: cols.collect(),
            len: n,
        };
        metrics::record_build_phase(BuildPhase::Index, t0.elapsed().as_nanos() as u64);
        index
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of attributes, one sort depth each.
    pub fn arity(&self) -> usize {
        self.order.len()
    }

    /// The attribute order (`order[d]` = schema column at depth `d`).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The sorted column at depth `d` (schema column `d` of a stored
    /// relation).
    #[inline]
    pub fn col(&self, d: usize) -> &Packed {
        &self.cols[d]
    }

    /// The value at depth `d` of sorted row `row` (for a stored relation,
    /// whose order is the identity, depth `d` is schema column `d`).
    #[inline]
    pub fn value(&self, d: usize, row: usize) -> Value {
        self.cols[d].get(row)
    }

    /// Narrows `[lo, hi)` to the rows whose depth-`d` value equals `v`.
    #[inline]
    pub fn narrow_eq(&self, lo: usize, hi: usize, d: usize, v: Value) -> (usize, usize) {
        let col = &self.cols[d];
        let l = col.lower_bound(lo, hi, v);
        let h = match v.checked_add(1) {
            Some(next) => col.gallop(l, hi, next).map_or(hi, |(end, _)| end),
            None => hi,
        };
        (l, h)
    }

    /// Narrows `[lo, hi)` to the rows whose depth-`d` value lies in the
    /// inclusive range `[vlo, vhi]`.
    #[inline]
    pub fn narrow_range(
        &self,
        lo: usize,
        hi: usize,
        d: usize,
        vlo: Value,
        vhi: Value,
    ) -> (usize, usize) {
        if vlo > vhi {
            return (lo, lo);
        }
        let col = &self.cols[d];
        let l = col.lower_bound(lo, hi, vlo);
        let h = col.upper_bound(l, hi, vhi);
        (l, h)
    }

    /// The row range matching a prefix of constants at depths
    /// `0..prefix.len()`.
    pub fn range_of_prefix(&self, prefix: &[Value]) -> (usize, usize) {
        debug_assert!(prefix.len() <= self.arity());
        let mut lo = 0usize;
        let mut hi = self.len;
        for (d, &v) in prefix.iter().enumerate() {
            if lo >= hi {
                break;
            }
            let (l, h) = self.narrow_eq(lo, hi, d, v);
            lo = l;
            hi = h;
        }
        (lo, hi)
    }

    /// The packed column holding schema column `c`.
    fn schema_col(&self, c: usize) -> &Packed {
        let d = self.order.iter().position(|&o| o == c);
        &self.cols[d.expect("column out of range")]
    }

    /// Decodes sorted row `i` into `out` in schema order (`out` is
    /// overwritten): a row reader's scratch, reused across rows.
    pub fn row_into(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        out.resize(self.arity(), 0);
        for (col, &c) in self.cols.iter().zip(&self.order) {
            out[c] = col.get(i);
        }
    }

    /// Sorted distinct values of schema column `c`. The leading column is
    /// already sorted; any other is sorted after decoding.
    pub fn column_values(&self, c: usize) -> Vec<Value> {
        let mut vals = Vec::with_capacity(self.len);
        self.schema_col(c).decode_into(0..self.len, &mut vals);
        if self.order[0] != c {
            vals.sort_unstable();
        }
        vals.dedup();
        vals
    }

    /// Projects the rows onto schema columns `cols` (deduplicated) as a new
    /// relation: Theorem 2's per-bag databases π_{F∩Bt}(R_F) of
    /// Appendix B.
    pub fn project(&self, name: impl Into<String>, cols: &[usize]) -> Relation {
        assert!(!cols.is_empty(), "projection needs at least one column");
        let cols: Vec<&Packed> = cols.iter().map(|&c| self.schema_col(c)).collect();
        let mut flat = Vec::with_capacity(self.len * cols.len());
        for i in 0..self.len {
            flat.extend(cols.iter().map(|col| col.get(i)));
        }
        Relation::from_flat(name, cols.len(), flat)
    }

    /// `O(log n)` membership test for a schema-order tuple (narrows depth
    /// by depth; no scratch allocation). A tuple whose length is not the
    /// arity is never a member.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        if tuple.len() != self.arity() {
            return false;
        }
        let mut lo = 0usize;
        let mut hi = self.len;
        for (d, &c) in self.order.iter().enumerate() {
            if lo >= hi {
                return false;
            }
            let (l, h) = self.narrow_eq(lo, hi, d, tuple[c]);
            lo = l;
            hi = h;
        }
        lo < hi
    }

    /// Filters a delta's tuples down to the rows genuinely new to this
    /// index (absent, internal duplicates removed) — exactly the rows
    /// [`SortedIndex::merge_insert`] expects. Returns `None` when a tuple's
    /// arity mismatches the index, in which case the caller should rebuild.
    pub fn fresh_from<'a>(&self, tuples: &'a [Tuple]) -> Option<Vec<&'a Tuple>> {
        let mut fresh: Vec<&Tuple> = Vec::new();
        for t in tuples {
            if t.len() != self.arity() {
                return None;
            }
            if !self.contains(t) {
                fresh.push(t);
            }
        }
        fresh.sort_unstable_by(|a, b| lex_cmp(a, b));
        fresh.dedup();
        Some(fresh)
    }

    /// Merges `fresh` tuples (schema order, not already present, no
    /// duplicates among them) into the sorted columns in place of a full
    /// rebuild: the fresh rows are sorted under the index's attribute order
    /// (`O(k log k)`) and spliced in with one two-pointer pass whose old-row
    /// runs are located by galloping search — `O(arity · (n + k))` copying,
    /// never an `O(n log n)` re-sort. This is the incremental base-index
    /// maintenance path: a small delta costs a linear splice instead of
    /// re-sorting every linear index from scratch. Each column is decoded,
    /// spliced and re-packed, so the merged index has exactly the widths
    /// and bytes a rebuild would.
    ///
    /// # Panics
    ///
    /// Panics if a fresh tuple's length differs from the index arity.
    pub fn merge_insert(&mut self, fresh: &[impl AsRef<[Value]>]) {
        if fresh.is_empty() {
            return;
        }
        let arity = self.order.len();
        // Fresh rows in depth-major layout, sorted under the index order.
        let mut rows: Vec<Vec<Value>> = fresh
            .iter()
            .map(|t| {
                let t = t.as_ref();
                assert_eq!(t.len(), arity, "tuple arity mismatch in index merge");
                self.order.iter().map(|&c| t[c]).collect()
            })
            .collect();
        rows.sort_unstable_by(|a, b| lex_cmp(a, b));
        // For each fresh row, the number of old rows strictly before it.
        let mut splice: Vec<usize> = Vec::with_capacity(rows.len());
        let mut from = 0usize;
        for row in &rows {
            from = self.gallop_lower_bound(from, row);
            splice.push(from);
        }
        let mut col = Vec::with_capacity(self.len + rows.len());
        for (d, packed) in self.cols.iter_mut().enumerate() {
            let old = &*packed;
            col.clear();
            let mut prev = 0usize;
            for (row, &pos) in rows.iter().zip(&splice) {
                old.decode_into(prev..pos, &mut col);
                col.push(row[d]);
                prev = pos;
            }
            old.decode_into(prev..self.len, &mut col);
            *packed = Packed::searchable(col.iter().copied());
        }
        self.len += rows.len();
    }

    /// Filters a delta's removal tuples down to the rows genuinely present
    /// in this index (internal duplicates removed) — exactly the rows
    /// [`SortedIndex::merge_remove`] expects. Returns `None` when a tuple's
    /// arity mismatches the index, in which case the caller should rebuild.
    pub fn stale_from<'a>(&self, tuples: &'a [Tuple]) -> Option<Vec<&'a Tuple>> {
        let mut stale: Vec<&Tuple> = Vec::new();
        for t in tuples {
            if t.len() != self.arity() {
                return None;
            }
            if self.contains(t) {
                stale.push(t);
            }
        }
        stale.sort_unstable_by(|a, b| lex_cmp(a, b));
        stale.dedup();
        Some(stale)
    }

    /// Removes `stale` tuples (schema order, all present, no duplicates
    /// among them) from the sorted columns in place of a full rebuild: the
    /// retraction mirror of [`SortedIndex::merge_insert`]. The stale rows
    /// are sorted under the index's attribute order and their positions
    /// located by the same two-pointer galloping pass; each column is then
    /// compacted in one `O(n)` sweep — never an `O(n log n)` re-sort.
    ///
    /// # Panics
    ///
    /// Panics if a stale tuple's length differs from the index arity, or if
    /// a stale tuple is not present (callers filter via
    /// [`SortedIndex::stale_from`] first).
    pub fn merge_remove(&mut self, stale: &[impl AsRef<[Value]>]) {
        if stale.is_empty() {
            return;
        }
        let arity = self.order.len();
        // Stale rows in depth-major layout, sorted under the index order.
        let mut rows: Vec<Vec<Value>> = stale
            .iter()
            .map(|t| {
                let t = t.as_ref();
                assert_eq!(t.len(), arity, "tuple arity mismatch in index merge");
                self.order.iter().map(|&c| t[c]).collect()
            })
            .collect();
        rows.sort_unstable_by(|a, b| lex_cmp(a, b));
        // For each stale row, its position among the old rows.
        let mut victims: Vec<usize> = Vec::with_capacity(rows.len());
        let mut from = 0usize;
        for row in &rows {
            from = self.gallop_lower_bound(from, row);
            assert!(
                from < self.len && self.cmp_row(from, row) == std::cmp::Ordering::Equal,
                "stale tuple not present in index"
            );
            victims.push(from);
            from += 1;
        }
        let mut col = Vec::with_capacity(self.len - victims.len());
        for packed in &mut self.cols {
            let old = &*packed;
            col.clear();
            let mut prev = 0usize;
            for &pos in &victims {
                old.decode_into(prev..pos, &mut col);
                prev = pos + 1;
            }
            old.decode_into(prev..self.len, &mut col);
            *packed = Packed::searchable(col.iter().copied());
        }
        self.len -= victims.len();
    }

    /// Lexicographic comparison of sorted row `r` against a depth-major key.
    fn cmp_row(&self, r: usize, key: &[Value]) -> std::cmp::Ordering {
        for (d, &k) in key.iter().enumerate() {
            match self.cols[d].get(r).cmp(&k) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// First row `>= key` at or after `from`, found by exponential
    /// (galloping) probing followed by a binary search of the bracketed run
    /// — `O(log gap)` per fresh row, which keeps a whole merge linear.
    fn gallop_lower_bound(&self, from: usize, key: &[Value]) -> usize {
        use std::cmp::Ordering::Less;
        let mut lo = from;
        if lo >= self.len || self.cmp_row(lo, key) != Less {
            return lo;
        }
        // Invariant: row(lo) < key. Find hi with row(hi) >= key (or end).
        let mut step = 1usize;
        let mut hi = lo + 1;
        while hi < self.len && self.cmp_row(hi, key) == Less {
            lo = hi;
            step *= 2;
            hi += step;
        }
        hi = hi.min(self.len);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cmp_row(mid, key) == Less {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// The paper's count oracle: number of rows whose depth-`0..p` values
    /// equal `prefix` and (when `range` is given) whose depth-`p` value lies
    /// in the inclusive range. Depths beyond are unconstrained.
    ///
    /// Cost: `prefix.len() + 1` pairs of binary searches, i.e. Õ(1).
    pub fn count(&self, prefix: &[Value], range: Option<(Value, Value)>) -> usize {
        metrics::record_count_probe();
        let (lo, hi) = self.range_of_prefix(prefix);
        if lo >= hi {
            return 0;
        }
        match range {
            None => hi - lo,
            Some((vlo, vhi)) => {
                let d = prefix.len();
                debug_assert!(d < self.arity(), "range depth out of bounds");
                let (l, h) = self.narrow_range(lo, hi, d, vlo, vhi);
                h - l
            }
        }
    }
}

impl HeapSize for SortedIndex {
    fn heap_bytes(&self) -> usize {
        self.order.heap_bytes()
            + self.cols.iter().map(HeapSize::heap_bytes).sum::<usize>()
            + self.cols.capacity() * std::mem::size_of::<Packed>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SortedIndex {
        // (a, b, c) triples.
        stored(
            3,
            vec![
                vec![1, 10, 100],
                vec![1, 10, 200],
                vec![1, 20, 100],
                vec![2, 10, 100],
                vec![2, 30, 300],
                vec![3, 10, 100],
            ],
        )
    }

    /// `rows` as a database stores them.
    fn stored(arity: usize, rows: Vec<Tuple>) -> SortedIndex {
        SortedIndex::pack(&Relation::new("R", arity, rows))
    }

    /// Every row, in sorted order, each in schema order.
    fn rows_of(ix: &SortedIndex) -> Vec<Tuple> {
        let mut row = Vec::new();
        (0..ix.len())
            .map(|i| {
                ix.row_into(i, &mut row);
                row.clone()
            })
            .collect()
    }

    #[test]
    fn identity_order_counts() {
        let r = sample();
        let ix = SortedIndex::build(&r, &[0, 1, 2]);
        assert_eq!(ix.len(), 6);
        assert_eq!(ix.count(&[], None), 6);
        assert_eq!(ix.count(&[1], None), 3);
        assert_eq!(ix.count(&[1, 10], None), 2);
        assert_eq!(ix.count(&[1, 10, 100], None), 1);
        assert_eq!(ix.count(&[4], None), 0);
    }

    #[test]
    fn range_counts() {
        let r = sample();
        let ix = SortedIndex::build(&r, &[0, 1, 2]);
        assert_eq!(ix.count(&[], Some((1, 2))), 5);
        assert_eq!(ix.count(&[1], Some((10, 19))), 2);
        assert_eq!(ix.count(&[1], Some((10, 20))), 3);
        assert_eq!(ix.count(&[2], Some((31, 100))), 0);
        // Inverted range is empty.
        assert_eq!(ix.count(&[], Some((5, 2))), 0);
    }

    #[test]
    fn permuted_order() {
        let r = sample();
        // Sort by (c, a, b).
        let ix = SortedIndex::build(&r, &[2, 0, 1]);
        assert_eq!(ix.count(&[100], None), 4);
        assert_eq!(ix.count(&[100, 1], None), 2);
        assert_eq!(ix.count(&[200], None), 1);
        assert_eq!(ix.count(&[100], Some((2, 3))), 2);
        // Columns are sorted lexicographically in the permuted order.
        let c0: Vec<Value> = ix.col(0).iter().collect();
        assert!(c0.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn counts_match_naive_filter() {
        let r = sample();
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let ix = SortedIndex::build(&r, &order);
            // Every 1-prefix + range at depth 1.
            let d0_vals = r.column_values(order[0]);
            for &p in &d0_vals {
                for lo in 0..400u64 {
                    if lo % 97 != 0 {
                        continue;
                    }
                    let hi = lo + 150;
                    let expect = rows_of(&r)
                        .iter()
                        .filter(|row| {
                            row[order[0]] == p && row[order[1]] >= lo && row[order[1]] <= hi
                        })
                        .count();
                    assert_eq!(ix.count(&[p], Some((lo, hi))), expect);
                }
            }
        }
    }

    #[test]
    fn empty_relation_index() {
        let r = stored(2, vec![]);
        let ix = SortedIndex::build(&r, &[1, 0]);
        assert!(ix.is_empty());
        assert_eq!(ix.count(&[], None), 0);
        assert_eq!(ix.count(&[1], Some((0, 10))), 0);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_panics() {
        let r = sample();
        SortedIndex::build(&r, &[0, 0, 1]);
    }

    #[test]
    fn merge_insert_matches_rebuild() {
        // Property: merging fresh tuples into an index over the old
        // relation equals building the index over the merged relation —
        // across permuted attribute orders and random deltas.
        let mut state = 0x9e37u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..20u64 {
            let arity = 2 + (trial % 2) as usize;
            let mut flat = Vec::new();
            for _ in 0..(30 + next(40)) {
                for _ in 0..arity {
                    flat.push(next(9));
                }
            }
            let rel = SortedIndex::pack(&Relation::from_flat("R", arity, flat));
            let mut fresh: Vec<Vec<Value>> = Vec::new();
            while fresh.len() < 7 {
                let t: Vec<Value> = (0..arity).map(|_| next(12)).collect();
                if !rel.contains(&t) && !fresh.contains(&t) {
                    fresh.push(t);
                }
            }
            let orders: Vec<Vec<usize>> = match arity {
                2 => vec![vec![0, 1], vec![1, 0]],
                _ => vec![vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0]],
            };
            let before: Vec<SortedIndex> =
                orders.iter().map(|o| SortedIndex::build(&rel, o)).collect();
            let rel = stored(arity, [rows_of(&rel), fresh.clone()].concat());
            for (ix, order) in before.into_iter().zip(&orders) {
                let mut merged = ix;
                merged.merge_insert(&fresh);
                let rebuilt = SortedIndex::build(&rel, order);
                assert_eq!(merged.len(), rebuilt.len(), "trial {trial}");
                for d in 0..arity {
                    assert_eq!(merged.col(d), rebuilt.col(d), "trial {trial} depth {d}");
                }
            }
        }
    }

    #[test]
    fn merge_remove_matches_rebuild() {
        // Property: removing stale tuples from an index over the old
        // relation equals building the index over the shrunken relation —
        // across permuted attribute orders and random victim sets.
        let mut state = 0x51f3u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..20u64 {
            let arity = 2 + (trial % 2) as usize;
            let mut flat = Vec::new();
            for _ in 0..(30 + next(40)) {
                for _ in 0..arity {
                    flat.push(next(9));
                }
            }
            let rel = SortedIndex::pack(&Relation::from_flat("R", arity, flat));
            let k = 1 + next(rel.len() as u64 / 2) as usize;
            let mut stale: Vec<Vec<Value>> = Vec::new();
            while stale.len() < k {
                let t = rows_of(&rel).swap_remove(next(rel.len() as u64) as usize);
                if !stale.contains(&t) {
                    stale.push(t);
                }
            }
            let orders: Vec<Vec<usize>> = match arity {
                2 => vec![vec![0, 1], vec![1, 0]],
                _ => vec![vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0]],
            };
            let before: Vec<SortedIndex> =
                orders.iter().map(|o| SortedIndex::build(&rel, o)).collect();
            let mut rest = rows_of(&rel);
            rest.retain(|t| !stale.contains(t));
            let rel = stored(arity, rest);
            for (ix, order) in before.into_iter().zip(&orders) {
                let mut shrunk = ix;
                let filtered: Vec<Tuple> = shrunk
                    .stale_from(&stale)
                    .unwrap()
                    .into_iter()
                    .cloned()
                    .collect();
                assert_eq!(filtered.len(), stale.len(), "trial {trial}");
                shrunk.merge_remove(&filtered);
                let rebuilt = SortedIndex::build(&rel, order);
                assert_eq!(shrunk.len(), rebuilt.len(), "trial {trial}");
                for d in 0..arity {
                    assert_eq!(shrunk.col(d), rebuilt.col(d), "trial {trial} depth {d}");
                }
            }
        }
    }

    #[test]
    fn stale_from_filters_and_gates() {
        let r = sample();
        let ix = SortedIndex::build(&r, &[2, 0, 1]);
        // Absent tuples are dropped, duplicates collapse.
        let tuples = vec![
            vec![1, 10, 100],
            vec![7, 7, 7],
            vec![1, 10, 100],
            vec![2, 30, 300],
        ];
        let stale = ix.stale_from(&tuples).unwrap();
        assert_eq!(stale.len(), 2);
        // Arity mismatch gates the whole merge.
        assert!(ix.stale_from(&[vec![1, 2]]).is_none());
        // Removing everything empties the index.
        let all = rows_of(&r);
        let mut ix = SortedIndex::build(&r, &[1, 2, 0]);
        let stale: Vec<Tuple> = ix.stale_from(&all).unwrap().into_iter().cloned().collect();
        ix.merge_remove(&stale);
        assert!(ix.is_empty());
        assert_eq!(ix.count(&[], None), 0);
    }

    #[test]
    fn merge_insert_into_empty_and_noop() {
        let empty = stored(2, vec![]);
        let mut ix = SortedIndex::build(&empty, &[1, 0]);
        ix.merge_insert(&Vec::<Vec<Value>>::new());
        assert!(ix.is_empty());
        ix.merge_insert(&[vec![5u64, 1], vec![2, 9]]);
        assert_eq!(ix.len(), 2);
        // Depth 0 is schema column 1: sorted as (1,5), (9,2).
        assert!(ix.col(0).iter().eq([1, 9]));
        assert!(ix.col(1).iter().eq([5, 2]));
        assert_eq!(ix.count(&[9], None), 1);
    }

    /// A delta that puts a value past 2¹⁶ into one column widens that
    /// column, and only it, from 16 to 32 bits; its inverse narrows it
    /// back. Every step equals a fresh build to the byte and the width.
    #[test]
    fn merges_take_a_rebuilds_widths() {
        let rows: Vec<Tuple> = (0..200u64).map(|i| vec![i % 50, 300 + i * 7]).collect();
        let rel = stored(2, rows.clone());
        let order = [1, 0];
        let widths = |ix: &SortedIndex| [ix.col(0).width(), ix.col(1).width()];
        let mut ix = SortedIndex::build(&rel, &order);
        assert_eq!(widths(&ix), [16, 8]);
        let before_bytes = ix.heap_bytes();

        let wide = vec![vec![7u64, 70_000], vec![8, 65_536]];
        let fresh: Vec<Tuple> = ix.fresh_from(&wide).unwrap().into_iter().cloned().collect();
        ix.merge_insert(&fresh);
        let rel = stored(2, [rows, wide.clone()].concat());
        let rebuilt = SortedIndex::build(&rel, &order);
        assert_eq!(widths(&ix), [32, 8]);
        assert_eq!((ix.col(0), ix.col(1)), (rebuilt.col(0), rebuilt.col(1)));
        assert_eq!(ix.heap_bytes(), rebuilt.heap_bytes());

        let stale: Vec<Tuple> = ix.stale_from(&wide).unwrap().into_iter().cloned().collect();
        ix.merge_remove(&stale);
        let mut rest = rows_of(&rel);
        rest.retain(|t| !wide.contains(t));
        let rebuilt = SortedIndex::build(&stored(2, rest), &order);
        assert_eq!(widths(&ix), [16, 8]);
        assert_eq!((ix.col(0), ix.col(1)), (rebuilt.col(0), rebuilt.col(1)));
        assert_eq!(ix.heap_bytes(), before_bytes);
    }
}
