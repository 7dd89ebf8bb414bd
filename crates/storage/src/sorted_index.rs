//! Sorted relation indexes, stored as tries.
//!
//! A [`SortedIndex`] stores the tuples of a relation sorted lexicographically
//! under an arbitrary attribute permutation, as a trie over that order: the
//! f-representation of a single relation. It serves two masters:
//!
//! 1. **Count probes** (`cqc-core`): the quantities `|R_F(B)|` and
//!    `|R_F(v_b, B)|` of §4.2 constrain a *prefix* of attributes to constants
//!    plus at most one attribute to a value range, so under the right
//!    attribute order they select one contiguous run of nodes at one depth —
//!    a binary search per constrained depth, and [`SortedIndex::rows`] turns
//!    the run into the row count the oracle multiplies: the paper's Õ(1)
//!    count oracle.
//! 2. **Trie cursors** (`cqc-join`): the leapfrog trie-join navigates the
//!    trie level by level; this index exposes the per-depth keys and the
//!    range-narrowing operations the cursors need.
//!
//! **Layout.** Every depth but the last holds each distinct value once per
//! parent node ([`SortedIndex::keys`]) and a column of child offsets into the
//! next depth: node `i` of depth `d` owns nodes `off[i]..off[i + 1]` of depth
//! `d + 1`. The last depth holds one value per row, so node `i` there is row
//! `i`. A node of out-degree `k` stores its value once, not `k` times. Each
//! key and offset column is a searchable [`Packed`] column, stored at the
//! whole word size (8, 16, 32 or 64 bits) its largest value needs and
//! searched in place.
//!
//! **Ranges are depth-local.** A range is a run of sibling nodes at one
//! depth. [`SortedIndex::root`] is depth 0's; [`SortedIndex::narrow_eq`] at
//! depth `d` returns the matched node's children at depth `d + 1`, and
//! [`SortedIndex::narrow_range`] stays at depth `d`. Row readers
//! ([`SortedIndex::len`], [`SortedIndex::value`], [`SortedIndex::row_into`],
//! [`SortedIndex::scan`]) keep row semantics.
//!
//! The identity-order index ([`SortedIndex::pack`]) is also how a
//! [`crate::Database`] stores a relation: there is no second, unpacked
//! copy of the rows, and a delta splices into it through
//! [`SortedIndex::splice`].

use crate::radix::{columns_sorted, sort_perm};
use crate::relation::Relation;
use cqc_common::heap::HeapSize;
use cqc_common::metrics::{self, BuildPhase};
use cqc_common::packed::Packed;
use cqc_common::value::{lex_cmp, Tuple, Value};
use std::time::Instant;

/// A lexicographically sorted projection of a relation under a fixed
/// attribute order, stored as a trie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedIndex {
    /// `order[d]` is the schema column stored at sort depth `d`.
    order: Vec<usize>,
    /// `keys[d]` holds depth `d`'s nodes, each sibling run ascending; the
    /// last depth holds one node per row.
    keys: Vec<Packed>,
    /// `offsets[d]`, for every depth but the last: `keys[d].len() + 1`
    /// ascending entries from 0, node `i`'s children at depth `d + 1` being
    /// `offsets[d][i]..offsets[d][i + 1]`.
    offsets: Vec<Packed>,
}

impl SortedIndex {
    /// The identity-order index of `relation`: its schema-sorted rows
    /// stored as a trie, with no sort. This is the form a
    /// [`crate::Database`] stores every relation in.
    pub fn pack(relation: &Relation) -> SortedIndex {
        let order = (0..relation.arity()).collect();
        SortedIndex::from_rows(order, relation.len(), |i, d| relation.row(i)[d])
    }

    /// The trie of `n` rows sorted lexicographically under `order`, the
    /// value at depth `d` of row `i` being `at(i, d)`. Rows must be
    /// distinct.
    fn from_rows(order: Vec<usize>, n: usize, at: impl Fn(usize, usize) -> Value) -> SortedIndex {
        let last = order.len() - 1;
        // The depths above the last; the last is packed straight from `at`.
        let mut keys: Vec<Vec<Value>> = vec![Vec::new(); last];
        let mut offsets: Vec<Vec<u64>> = vec![Vec::new(); last];
        // Nodes at depth `d` before row `i`: a count, or the row itself.
        let nodes = |keys: &[Vec<Value>], d: usize, i: usize| match keys.get(d) {
            Some(k) => k.len() as u64,
            None => i as u64,
        };
        for i in 0..n {
            // Row i opens a new node at every depth from the first one
            // where it leaves row i - 1's path.
            let from = match i {
                0 => 0,
                _ => (0..last)
                    .find(|&d| at(i, d) != at(i - 1, d))
                    .unwrap_or(last),
            };
            for d in from..last {
                offsets[d].push(nodes(&keys, d + 1, i));
                keys[d].push(at(i, d));
            }
        }
        for (d, off) in offsets.iter_mut().enumerate() {
            off.push(nodes(&keys, d + 1, n));
        }
        let pack = |col: &Vec<u64>| Packed::searchable(col.iter().copied());
        let leaves = Packed::searchable((0..n).map(|i| at(i, last)));
        SortedIndex {
            order,
            keys: keys.iter().map(pack).chain([leaves]).collect(),
            offsets: offsets.iter().map(pack).collect(),
        }
    }

    /// Builds the index of the stored `relation` sorted by the attribute
    /// permutation `order` (`order[d]` = schema column at depth `d`).
    ///
    /// Construction is sort-light: the relation's rows are decoded depth by
    /// depth in sequential passes, an input already sorted under `order` is
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
            .map(|&c| relation.depth_rows(relation.depth_of(c)))
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
        let index = SortedIndex::from_rows(order.to_vec(), n, |i, d| cols[d][i]);
        metrics::record_build_phase(BuildPhase::Index, t0.elapsed().as_nanos() as u64);
        index
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys[self.arity() - 1].len()
    }

    /// `true` if the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of attributes, one sort depth each.
    pub fn arity(&self) -> usize {
        self.order.len()
    }

    /// The attribute order (`order[d]` = schema column at depth `d`).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The node keys at depth `d`: each sibling run ascending and distinct.
    /// Only the last depth has one key per row.
    #[inline]
    pub fn keys(&self, d: usize) -> &Packed {
        &self.keys[d]
    }

    /// The depth-0 range: every root node.
    #[inline]
    pub fn root(&self) -> (usize, usize) {
        (0, self.keys[0].len())
    }

    /// The children of node `i` at depth `d`, a range at depth `d + 1`. At
    /// the last depth, where node `i` is row `i`, that is `(i, i + 1)`.
    #[inline]
    pub fn children(&self, d: usize, i: usize) -> (usize, usize) {
        match self.offsets.get(d) {
            Some(off) => (off.get(i) as usize, off.get(i + 1) as usize),
            None => (i, i + 1),
        }
    }

    /// Narrows the depth-`d` range `[lo, hi)` to its node whose value is
    /// `v` and returns that node's children, a range at depth `d + 1`
    /// (empty when no node matches).
    #[inline]
    pub fn narrow_eq(&self, lo: usize, hi: usize, d: usize, v: Value) -> (usize, usize) {
        let keys = &self.keys[d];
        let at = keys.lower_bound(lo, hi, v);
        if at < hi && keys.get(at) == v {
            self.children(d, at)
        } else {
            (0, 0)
        }
    }

    /// Narrows the depth-`d` range `[lo, hi)` to the nodes whose value lies
    /// in the inclusive range `[vlo, vhi]`: a range at depth `d` still.
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
        let keys = &self.keys[d];
        let l = keys.lower_bound(lo, hi, vlo);
        let h = keys.upper_bound(l, hi, vhi);
        (l, h)
    }

    /// The number of rows below the depth-`d` range `[lo, hi)`: its
    /// offsets followed down to the last depth, two reads a depth. `d` may
    /// be the arity, where [`SortedIndex::narrow_eq`] at the last depth
    /// lands: rows again.
    #[inline]
    pub fn rows(&self, d: usize, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return 0;
        }
        let (mut lo, mut hi) = (lo, hi);
        for off in self.offsets.get(d..).unwrap_or_default() {
            (lo, hi) = (off.get(lo) as usize, off.get(hi) as usize);
        }
        hi - lo
    }

    /// The range matching a prefix of constants at depths
    /// `0..prefix.len()`: a range at depth `prefix.len()`.
    ///
    /// # Panics
    ///
    /// Panics when the prefix is longer than the arity, in release builds
    /// too: a longer one that matches no row would count as empty.
    pub fn range_of_prefix(&self, prefix: &[Value]) -> (usize, usize) {
        assert!(
            prefix.len() <= self.arity(),
            "a prefix of {} values on an index of arity {}",
            prefix.len(),
            self.arity()
        );
        let (mut lo, mut hi) = self.root();
        for (d, &v) in prefix.iter().enumerate() {
            if lo >= hi {
                break;
            }
            (lo, hi) = self.narrow_eq(lo, hi, d, v);
        }
        (lo, hi)
    }

    /// The depth schema column `c` is stored at.
    fn depth_of(&self, c: usize) -> usize {
        let d = self.order.iter().position(|&o| o == c);
        d.expect("column out of range")
    }

    /// The parent at depth `d` of node `i` at depth `d + 1`.
    #[inline]
    fn parent(&self, d: usize, i: usize) -> usize {
        let off = &self.offsets[d];
        off.upper_bound(0, off.len(), i as u64) - 1
    }

    /// The value at depth `d` of sorted row `row` (for a stored relation,
    /// whose order is the identity, depth `d` is schema column `d`): one
    /// binary search over the offsets per depth below `d`.
    pub fn value(&self, d: usize, row: usize) -> Value {
        let node = (d..self.arity() - 1)
            .rev()
            .fold(row, |i, e| self.parent(e, i));
        self.keys[d].get(node)
    }

    /// Decodes sorted row `i` into `out` in schema order (`out` is
    /// overwritten): random access, a binary search per depth. A reader of
    /// every row uses [`SortedIndex::scan`] instead.
    pub fn row_into(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        out.resize(self.arity(), 0);
        let mut node = i;
        for d in (0..self.arity()).rev() {
            if d < self.arity() - 1 {
                node = self.parent(d, node);
            }
            out[self.order[d]] = self.keys[d].get(node);
        }
    }

    /// A cursor over every row in sorted order, each in schema order:
    /// `O(arity)` amortized a row, no search.
    pub fn scan(&self) -> RowScan<'_> {
        let arity = self.arity();
        let mut row = vec![0; arity];
        if !self.is_empty() {
            for (keys, &c) in self.keys.iter().zip(&self.order) {
                row[c] = keys.get(0);
            }
        }
        RowScan {
            index: self,
            next: 0,
            path: vec![0; arity],
            row,
        }
    }

    /// Depth `d`'s value of every row, in sorted order: its keys decoded
    /// and each repeated over its rows, one sequential pass a depth.
    fn depth_rows(&self, d: usize) -> Vec<Value> {
        let keys = &self.keys[d];
        let mut vals = Vec::with_capacity(keys.len());
        keys.decode_into(0..keys.len(), &mut vals);
        let mut offs = Vec::new();
        for off in &self.offsets[d..] {
            offs.clear();
            off.decode_into(0..off.len(), &mut offs);
            let mut below = Vec::with_capacity(offs.last().map_or(0, |&n| n as usize));
            for (run, &v) in offs.windows(2).zip(&vals) {
                below.resize(run[1] as usize, v);
            }
            vals = below;
        }
        vals
    }

    /// Sorted distinct values of schema column `c`: depth 0's keys as they
    /// are, any other depth's sorted and deduplicated.
    pub fn column_values(&self, c: usize) -> Vec<Value> {
        let d = self.depth_of(c);
        let keys = &self.keys[d];
        let mut vals = Vec::with_capacity(keys.len());
        keys.decode_into(0..keys.len(), &mut vals);
        if d != 0 {
            vals.sort_unstable();
            vals.dedup();
        }
        vals
    }

    /// Projects the rows onto schema columns `cols` (deduplicated) as a new
    /// relation: Theorem 2's per-bag databases π_{F∩Bt}(R_F) of
    /// Appendix B.
    pub fn project(&self, name: impl Into<String>, cols: &[usize]) -> Relation {
        assert!(!cols.is_empty(), "projection needs at least one column");
        let mut flat = Vec::with_capacity(self.len() * cols.len());
        let mut scan = self.scan();
        while let Some(row) = scan.next_row() {
            flat.extend(cols.iter().map(|&c| row[c]));
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
        let (mut lo, mut hi) = self.root();
        for (d, &c) in self.order.iter().enumerate() {
            if lo >= hi {
                return false;
            }
            (lo, hi) = self.narrow_eq(lo, hi, d, tuple[c]);
        }
        lo < hi
    }

    /// Filters a delta's tuples down to the rows genuinely new to this
    /// index (absent, internal duplicates removed) — exactly the `fresh`
    /// rows [`SortedIndex::splice`] expects. Returns `None` when a tuple's
    /// arity mismatches the index, in which case the caller should rebuild.
    pub fn fresh_from<'a>(&self, tuples: &'a [Tuple]) -> Option<Vec<&'a Tuple>> {
        self.filter(tuples, false)
    }

    /// Filters a delta's removal tuples down to the rows genuinely present
    /// in this index (internal duplicates removed) — exactly the `stale`
    /// rows [`SortedIndex::splice`] expects. Returns `None` when a tuple's
    /// arity mismatches the index, in which case the caller should rebuild.
    pub fn stale_from<'a>(&self, tuples: &'a [Tuple]) -> Option<Vec<&'a Tuple>> {
        self.filter(tuples, true)
    }

    /// The distinct `tuples` whose membership is `present`, sorted.
    fn filter<'a>(&self, tuples: &'a [Tuple], present: bool) -> Option<Vec<&'a Tuple>> {
        let mut kept: Vec<&Tuple> = Vec::new();
        for t in tuples {
            if t.len() != self.arity() {
                return None;
            }
            if self.contains(t) == present {
                kept.push(t);
            }
        }
        kept.sort_unstable_by(|a, b| lex_cmp(a, b));
        kept.dedup();
        Some(kept)
    }

    /// This index with the `fresh` tuples added and the `stale` ones
    /// deleted (schema order; fresh ones absent, stale ones present, no
    /// duplicates within either), in place of a full rebuild: each tuple is
    /// located among the rows by one descent of the trie (`O(k · arity ·
    /// log n)`), every depth is decoded once and copied around the edits in
    /// runs, and the trie is re-derived — `O(arity · (n + k))`, never an
    /// `O(n log n)` re-sort. This is the incremental base-index maintenance
    /// path, one splice per delta per index. The result is exactly the
    /// index, widths and bytes a rebuild would give.
    ///
    /// # Panics
    ///
    /// Panics if a tuple's length differs from the index arity, if a fresh
    /// tuple is present or a stale one absent (callers filter via
    /// [`SortedIndex::fresh_from`] and [`SortedIndex::stale_from`] first).
    pub fn splice(
        &self,
        fresh: &[impl AsRef<[Value]>],
        stale: &[impl AsRef<[Value]>],
    ) -> SortedIndex {
        if fresh.is_empty() && stale.is_empty() {
            return self.clone();
        }
        let (adds, dels) = (self.depth_major(fresh), self.depth_major(stale));
        // `(row, Some(add))` inserts `add` before old row `row`, `(row,
        // None)` drops it; in row order, an insert before a drop at one row.
        let mut edits: Vec<(usize, Option<&[Value]>)> = Vec::new();
        for add in &adds {
            let (row, present) = self.locate(add);
            assert!(!present, "fresh tuple already in index");
            edits.push((row, Some(add)));
        }
        for del in &dels {
            let (row, present) = self.locate(del);
            assert!(present, "stale tuple not present in index");
            edits.push((row, None));
        }
        edits.sort_by_key(|&(row, add)| (row, add.is_none()));
        let cols: Vec<Vec<Value>> = (0..self.arity())
            .map(|d| {
                let old = self.depth_rows(d);
                let mut col = Vec::with_capacity(old.len() + adds.len());
                let mut from = 0;
                for &(row, add) in &edits {
                    col.extend_from_slice(&old[from..row]);
                    from = row;
                    match add {
                        Some(add) => col.push(add[d]),
                        None => from += 1,
                    }
                }
                col.extend_from_slice(&old[from..]);
                col
            })
            .collect();
        SortedIndex::from_rows(self.order.clone(), cols[0].len(), |i, d| cols[d][i])
    }

    /// The rows sorting before the depth-major tuple `key`, and whether
    /// `key` is a row: one descent, a binary search a depth.
    fn locate(&self, key: &[Value]) -> (usize, bool) {
        let (mut lo, mut hi) = self.root();
        for (d, &v) in key.iter().enumerate() {
            let keys = &self.keys[d];
            let at = keys.lower_bound(lo, hi, v);
            if at == hi || keys.get(at) != v {
                return (self.rows(d, 0, at), false);
            }
            (lo, hi) = self.children(d, at);
        }
        (lo, true)
    }

    /// `tuples` in depth-major layout, sorted under the index order.
    fn depth_major<T: AsRef<[Value]>>(&self, tuples: &[T]) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = tuples
            .iter()
            .map(|t| {
                let t = t.as_ref();
                assert_eq!(
                    t.len(),
                    self.arity(),
                    "tuple arity mismatch in index splice"
                );
                self.order.iter().map(|&c| t[c]).collect()
            })
            .collect();
        rows.sort_unstable_by(|a, b| lex_cmp(a, b));
        rows
    }

    /// The paper's count oracle: number of rows whose depth-`0..p` values
    /// equal `prefix` and (when `range` is given) whose depth-`p` value lies
    /// in the inclusive range. Depths beyond are unconstrained.
    ///
    /// Cost: a binary search per constrained depth and two offset reads
    /// per depth below, i.e. Õ(1).
    ///
    /// # Panics
    ///
    /// Panics, in release builds too, when the prefix is longer than the
    /// arity, or as long as it with a range (no depth is left to range
    /// over).
    pub fn count(&self, prefix: &[Value], range: Option<(Value, Value)>) -> usize {
        metrics::record_count_probe();
        let (lo, hi) = self.range_of_prefix(prefix);
        let d = prefix.len();
        match range {
            None => self.rows(d, lo, hi),
            Some((vlo, vhi)) => {
                assert!(d < self.arity(), "range depth out of bounds");
                let (l, h) = self.narrow_range(lo, hi, d, vlo, vhi);
                self.rows(d, l, h)
            }
        }
    }
}

/// A cursor over a [`SortedIndex`]'s rows in sorted order, from
/// [`SortedIndex::scan`]: each step moves the current path down the trie,
/// so reading every row is linear.
#[derive(Debug)]
pub struct RowScan<'a> {
    index: &'a SortedIndex,
    /// The row the next step returns.
    next: usize,
    /// `path[d]`: the depth-`d` node of the current row.
    path: Vec<usize>,
    /// The current row, in schema order.
    row: Vec<Value>,
}

impl RowScan<'_> {
    /// The next row in sorted order, in schema order, or `None` past the
    /// last.
    pub fn next_row(&mut self) -> Option<&[Value]> {
        let ix = self.index;
        let i = self.next;
        if i >= ix.len() {
            return None;
        }
        self.next += 1;
        let last = ix.arity() - 1;
        self.path[last] = i;
        self.row[ix.order[last]] = ix.keys[last].get(i);
        // Move each ancestor on while its children end at or before the
        // node below; once one stays, every one above it does.
        for d in (0..last).rev() {
            let (child, mut node) = (self.path[d + 1], self.path[d]);
            while ix.offsets[d].get(node + 1) as usize <= child {
                node += 1;
            }
            if node == self.path[d] {
                break;
            }
            self.path[d] = node;
            self.row[ix.order[d]] = ix.keys[d].get(node);
        }
        Some(&self.row)
    }
}

impl HeapSize for SortedIndex {
    fn heap_bytes(&self) -> usize {
        self.order.heap_bytes()
            + self
                .keys
                .iter()
                .chain(&self.offsets)
                .map(HeapSize::heap_bytes)
                .sum::<usize>()
            + (self.keys.capacity() + self.offsets.capacity()) * std::mem::size_of::<Packed>()
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
        let mut rows = Vec::new();
        let mut scan = ix.scan();
        while let Some(row) = scan.next_row() {
            rows.push(row.to_vec());
        }
        rows
    }

    #[test]
    fn identity_order_counts() {
        let r = sample();
        let ix = SortedIndex::build(&r, &[0, 1, 2]);
        assert_eq!(ix, r, "an index in the stored order is the stored trie");
        assert_eq!(ix.len(), 6);
        assert_eq!(ix.count(&[], None), 6);
        assert_eq!(ix.count(&[1], None), 3);
        assert_eq!(ix.count(&[1, 10], None), 2);
        assert_eq!(ix.count(&[1, 10, 100], None), 1);
        assert_eq!(ix.count(&[4], None), 0);
        // Each leading value once, each (a, b) prefix once.
        assert!(ix.keys(0).iter().eq([1, 2, 3]));
        assert!(ix.keys(1).iter().eq([10, 20, 10, 30, 10]));
        assert_eq!(ix.keys(2).len(), 6);
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

    /// A prefix longer than the arity that matches no row would count 0:
    /// it panics instead, in release builds too.
    #[test]
    #[should_panic(expected = "a prefix of 4 values on an index of arity 3")]
    fn a_prefix_longer_than_the_arity_panics() {
        sample().count(&[9, 9, 9, 9], None);
    }

    /// A range needs a depth below the prefix: a full-length prefix with a
    /// range panics, in release builds too.
    #[test]
    #[should_panic(expected = "range depth out of bounds")]
    fn a_range_below_a_full_prefix_panics() {
        sample().count(&[9, 9, 9], Some((0, 5)));
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
        // Depth 0 holds each leading value once, ascending.
        let c0: Vec<Value> = ix.keys(0).iter().collect();
        assert_eq!(c0, vec![100, 200, 300]);
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
        assert_eq!(ix.root(), (0, 0));
        assert_eq!(ix.count(&[], None), 0);
        assert_eq!(ix.count(&[1], Some((0, 10))), 0);
        assert!(ix.scan().next_row().is_none());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_panics() {
        let r = sample();
        SortedIndex::build(&r, &[0, 0, 1]);
    }

    /// Every permutation of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..n {
                let mut q = p.clone();
                q.insert(at, n - 1);
                all.push(q);
            }
        }
        all
    }

    /// The trie against a flat model: the same rows, sorted under the
    /// order, one value per row and depth. Arity 1 to 4, every attribute
    /// order, domains of 2 to 5 values per column so long prefixes repeat;
    /// every probe a reader can make is asked of both.
    #[test]
    fn trie_matches_a_flat_model() {
        let mut state = 0x7e1eu64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..24u64 {
            let arity = 1 + (trial % 4) as usize;
            let domain = 2 + trial % 4;
            let mut flat = Vec::new();
            for _ in 0..(1 + next(60)) * arity as u64 {
                flat.push(next(domain) * 300);
            }
            let rel = SortedIndex::pack(&Relation::from_flat("R", arity, flat));
            let schema_rows = rows_of(&rel);
            for order in permutations(arity) {
                let at = format!("trial {trial} order {order:?}");
                let ix = SortedIndex::build(&rel, &order);
                // The model: depth-major rows, sorted.
                let mut model: Vec<Vec<Value>> = schema_rows
                    .iter()
                    .map(|t| order.iter().map(|&c| t[c]).collect())
                    .collect();
                model.sort();
                assert_eq!(ix.len(), model.len(), "{at}");

                // Row readers keep row semantics.
                let mut row = Vec::new();
                let mut scan = ix.scan();
                for (i, m) in model.iter().enumerate() {
                    ix.row_into(i, &mut row);
                    assert_eq!(scan.next_row(), Some(&row[..]), "{at} row {i}");
                    for (d, &c) in order.iter().enumerate() {
                        assert_eq!((row[c], ix.value(d, i)), (m[d], m[d]), "{at} row {i}");
                    }
                }
                assert!(scan.next_row().is_none());
                for (d, &c) in order.iter().enumerate() {
                    let mut column: Vec<Value> = model.iter().map(|m| m[d]).collect();
                    column.sort_unstable();
                    column.dedup();
                    assert_eq!(ix.column_values(c), column, "{at} column {c}");
                }

                // Every prefix of every row, and one that leaves the data
                // at each depth: the depth-local range holds exactly the
                // distinct next values below the prefix, `rows` counts the
                // rows below it, and every value range over it matches.
                let mut prefixes: Vec<Vec<Value>> = vec![Vec::new()];
                for m in &model {
                    for p in 1..=arity {
                        prefixes.push(m[..p].to_vec());
                        prefixes.push([&m[..p - 1], &[m[p - 1] + 1]].concat());
                    }
                }
                prefixes.sort();
                prefixes.dedup();
                for prefix in &prefixes {
                    let p = prefix.len();
                    let below: Vec<&Vec<Value>> =
                        model.iter().filter(|m| m.starts_with(prefix)).collect();
                    let (lo, hi) = ix.range_of_prefix(prefix);
                    assert_eq!(ix.rows(p, lo, hi), below.len(), "{at} {prefix:?}");
                    assert_eq!(ix.count(prefix, None), below.len(), "{at} {prefix:?}");
                    if p == arity {
                        let tuple: Vec<Value> = (0..arity)
                            .map(|c| prefix[order.iter().position(|&o| o == c).unwrap()])
                            .collect();
                        assert_eq!(ix.contains(&tuple), below.len() == 1, "{at}");
                        continue;
                    }
                    let mut next_vals: Vec<Value> = below.iter().map(|m| m[p]).collect();
                    next_vals.dedup();
                    let keys = (lo..hi).map(|i| ix.keys(p).get(i));
                    assert!(keys.eq(next_vals.iter().copied()), "{at} {prefix:?}");
                    for (vlo, vhi) in [(0, 0), (0, 300), (300, 600), (1, 899), (600, 5000)] {
                        let expect = below.iter().filter(|m| (vlo..=vhi).contains(&m[p])).count();
                        let (l, h) = ix.narrow_range(lo, hi, p, vlo, vhi);
                        assert_eq!(ix.rows(p, l, h), expect, "{at} {prefix:?} [{vlo}, {vhi}]");
                        assert_eq!(ix.count(prefix, Some((vlo, vhi))), expect, "{at}");
                    }
                    for &v in next_vals.iter().chain(&[1, 5000]) {
                        let (l, h) = ix.narrow_eq(lo, hi, p, v);
                        let expect = below.iter().filter(|m| m[p] == v).count();
                        assert_eq!(ix.rows(p + 1, l, h), expect, "{at} {prefix:?} = {v}");
                    }
                }

                // Splice ≡ rebuild, to the byte.
                let fresh: Vec<Tuple> = (0..1 + next(5))
                    .map(|_| (0..arity).map(|_| next(domain + 1) * 300).collect())
                    .filter(|t: &Tuple| !ix.contains(t))
                    .collect();
                let stale: Vec<Tuple> = schema_rows
                    .iter()
                    .filter(|_| next(4) == 0)
                    .cloned()
                    .collect();
                let (fresh, stale) = (
                    ix.fresh_from(&fresh).unwrap(),
                    ix.stale_from(&stale).unwrap(),
                );
                let spliced = ix.splice(&fresh, &stale);
                let mut rest: Vec<Tuple> = schema_rows
                    .iter()
                    .filter(|t| !stale.contains(t))
                    .chain(fresh.iter().copied())
                    .cloned()
                    .collect();
                rest.sort();
                let rebuilt = SortedIndex::build(&stored(arity, rest), &order);
                assert_eq!(spliced, rebuilt, "{at}");
                assert_eq!(spliced.heap_bytes(), rebuilt.heap_bytes(), "{at}");
            }
        }
    }

    /// Property: splicing a delta's fresh and stale tuples into an index
    /// over the old relation equals building the index over the new
    /// relation — whole indexes compared — across permuted attribute
    /// orders. `insert` and `remove` pick which side of the delta is drawn.
    fn assert_splice_matches_rebuild(seed: u64, insert: bool, remove: bool) {
        let mut state = seed;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..10u64 {
            let arity = 2 + (trial % 2) as usize;
            let mut flat = Vec::new();
            for _ in 0..(30 + next(40)) {
                for _ in 0..arity {
                    flat.push(next(9));
                }
            }
            let rel = SortedIndex::pack(&Relation::from_flat("R", arity, flat));
            let rows = rows_of(&rel);
            let mut fresh: Vec<Vec<Value>> = Vec::new();
            while insert && fresh.len() < 7 {
                let t: Vec<Value> = (0..arity).map(|_| next(12)).collect();
                if !rel.contains(&t) && !fresh.contains(&t) {
                    fresh.push(t);
                }
            }
            let mut stale: Vec<Vec<Value>> = Vec::new();
            let k = 1 + next(rel.len() as u64 / 2) as usize;
            while remove && stale.len() < k {
                let t = rows[next(rel.len() as u64) as usize].clone();
                if !stale.contains(&t) {
                    stale.push(t);
                }
            }
            let mut after: Vec<Tuple> = rows
                .iter()
                .filter(|t| !stale.contains(t))
                .cloned()
                .collect();
            after.extend(fresh.iter().cloned());
            let after = stored(arity, after);
            for order in permutations(arity) {
                let spliced = SortedIndex::build(&rel, &order).splice(&fresh, &stale);
                assert_eq!(spliced, SortedIndex::build(&after, &order), "trial {trial}");
            }
        }
    }

    #[test]
    fn merge_insert_matches_rebuild() {
        assert_splice_matches_rebuild(0x5eed, true, false);
    }

    #[test]
    fn merge_remove_matches_rebuild() {
        assert_splice_matches_rebuild(0xbeef, false, true);
    }

    #[test]
    fn splice_matches_rebuild() {
        assert_splice_matches_rebuild(0x9e37, true, true);
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
        let ix = SortedIndex::build(&r, &[1, 2, 0]);
        let ix = ix.splice(&[] as &[Tuple], &ix.stale_from(&all).unwrap());
        assert!(ix.is_empty());
        assert_eq!(ix.count(&[], None), 0);
        assert_eq!(ix, SortedIndex::build(&stored(3, vec![]), &[1, 2, 0]));
    }

    #[test]
    fn merge_insert_into_empty_and_noop() {
        let empty = stored(2, vec![]);
        let none: &[Tuple] = &[];
        let ix = SortedIndex::build(&empty, &[1, 0]).splice(none, none);
        assert!(ix.is_empty());
        let ix = ix.splice(&[vec![5u64, 1], vec![2, 9]], none);
        assert_eq!(ix.len(), 2);
        // Depth 0 is schema column 1: sorted as (1,5), (9,2).
        assert!(ix.keys(0).iter().eq([1, 9]));
        assert!(ix.keys(1).iter().eq([5, 2]));
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
        let none: &[&Tuple] = &[];
        let widths = |ix: &SortedIndex| [ix.keys(0).width(), ix.keys(1).width()];
        let mut ix = SortedIndex::build(&rel, &order);
        assert_eq!(widths(&ix), [16, 8]);
        let before_bytes = ix.heap_bytes();

        let wide = vec![vec![7u64, 70_000], vec![8, 65_536]];
        ix = ix.splice(&ix.fresh_from(&wide).unwrap(), none);
        let rel = stored(2, [rows, wide.clone()].concat());
        let rebuilt = SortedIndex::build(&rel, &order);
        assert_eq!(widths(&ix), [32, 8]);
        assert_eq!(ix, rebuilt);
        assert_eq!(ix.heap_bytes(), rebuilt.heap_bytes());

        ix = ix.splice(none, &ix.stale_from(&wide).unwrap());
        let mut rest = rows_of(&rel);
        rest.retain(|t| !wide.contains(t));
        let rebuilt = SortedIndex::build(&stored(2, rest), &order);
        assert_eq!(widths(&ix), [16, 8]);
        assert_eq!(ix, rebuilt);
        assert_eq!(ix.heap_bytes(), before_bytes);
    }
}
