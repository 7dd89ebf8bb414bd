//! Materialized, semijoin-reducible bag relations.

use crate::theorem2::BagWidths;
use cqc_common::error::Result;
use cqc_common::hash::FastMap;
use cqc_common::heap::HeapSize;
use cqc_common::packed::Packed;
use cqc_common::util::partition_point;
use cqc_common::value::{lex_cmp, Value};
use cqc_join::leapfrog::LevelConstraint;
use cqc_join::plan::ViewPlan;
use cqc_query::adorned::AdornedView;
use cqc_query::atom::Atom;
use cqc_query::cq::ConjunctiveQuery;
use cqc_query::{Var, VarSet};
use cqc_storage::Database;
use std::cmp::Ordering;

/// A materialized bag: the join of the bag-projected relations, rows
/// `[bound vars | free vars]` in lexicographic order, stored CSR so that
/// a value many rows share is stored once (the sharing d-representations
/// get their compression from):
///
/// * `keys` — each distinct bound prefix once, sorted; lookups binary
///   search keys, not rows;
/// * `offsets` — key `k`'s rows are `offsets[k]..offsets[k + 1]`;
/// * `free` — each row's free suffix as ranks into `domains`;
/// * `domains` — one sorted domain per free column (the distinct values
///   the surviving rows hold there), back to back. A rank is a position
///   in this buffer, so within a column rank order is value order and
///   rows decode in the order they were stored.
///
/// Every column is [`Packed`] at the width its data needs
/// (docs/ARCHITECTURE.md, "Packed integer columns") and depends only on
/// the rows, so a fresh, a reduced and a cloned bag over the same rows
/// agree to the byte. The layout is this module's: callers get row
/// ranges, key membership and [`MaterializedBag::bind`].
///
/// Variable orders inside a bag are canonical: bound variables sorted by
/// variable index, then free variables sorted by variable index. Key
/// extraction at enumeration time uses the same canonical order; the
/// variables themselves belong to the owning structure's bag.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaterializedBag {
    keys: Packed,
    offsets: Packed,
    free: Packed,
    domains: Packed,
    bound_width: usize,
    free_width: usize,
}

/// The bag-local join components of Appendix B: a synthetic natural-join
/// adorned view (fresh contiguous variables: bound in canonical order, then
/// free in canonical order) over a database of projections `π_{F∩B_t}(R_F)`
/// of every incident relation.
///
/// Returns `(view, projected database, original atom index per local atom)`
/// — the last lets callers map per-edge cover weights onto the local atoms.
///
/// # Errors
///
/// Propagates schema errors.
pub(crate) fn bag_local_components(
    node: usize,
    bound: VarSet,
    free: VarSet,
    atoms: &[(String, Vec<Var>)],
    db: &Database,
) -> Result<(AdornedView, Database, Vec<usize>)> {
    let bag = bound.union(free);
    let bound_vars: Vec<Var> = bound.iter().collect();
    let free_vars: Vec<Var> = free.iter().collect();

    let mut bag_vs: Vec<Var> = bound_vars.clone();
    bag_vs.extend(&free_vars);
    let local_of =
        |v: Var| -> Var { Var(bag_vs.iter().position(|&w| w == v).expect("bag var") as u32) };

    let mut local_db = Database::new();
    let mut local_atoms = Vec::new();
    let mut origins = Vec::new();
    for (i, (rel_name, vars)) in atoms.iter().enumerate() {
        let shared: Vec<usize> = vars
            .iter()
            .enumerate()
            .filter(|(_, v)| bag.contains(**v))
            .map(|(pos, _)| pos)
            .collect();
        if shared.is_empty() {
            continue;
        }
        let rel = db.require(rel_name)?;
        let name = format!("bag{node}_a{i}_{rel_name}");
        local_db.add(rel.project(&name, &shared))?;
        local_atoms.push(Atom::new(
            name,
            shared.iter().map(|&pos| local_of(vars[pos])),
        ));
        origins.push(i);
    }

    let head: Vec<Var> = (0..bag_vs.len() as u32).map(Var).collect();
    let query = ConjunctiveQuery {
        name: format!("bag{node}"),
        head,
        atoms: local_atoms,
        var_names: bag_vs.iter().map(|v| format!("{v}")).collect(),
    };
    let pattern: String = "b".repeat(bound_vars.len()) + &"f".repeat(free_vars.len());
    let view = AdornedView::new(query, &pattern)?;
    Ok((view, local_db, origins))
}

/// Collects sorted, distinct `[bound | free]` rows into key runs.
struct RunBuilder {
    bound_width: usize,
    free_width: usize,
    keys: Vec<Value>,
    /// The first row of each key.
    offsets: Vec<u64>,
    /// Free suffixes as values, row after row.
    suffixes: Vec<Value>,
    rows: usize,
}

impl RunBuilder {
    fn new(bound_width: usize, free_width: usize) -> RunBuilder {
        RunBuilder {
            bound_width,
            free_width,
            keys: Vec::new(),
            offsets: Vec::new(),
            suffixes: Vec::new(),
            rows: 0,
        }
    }

    /// Appends the next row; rows arrive in lexicographic order, so a
    /// key's rows are one run and the key is written when its run starts.
    fn push(&mut self, row: &[Value]) {
        // In release too: a short or long row would shift every later
        // row's columns.
        assert_eq!(
            row.len(),
            self.bound_width + self.free_width,
            "a bag row is [bound | free]"
        );
        let (key, suffix) = row.split_at(self.bound_width);
        // (`lex_cmp`, not `==`: slice equality calls `memcmp`, which
        // costs ~100 ns per row on an empty key here.)
        let same_run = !self.offsets.is_empty()
            && lex_cmp(&self.keys[self.keys.len() - self.bound_width..], key) == Ordering::Equal;
        if !same_run {
            self.keys.extend_from_slice(key);
            self.offsets.push(self.rows as u64);
        }
        self.suffixes.extend_from_slice(suffix);
        self.rows += 1;
    }

    /// Ranks every free column into its domain and packs the columns.
    ///
    /// A column holds far fewer distinct values than rows (that is the
    /// sharing), so each row takes one hash probe for a first-seen id and
    /// only the distinct values are sorted, which maps an id to its rank.
    fn finish(mut self) -> MaterializedBag {
        let fw = self.free_width;
        self.offsets.push(self.rows as u64);
        let mut free = vec![0u64; self.suffixes.len()];
        let mut domains: Vec<Value> = Vec::new();
        let mut ids: FastMap<Value, u64> = FastMap::default();
        let mut distinct: Vec<(Value, u64)> = Vec::new();
        let mut rank_of: Vec<u64> = Vec::new();
        for c in 0..fw {
            ids.clear();
            distinct.clear();
            let column = self.suffixes.iter().skip(c).step_by(fw);
            for (slot, &v) in free.iter_mut().skip(c).step_by(fw).zip(column) {
                let fresh = distinct.len() as u64;
                *slot = *ids.entry(v).or_insert_with(|| {
                    distinct.push((v, fresh));
                    fresh
                });
            }
            distinct.sort_unstable();
            rank_of.resize(distinct.len(), 0);
            for &(value, id) in &distinct {
                rank_of[id as usize] = domains.len() as u64;
                domains.push(value);
            }
            for slot in free.iter_mut().skip(c).step_by(fw) {
                *slot = rank_of[*slot as usize];
            }
        }
        MaterializedBag {
            keys: Packed::from_slice(&self.keys),
            offsets: Packed::from_slice(&self.offsets),
            free: Packed::from_slice(&free),
            domains: Packed::from_slice(&domains),
            bound_width: self.bound_width,
            free_width: fw,
        }
    }
}

impl MaterializedBag {
    /// Materializes the bag (split into `bound`/`free` by the
    /// decomposition) by joining the projections of every incident
    /// relation, as in Appendix B (see [`bag_local_components`]).
    ///
    /// # Errors
    ///
    /// Propagates schema errors from the projection join.
    pub(crate) fn build(
        node: usize,
        bound: VarSet,
        free: VarSet,
        atoms: &[(String, Vec<Var>)],
        db: &Database,
    ) -> Result<MaterializedBag> {
        let (view, local_db, _) = bag_local_components(node, bound, free, atoms, db)?;
        let plan = ViewPlan::build(&view, &local_db)?;

        let mut join = plan.join(vec![LevelConstraint::Free; bound.len() + free.len()]);
        // LFTJ emits in lexicographic order of [bound | free] already.
        let mut runs = RunBuilder::new(bound.len(), free.len());
        while let Some(t) = join.next() {
            runs.push(t);
        }
        Ok(runs.finish())
    }

    /// Number of materialized rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets
            .len()
            .checked_sub(1)
            .map_or(0, |k| self.offsets.get(k) as usize)
    }

    /// Number of distinct bound prefixes.
    pub(crate) fn num_keys(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Distinct free values stored, summed over the free columns.
    pub(crate) fn domain_values(&self) -> usize {
        self.domains.len()
    }

    /// Bits per stored key value, offset, free rank and domain value.
    pub(crate) fn widths(&self) -> BagWidths {
        BagWidths {
            keys: self.keys.width(),
            offsets: self.offsets.width(),
            ranks: self.free.width(),
            values: self.domains.width(),
        }
    }

    /// Key `k` against `key`, value by value.
    #[inline]
    fn cmp_key(&self, k: usize, key: &[Value]) -> Ordering {
        let start = k * self.bound_width;
        for (i, &v) in key.iter().enumerate() {
            match self.keys.get(start + i).cmp(&v) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }

    /// Row `[lo, hi)` bounds of key `k`.
    #[inline]
    fn rows_of(&self, k: usize) -> (usize, usize) {
        (
            self.offsets.get(k) as usize,
            self.offsets.get(k + 1) as usize,
        )
    }

    /// The value of free column `c` in `row`.
    #[inline]
    fn free_value(&self, row: usize, c: usize) -> Value {
        self.domains
            .get(self.free.get(row * self.free_width + c) as usize)
    }

    /// The index of `key` among the keys (binary search: O(log keys)).
    #[inline]
    fn key_index(&self, key: &[Value]) -> Option<usize> {
        // In release too: a shorter key would match any key it prefixes,
        // a longer one compare against the next key's values.
        assert_eq!(key.len(), self.bound_width, "a bag key has its bound width");
        let n = self.num_keys();
        let k = partition_point(0, n, |i| self.cmp_key(i, key) != Ordering::Less);
        (k < n && self.cmp_key(k, key) == Ordering::Equal).then_some(k)
    }

    /// The row range `[lo, hi)` whose bound prefix equals `key`; empty
    /// when no row has it.
    #[inline]
    pub(crate) fn range_for(&self, key: &[Value]) -> (usize, usize) {
        self.key_index(key).map_or((0, 0), |k| self.rows_of(k))
    }

    /// `true` iff some row has the given bound prefix.
    #[inline]
    pub(crate) fn contains_key(&self, key: &[Value]) -> bool {
        self.key_index(key).is_some()
    }

    /// Binds row `row`'s free values to `vars` (the bag's free variables,
    /// canonical order) in `valuation`.
    #[inline]
    pub(crate) fn bind(&self, row: usize, vars: &[Var], valuation: &mut [Option<Value>]) {
        for (c, v) in vars.iter().enumerate() {
            valuation[v.index()] = Some(self.free_value(row, c));
        }
    }

    /// Calls `f` on every row, decoded as `[bound | free]`, in order.
    fn for_each_row(&self, mut f: impl FnMut(&[Value])) {
        let (bw, fw) = (self.bound_width, self.free_width);
        let mut row: Vec<Value> = vec![0; bw + fw];
        for k in 0..self.num_keys() {
            for (i, slot) in row[..bw].iter_mut().enumerate() {
                *slot = self.keys.get(k * bw + i);
            }
            let (lo, hi) = self.rows_of(k);
            for r in lo..hi {
                for (c, slot) in row[bw..].iter_mut().enumerate() {
                    *slot = self.free_value(r, c);
                }
                f(&row);
            }
        }
    }

    /// Retains only the rows for which `keep` returns `true` (the semijoin
    /// reduction step), walking them in order. When a row goes, the
    /// survivors are re-encoded as a fresh build over them would be: keys
    /// without rows leave, and the domains are re-derived.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        let mut runs = RunBuilder::new(self.bound_width, self.free_width);
        self.for_each_row(|row| {
            if keep(row) {
                runs.push(row);
            }
        });
        if runs.rows < self.len() {
            *self = runs.finish();
        }
    }

    /// Creates a bag directly from rows.
    #[cfg(test)]
    fn from_rows(bound_width: usize, width: usize, mut tuples: Vec<Vec<Value>>) -> MaterializedBag {
        tuples.sort_unstable();
        tuples.dedup();
        let mut runs = RunBuilder::new(bound_width, width - bound_width);
        for t in &tuples {
            runs.push(t);
        }
        runs.finish()
    }

    /// Every row `[bound | free]`, in order.
    #[cfg(test)]
    fn rows(&self) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        self.for_each_row(|row| out.push(row.to_vec()));
        out
    }
}

impl HeapSize for MaterializedBag {
    fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + self.offsets.heap_bytes()
            + self.free.heap_bytes()
            + self.domains.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_common::packed::width_for;
    use cqc_storage::Relation;
    use rand::Rng;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 10), (2, 10), (3, 20)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(10, 5), (20, 6), (20, 7)]))
            .unwrap();
        db
    }

    /// The free suffixes of `key`'s rows, decoded in order.
    fn frees(bag: &MaterializedBag, key: &[Value]) -> Vec<Vec<Value>> {
        let fw = bag.free_width;
        let vars: Vec<Var> = (0..fw as u32).map(Var).collect();
        let mut valuation = vec![None; fw];
        let (lo, hi) = bag.range_for(key);
        (lo..hi)
            .map(|r| {
                bag.bind(r, &vars, &mut valuation);
                valuation.iter().map(|v| v.unwrap()).collect()
            })
            .collect()
    }

    /// The layout's bytes, column by column, from the rows alone: each
    /// column at `⌈log₂(max + 1)⌉` bits a value — the width formula
    /// `space_accounting.rs` pins, met with equality.
    fn exact_bytes(bag: &MaterializedBag) -> usize {
        let column = |len: usize, max: u64| (len * width_for(max) as usize).div_ceil(64) * 8;
        let (bw, fw) = (bag.bound_width, bag.free_width);
        let rows = bag.rows();
        let max_in = |cols: std::ops::Range<usize>| {
            rows.iter()
                .flat_map(|r| r[cols.clone()].iter().copied())
                .max()
                .unwrap_or(0)
        };
        let (keys, distinct) = (bag.num_keys(), bag.domain_values());
        column(bw * keys, max_in(0..bw))
            + column(keys + 1, rows.len() as u64)
            + column(fw * rows.len(), distinct.saturating_sub(1) as u64)
            + column(distinct, max_in(bw..bw + fw))
    }

    #[test]
    fn build_joins_projections() {
        // Bag over {x (bound), y (free)} with atoms R(x,y), S(y,z):
        // S projects to {y}, acting as a semijoin filter on y.
        let atoms = vec![
            ("R".to_string(), vec![Var(0), Var(1)]),
            ("S".to_string(), vec![Var(1), Var(2)]),
        ];
        let bag = MaterializedBag::build(1, vs(&[0]), vs(&[1]), &atoms, &db()).unwrap();
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.rows()[0], [1, 10]);
        assert_eq!(frees(&bag, &[2]), [[10]]);
        assert!(bag.contains_key(&[3]));
        assert!(!bag.contains_key(&[4]));
        // Two distinct y values for three rows.
        assert_eq!((bag.num_keys(), bag.domain_values()), (3, 2));
        assert_eq!(bag.heap_bytes(), exact_bytes(&bag));
    }

    // A key of the wrong width used to read in release: `[1]` found key
    // `(1, 10)` by prefix, and `[1, 10, 2]` read the next key's `2`.
    #[test]
    #[should_panic(expected = "a bag key has its bound width")]
    fn a_short_key_panics() {
        let bag = MaterializedBag::from_rows(2, 3, vec![vec![1, 10, 5], vec![2, 20, 6]]);
        let _ = bag.contains_key(&[1]);
    }

    #[test]
    #[should_panic(expected = "a bag key has its bound width")]
    fn a_long_key_panics() {
        let bag = MaterializedBag::from_rows(2, 3, vec![vec![1, 10, 5], vec![2, 20, 6]]);
        let _ = bag.range_for(&[1, 10, 2]);
    }

    #[test]
    #[should_panic(expected = "a bag row is [bound | free]")]
    fn a_row_of_the_wrong_width_panics() {
        let _ = MaterializedBag::from_rows(1, 2, vec![vec![1, 10], vec![2, 20, 6]]);
    }

    #[test]
    fn retain_filters_rows() {
        let mut bag = MaterializedBag::from_rows(1, 2, vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        bag.retain(|row| row[1] >= 20);
        assert_eq!(bag.len(), 2);
        assert!(!bag.contains_key(&[1]));
        assert!(bag.contains_key(&[2]));
        assert_eq!(frees(&bag, &[3]), [[30]]);
        // The dropped row's key and value are gone, not just unreachable.
        let fresh = MaterializedBag::from_rows(1, 2, vec![vec![2, 20], vec![3, 30]]);
        assert_eq!(bag.rows(), fresh.rows());
        assert_eq!(bag.heap_bytes(), fresh.heap_bytes());
        assert_eq!(bag.heap_bytes(), exact_bytes(&bag));
    }

    #[test]
    fn range_for_handles_duplicate_keys() {
        let bag = MaterializedBag::from_rows(
            1,
            2,
            vec![vec![1, 10], vec![1, 11], vec![1, 12], vec![2, 5]],
        );
        let (lo, hi) = bag.range_for(&[1]);
        assert_eq!(hi - lo, 3);
        assert_eq!(frees(&bag, &[1]), [[10], [11], [12]]);
        // Key 1 is stored once for its three rows.
        assert_eq!(bag.num_keys(), 2);
    }

    #[test]
    fn empty_key_spans_everything() {
        // A root-child bag with no bound vars: the key is empty.
        let bag = MaterializedBag::from_rows(0, 2, vec![vec![1, 2], vec![3, 4]]);
        let (lo, hi) = bag.range_for(&[]);
        assert_eq!((lo, hi), (0, 2));
        assert_eq!(frees(&bag, &[]), [[1, 2], [3, 4]]);
        assert_eq!(bag.num_keys(), 1);
        assert_eq!(bag.heap_bytes(), exact_bytes(&bag));
    }

    #[test]
    fn all_bound_bag_stores_keys_only() {
        // `derive` materializes a bag with nothing free: every row is a key.
        let bag = MaterializedBag::from_rows(2, 2, vec![vec![1, 2], vec![1, 3], vec![4, 1]]);
        assert_eq!((bag.len(), bag.num_keys(), bag.domain_values()), (3, 3, 0));
        assert!(bag.contains_key(&[1, 3]));
        assert!(!bag.contains_key(&[1, 4]));
        assert_eq!(bag.range_for(&[4, 1]), (2, 3));
        assert_eq!(frees(&bag, &[1, 2]), [Vec::<Value>::new()]);
        assert_eq!(bag.heap_bytes(), exact_bytes(&bag));
    }

    #[test]
    fn multi_column_keys_and_suffixes() {
        let rows = vec![
            vec![1, 1, 7, 9, 3],
            vec![1, 1, 7, 2, 3],
            vec![1, 2, 7, 9, 3],
            vec![2, 1, 5, 9, 4],
            vec![1, 1, 6, 9, 4],
        ];
        let bag = MaterializedBag::from_rows(2, 5, rows);
        assert_eq!(frees(&bag, &[1, 1]), [[6, 9, 4], [7, 2, 3], [7, 9, 3]]);
        assert_eq!(frees(&bag, &[1, 2]), [[7, 9, 3]]);
        assert_eq!(frees(&bag, &[2, 1]), [[5, 9, 4]]);
        assert!(frees(&bag, &[2, 2]).is_empty());
        // Three keys; the domains hold {5, 6, 7}, {2, 9} and {3, 4}.
        assert_eq!((bag.num_keys(), bag.domain_values()), (3, 7));
        assert_eq!(bag.heap_bytes(), exact_bytes(&bag));
    }

    #[test]
    fn values_past_u32_round_trip_through_ranks() {
        let big = u64::MAX - 3;
        let rows = vec![
            vec![1 << 40, big, 1 << 33],
            vec![1 << 40, u64::MAX, 0],
            vec![5, 1 << 32, u64::MAX],
        ];
        let bag = MaterializedBag::from_rows(1, 3, rows.clone());
        let mut sorted = rows;
        sorted.sort_unstable();
        assert_eq!(bag.rows(), sorted);
        assert_eq!(frees(&bag, &[1 << 40]), [[big, 1 << 33], [u64::MAX, 0]]);
        // The domain column holds `u64::MAX`: 64 bits a value, read back
        // across word boundaries.
        let widths = bag.widths();
        assert_eq!((widths.keys, widths.values), (41, 64));
        assert_eq!(bag.heap_bytes(), exact_bytes(&bag));
    }

    #[test]
    fn retain_down_to_empty() {
        let mut bag = MaterializedBag::from_rows(1, 3, vec![vec![1, 2, 3], vec![4, 5, 6]]);
        bag.retain(|_| false);
        assert_eq!((bag.len(), bag.num_keys(), bag.domain_values()), (0, 0, 0));
        assert!(!bag.contains_key(&[1]));
        assert_eq!(bag.range_for(&[4]), (0, 0));
        // What a build over no rows holds: the offsets sentinel, one word.
        let fresh = MaterializedBag::from_rows(1, 3, Vec::new());
        assert_eq!(bag.heap_bytes(), fresh.heap_bytes());
        assert_eq!(bag.heap_bytes(), 8);
    }

    /// Property, over seeded random instances: random rows → bag, and
    /// every key's range decodes to exactly the sorted rows with that
    /// prefix, in order; retaining a random subset is a fresh build over
    /// that subset, byte for byte.
    #[test]
    fn every_key_decodes_to_its_sorted_rows() {
        let mut rng = cqc_workload::rng(25);
        for case in 0..300 {
            let (bw, fw) = (rng.gen_range(0..3usize), rng.gen_range(0..3usize));
            let width = bw + fw;
            let n = rng.gen_range(0..60usize);
            let mut rows: Vec<Vec<Value>> = (0..n)
                .map(|_| (0..width).map(|_| rng.gen_range(0..6u64)).collect())
                .collect();
            let bag = MaterializedBag::from_rows(bw, width, rows.clone());
            rows.sort_unstable();
            rows.dedup();
            assert_eq!(bag.rows(), rows, "case {case}");
            assert_eq!(bag.heap_bytes(), exact_bytes(&bag), "case {case}");
            let mut keys: Vec<Vec<Value>> = rows.iter().map(|r| r[..bw].to_vec()).collect();
            keys.dedup();
            assert_eq!(bag.num_keys(), keys.len(), "case {case}");
            for key in keys {
                let expect: Vec<Vec<Value>> = rows
                    .iter()
                    .filter(|r| r[..bw] == key[..])
                    .map(|r| r[bw..].to_vec())
                    .collect();
                assert_eq!(frees(&bag, &key), expect, "case {case}, key {key:?}");
            }

            let keep: Vec<bool> = rows.iter().map(|_| rng.gen_bool(0.6)).collect();
            let mut reduced = bag.clone();
            let mut flags = keep.iter();
            reduced.retain(|_| *flags.next().unwrap());
            let kept: Vec<Vec<Value>> = rows
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(r, _)| r.clone())
                .collect();
            let fresh = MaterializedBag::from_rows(bw, width, kept.clone());
            assert_eq!(reduced.rows(), kept, "case {case}");
            assert_eq!(reduced.heap_bytes(), fresh.heap_bytes(), "case {case}");
        }
    }
}
