//! Relations: deduplicated sorted tuple sets, as loaders build them.

use crate::radix::sort_perm;
use cqc_common::metrics::{self, BuildPhase};
use cqc_common::value::{lex_cmp, Tuple, Value};
use std::cmp::Ordering;
use std::time::Instant;

/// A relation instance: a set of `arity`-tuples over the value domain.
///
/// Rows are held row-major in a single flat buffer, sorted
/// lexicographically in schema order and deduplicated. This is the *build*
/// form that loaders, generators, Theorem 2 projections and snapshot load
/// produce; [`crate::Database::add`] packs it into its identity-order
/// [`crate::SortedIndex`], the only form a database keeps, so sortedness
/// gives O(log n) membership without an auxiliary hash table and the base
/// indexes stay linear in size as §4.3 requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    arity: usize,
    rows: Vec<Value>,
}

impl Relation {
    /// Builds a relation from tuples, sorting and deduplicating.
    ///
    /// # Panics
    ///
    /// Panics if any tuple's length differs from `arity`, or if `arity == 0`.
    pub fn new(name: impl Into<String>, arity: usize, tuples: Vec<Tuple>) -> Relation {
        let mut flat = Vec::with_capacity(tuples.len() * arity);
        for t in &tuples {
            assert_eq!(t.len(), arity, "tuple arity mismatch in relation");
            flat.extend_from_slice(t);
        }
        Relation::from_flat(name, arity, flat)
    }

    /// Builds a relation from a flat row-major buffer (`rows * arity`
    /// values), sorting via a row permutation and deduplicating — no
    /// per-tuple `Vec` is ever allocated, which is what the bulk loaders
    /// and the shard partitioner use. Already-sorted input (the common case
    /// when rows come from another sorted relation) is detected and adopted
    /// without copying; everything else is sorted by an LSD radix
    /// permutation sort (comparison fallback for high arities and tiny
    /// inputs) instead of `sort_unstable_by(lex_cmp)` through the row
    /// indirection.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0` or `flat.len()` is not a multiple of `arity`.
    pub fn from_flat(name: impl Into<String>, arity: usize, flat: Vec<Value>) -> Relation {
        assert!(arity > 0, "relations must have positive arity");
        assert_eq!(
            flat.len() % arity,
            0,
            "flat buffer length must be a multiple of the arity"
        );
        let n = flat.len() / arity;
        let row = |i: usize| &flat[i * arity..(i + 1) * arity];
        if (1..n).all(|i| lex_cmp(row(i - 1), row(i)) == Ordering::Less) {
            return Relation {
                name: name.into(),
                arity,
                rows: flat,
            };
        }
        let t0 = Instant::now();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(n)).collect();
        for i in 0..n {
            for (col, &v) in cols.iter_mut().zip(row(i)) {
                col.push(v);
            }
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        sort_perm(&mut perm, &cols);
        metrics::record_build_phase(BuildPhase::Sort, t0.elapsed().as_nanos() as u64);
        let mut rows: Vec<Value> = Vec::with_capacity(flat.len());
        for &ri in &perm {
            let r = row(ri as usize);
            if rows.len() >= arity && rows[rows.len() - arity..] == *r {
                continue; // duplicate of the row just emitted
            }
            rows.extend_from_slice(r);
        }
        Relation {
            name: name.into(),
            arity,
            rows,
        }
    }

    /// Builds a binary relation from `(a, b)` pairs; common in the graph
    /// workloads.
    pub fn from_pairs(
        name: impl Into<String>,
        pairs: impl IntoIterator<Item = (Value, Value)>,
    ) -> Relation {
        let pairs = pairs.into_iter();
        let mut flat = Vec::with_capacity(pairs.size_hint().0 * 2);
        for (a, b) in pairs {
            flat.push(a);
            flat.push(b);
        }
        Relation::from_flat(name, 2, flat)
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len() / self.arity
    }

    /// `true` if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th tuple in schema-lexicographic order.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over tuples in schema-lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.rows.chunks_exact(self.arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Delta, SortedIndex};

    fn r() -> Relation {
        Relation::new(
            "R",
            2,
            vec![vec![3, 1], vec![1, 2], vec![1, 2], vec![2, 2], vec![1, 1]],
        )
    }

    /// `rel` as a database stores it.
    fn stored(rel: Relation) -> Database {
        let mut db = Database::new();
        db.add(rel).unwrap();
        db
    }

    /// Inserts (`insert = true`) or removes `tuples` of the one relation
    /// `R` of `db` through the stored relation's splice; returns how many
    /// tuples genuinely changed.
    fn splice(db: &mut Database, insert: bool, tuples: &[Tuple]) -> usize {
        let before = db.size();
        let mut delta = Delta::new();
        for t in tuples {
            match insert {
                true => delta.insert("R", t.clone()),
                false => delta.remove("R", t.clone()),
            }
        }
        db.apply(&delta).unwrap();
        before.abs_diff(db.size())
    }

    fn rows(db: &Database) -> Vec<Tuple> {
        let mut scan = db.get("R").unwrap().scan();
        let mut rows = Vec::new();
        while let Some(row) = scan.next_row() {
            rows.push(row.to_vec());
        }
        rows
    }

    #[test]
    fn sorts_and_dedups() {
        let r = r();
        assert_eq!(r.len(), 4);
        let rows: Vec<&[Value]> = r.iter().collect();
        assert_eq!(rows, vec![&[1, 1][..], &[1, 2], &[2, 2], &[3, 1]]);
    }

    /// Membership is the stored relation's, and a tuple of another length
    /// is never a member — in release builds too, where no `debug_assert`
    /// stands between a short or long tuple and a prefix match.
    #[test]
    fn membership() {
        let r = SortedIndex::pack(&r());
        assert!(r.contains(&[1, 2]));
        assert!(r.contains(&[3, 1]));
        assert!(!r.contains(&[2, 1]));
        assert!(!r.contains(&[0, 0]));
        assert!(!r.contains(&[4, 4]));
        let pairs = SortedIndex::pack(&Relation::from_pairs("R", [(1, 2), (3, 4)]));
        assert!(pairs.contains(&[1, 2]));
        for wrong_arity in [&[1, 2, 9][..], &[3, 4, 0, 0], &[], &[1], &[3]] {
            assert!(!pairs.contains(wrong_arity), "{wrong_arity:?}");
        }
    }

    #[test]
    fn column_values_sorted_distinct() {
        let r = SortedIndex::pack(&r());
        assert_eq!(r.column_values(0), vec![1, 2, 3]);
        assert_eq!(r.column_values(1), vec![1, 2]);
        // A column that does not lead the order is sorted after decoding.
        let flipped = SortedIndex::build(&r, &[1, 0]);
        assert_eq!(flipped.column_values(0), vec![1, 2, 3]);
    }

    #[test]
    fn projection_dedups() {
        let r = SortedIndex::pack(&r());
        let p = SortedIndex::pack(&r.project("P", &[1]));
        assert_eq!(p.arity(), 1);
        assert_eq!(p.len(), 2);
        assert!(p.contains(&[1]));
        assert!(p.contains(&[2]));
        // Reordering columns.
        let q = SortedIndex::pack(&r.project("Q", &[1, 0]));
        assert!(q.contains(&[2, 1]));
        assert!(!q.contains(&[1, 2]) || r.contains(&[2, 1]));
    }

    #[test]
    fn from_flat_matches_new() {
        let tuples = vec![vec![3, 1], vec![1, 2], vec![1, 2], vec![2, 2], vec![1, 1]];
        let flat: Vec<Value> = tuples.iter().flatten().copied().collect();
        assert_eq!(
            Relation::from_flat("R", 2, flat),
            Relation::new("R", 2, tuples)
        );
        // Already-sorted input is adopted as-is.
        let sorted = Relation::from_flat("S", 2, vec![1, 1, 1, 2, 2, 2]);
        assert_eq!(sorted.len(), 3);
        assert_eq!(sorted.row(1), &[1, 2]);
        // Sorted-with-duplicates still dedups.
        let dup = Relation::from_flat("D", 1, vec![1, 1, 2]);
        assert_eq!(dup.len(), 2);
        // Empty buffer.
        assert!(Relation::from_flat("E", 3, vec![]).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of the arity")]
    fn from_flat_ragged_buffer_panics() {
        Relation::from_flat("R", 2, vec![1, 2, 3]);
    }

    #[test]
    fn from_pairs_builds_binary() {
        let r = Relation::from_pairs("E", vec![(1, 2), (2, 1), (1, 2)]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_relation() {
        let r = SortedIndex::pack(&Relation::new("E", 3, vec![]));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(!r.contains(&[1, 2, 3]));
        assert_eq!(r.column_values(2), Vec::<Value>::new());
    }

    #[test]
    #[should_panic(expected = "tuple arity mismatch")]
    fn arity_mismatch_panics() {
        Relation::new("R", 2, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn insert_tuples_merges_sorted() {
        let mut db = stored(r());
        // One duplicate of an existing row, one internal duplicate, two new.
        let n = splice(
            &mut db,
            true,
            &[vec![1, 2], vec![0, 9], vec![0, 9], vec![9, 0]],
        );
        assert_eq!(n, 2);
        assert_eq!(
            rows(&db),
            vec![[0, 9], [1, 1], [1, 2], [2, 2], [3, 1], [9, 0]]
        );
        // Re-inserting is a no-op.
        assert_eq!(splice(&mut db, true, &[vec![0, 9]]), 0);
        assert_eq!(db.size(), 6);
    }

    #[test]
    fn remove_tuples_compacts_sorted() {
        let mut db = stored(r());
        // One present row, one absent, one duplicate removal of a present row.
        let n = splice(
            &mut db,
            false,
            &[vec![1, 2], vec![8, 8], vec![1, 2], vec![3, 1]],
        );
        assert_eq!(n, 2);
        assert_eq!(rows(&db), vec![[1, 1], [2, 2]]);
        // Removing again is an idempotent no-op.
        assert_eq!(splice(&mut db, false, &[vec![1, 2]]), 0);
        // Draining the relation entirely.
        assert_eq!(splice(&mut db, false, &[vec![1, 1], vec![2, 2]]), 2);
        assert!(db.get("R").unwrap().is_empty());
    }

    #[test]
    fn remove_then_insert_round_trips() {
        let mut db = stored(r());
        let before = db.get("R").unwrap().clone();
        assert_eq!(splice(&mut db, false, &[vec![2, 2]]), 1);
        assert_eq!(splice(&mut db, true, &[vec![2, 2]]), 1);
        assert_eq!(db.get("R").unwrap(), &before);
    }

    #[test]
    fn removals_compact_physically_no_tombstones() {
        // Removal is physical compaction, not tombstoning: the dead rows
        // leave the packed columns immediately, so heap usage shrinks, the
        // stored relation equals one packed from the survivors, and no
        // read ever sees a removed row.
        use cqc_common::heap::HeapSize;
        let mut db = stored(Relation::from_flat("R", 2, (0..200).collect()));
        let before_bytes = db.get("R").unwrap().heap_bytes();
        let victims: Vec<Tuple> = (0..50).map(|i| vec![4 * i, 4 * i + 1]).collect();
        assert_eq!(splice(&mut db, false, &victims), 50);
        let rel = db.get("R").unwrap();
        assert_eq!(rel.len(), 50);
        assert!(rel.heap_bytes() < before_bytes, "no memory reclaimed");
        for v in &victims {
            assert!(!rel.contains(v), "tombstone visible for {v:?}");
        }
        let rest = rows(&db);
        let survivors = Relation::new("R", 2, rest.clone());
        assert_eq!(db.get("R").unwrap(), &SortedIndex::pack(&survivors));
        // Draining everything leaves a genuinely empty relation, and the
        // empty relation keeps accepting both operations.
        assert_eq!(splice(&mut db, false, &rest), 50);
        assert!(db.get("R").unwrap().is_empty());
        assert_eq!(splice(&mut db, false, &[vec![0, 1]]), 0);
        assert_eq!(splice(&mut db, true, &[vec![0, 1]]), 1);
    }

    #[test]
    fn interleaved_inserts_and_removes_match_set_model() {
        // Model-based: a stream of interleaved inserts/removes against a
        // BTreeSet oracle. The stored relation must agree on cardinality,
        // membership, and (sorted) row order at every step.
        let mut db = stored(Relation::new("R", 2, vec![]));
        let mut model = std::collections::BTreeSet::<Tuple>::new();
        let mut state = 0x9e3779b97f4a7c15u64; // fixed-seed xorshift
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let t = vec![next() % 7, next() % 7];
            if next() % 3 == 0 {
                let removed = splice(&mut db, false, std::slice::from_ref(&t));
                assert_eq!(removed == 1, model.remove(&t));
            } else {
                let inserted = splice(&mut db, true, std::slice::from_ref(&t));
                assert_eq!(inserted == 1, model.insert(t.clone()));
            }
            assert_eq!(db.size(), model.len());
        }
        let expect: Vec<Tuple> = model.into_iter().collect();
        assert_eq!(rows(&db), expect, "relation diverged from the set model");
    }

    #[test]
    fn insert_into_empty_relation() {
        let mut db = stored(Relation::new("R", 2, vec![]));
        assert_eq!(splice(&mut db, true, &[vec![2, 1], vec![1, 2]]), 2);
        assert_eq!(rows(&db), vec![[1, 2], [2, 1]]);
    }
}
