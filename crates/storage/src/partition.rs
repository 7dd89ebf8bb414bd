//! Hash partitioning of databases into disjoint shard sub-databases.
//!
//! The paper's structures compose over disjoint sub-instances: a compressed
//! representation built per shard still answers its shard's output with the
//! same delay guarantees, so partitioning the database lets one engine span
//! cores. A [`PartitionSpec`] assigns every relation either a **hash
//! column** (rows are routed to `shard = hash(row[col]) % S`) or
//! **replication** (the full relation lives in every shard). When all
//! hashed columns carry the *same* query variable, every answer valuation
//! is witnessed in exactly one shard — the shard owning the valuation's
//! value for that variable — so the union of per-shard answers is exactly
//! the full answer set, with no duplicates (see
//! `cqc_engine::ShardedEngine`).
//!
//! A [`Partitioning`] also routes [`Delta`]s: a delta splits into per-shard
//! deltas that touch only the shards owning their rows, which is what keeps
//! shard epochs independent — the global database version is simply the
//! vector of shard epochs.

use crate::database::Database;
use crate::delta::Delta;
use crate::relation::Relation;
use cqc_common::error::{CqcError, Result};
use cqc_common::hash::FastMap;
use cqc_common::value::Value;

/// How one relation is distributed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAssignment {
    /// Rows are routed by the hash of the value in this schema column.
    Hash(usize),
    /// The full relation is copied into every shard (shared storage).
    Replicate,
}

/// Per-relation shard assignments. Relations not listed are replicated.
#[derive(Debug, Clone, Default)]
pub struct PartitionSpec {
    by_relation: FastMap<String, ShardAssignment>,
}

impl PartitionSpec {
    /// An empty spec (everything replicated).
    pub fn new() -> PartitionSpec {
        PartitionSpec::default()
    }

    /// Assigns `relation` to be hash-partitioned by schema column `col`.
    pub fn hash(mut self, relation: &str, col: usize) -> PartitionSpec {
        self.by_relation
            .insert(relation.to_string(), ShardAssignment::Hash(col));
        self
    }

    /// Explicitly marks `relation` replicated (the default for unlisted
    /// relations; listing it documents intent and survives merges).
    pub fn replicate(mut self, relation: &str) -> PartitionSpec {
        self.by_relation
            .insert(relation.to_string(), ShardAssignment::Replicate);
        self
    }

    /// The assignment of `relation` ([`ShardAssignment::Replicate`] when
    /// unlisted).
    pub fn assignment(&self, relation: &str) -> ShardAssignment {
        self.by_relation
            .get(relation)
            .copied()
            .unwrap_or(ShardAssignment::Replicate)
    }

    /// Number of hash-partitioned relations.
    pub fn num_hashed(&self) -> usize {
        self.by_relation
            .values()
            .filter(|a| matches!(a, ShardAssignment::Hash(_)))
            .count()
    }

    /// The listed `(relation, assignment)` pairs, sorted by name (for
    /// deterministic reporting).
    pub fn assignments(&self) -> Vec<(&str, ShardAssignment)> {
        let mut v: Vec<(&str, ShardAssignment)> = self
            .by_relation
            .iter()
            .map(|(n, a)| (n.as_str(), *a))
            .collect();
        v.sort_unstable_by_key(|(n, _)| *n);
        v
    }
}

/// The shard a value routes to: a splitmix64-style finalizer keeps the
/// routing independent of the value distribution (sequential ids would
/// otherwise land consecutive values in one shard under plain modulo).
#[inline]
pub fn shard_of_value(v: Value, shards: usize) -> usize {
    let mut x = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// A spec bound to a concrete shard count: splits databases and deltas.
#[derive(Debug, Clone)]
pub struct Partitioning {
    spec: PartitionSpec,
    shards: usize,
}

impl Partitioning {
    /// Binds `spec` to `shards` sub-databases.
    ///
    /// # Errors
    ///
    /// [`CqcError::Config`] when `shards == 0`.
    pub fn new(spec: PartitionSpec, shards: usize) -> Result<Partitioning> {
        if shards == 0 {
            return Err(CqcError::Config("a partitioning needs ≥ 1 shard".into()));
        }
        Ok(Partitioning { spec, shards })
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The underlying spec.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// The shard owning `tuple` of `relation`, or `None` when the relation
    /// is replicated (the tuple lives in every shard).
    pub fn shard_of_tuple(&self, relation: &str, tuple: &[Value]) -> Result<Option<usize>> {
        match self.spec.assignment(relation) {
            ShardAssignment::Replicate => Ok(None),
            ShardAssignment::Hash(col) => {
                let Some(&v) = tuple.get(col) else {
                    return Err(CqcError::Schema(format!(
                        "hash column {col} out of range for a {}-tuple of `{relation}`",
                        tuple.len()
                    )));
                };
                Ok(Some(shard_of_value(v, self.shards)))
            }
        }
    }

    /// Splits `db` into `shards` disjoint sub-databases: hashed relations
    /// are partitioned row by row (each sub-relation inherits sorted order,
    /// so no re-sort happens, and is packed once), replicated relations share one allocation
    /// across all shards via [`Database::add_arc`]. Every shard contains
    /// every relation name, so schema checks behave identically per shard.
    ///
    /// # Errors
    ///
    /// [`CqcError::Schema`] when a hash column is out of range for its
    /// relation.
    pub fn split_database(&self, db: &Database) -> Result<Vec<Database>> {
        let mut out: Vec<Database> = (0..self.shards).map(|_| Database::new()).collect();
        for (name, rel) in db.named_relations() {
            match self.spec.assignment(name) {
                ShardAssignment::Replicate => {
                    for shard in &mut out {
                        shard.add_arc(name, std::sync::Arc::clone(rel))?;
                    }
                }
                ShardAssignment::Hash(col) => {
                    if col >= rel.arity() {
                        return Err(CqcError::Schema(format!(
                            "hash column {col} out of range for relation `{name}` (arity {})",
                            rel.arity()
                        )));
                    }
                    let mut flats: Vec<Vec<Value>> = (0..self.shards).map(|_| Vec::new()).collect();
                    let mut scan = rel.scan();
                    while let Some(row) = scan.next_row() {
                        flats[shard_of_value(row[col], self.shards)].extend_from_slice(row);
                    }
                    for (shard, flat) in out.iter_mut().zip(flats) {
                        shard.add(Relation::from_flat(name, rel.arity(), flat))?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Splits a delta into one delta per shard: hashed tuples (inserts and
    /// removes alike) route to the single shard owning them, replicated
    /// tuples go to every shard. A shard whose delta comes back empty is
    /// untouched by the update — its epoch must not move, which is what
    /// keeps cross-shard catalog entries independently valid.
    ///
    /// # Errors
    ///
    /// [`CqcError::Schema`] when a hash column is out of range for a tuple.
    pub fn split_delta(&self, delta: &Delta) -> Result<Vec<Delta>> {
        let mut out: Vec<Delta> = (0..self.shards).map(|_| Delta::new()).collect();
        for (name, tuples) in delta.groups() {
            for t in tuples {
                match self.shard_of_tuple(name, t)? {
                    Some(s) => out[s].insert(name, t.clone()),
                    None => {
                        for d in &mut out {
                            d.insert(name, t.clone());
                        }
                    }
                }
            }
        }
        for (name, tuples) in delta.remove_groups() {
            for t in tuples {
                match self.shard_of_tuple(name, t)? {
                    Some(s) => out[s].remove(name, t.clone()),
                    None => {
                        for d in &mut out {
                            d.remove(name, t.clone());
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs(
            "R",
            (0..40u64).map(|i| (i % 7, i % 11)),
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "S",
            (0..30u64).map(|i| (i % 11, i % 5)),
        ))
        .unwrap();
        db.add(Relation::from_pairs("T", vec![(1, 2), (3, 4)]))
            .unwrap();
        db
    }

    fn spec() -> PartitionSpec {
        // Partition R and S on the columns of a shared variable (R.1 = S.0),
        // replicate T.
        PartitionSpec::new()
            .hash("R", 1)
            .hash("S", 0)
            .replicate("T")
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let db = db();
        for shards in [1usize, 2, 4, 7] {
            let p = Partitioning::new(spec(), shards).unwrap();
            let subs = p.split_database(&db).unwrap();
            assert_eq!(subs.len(), shards);
            for name in ["R", "S"] {
                let full = db.get(name).unwrap();
                let total: usize = subs.iter().map(|s| s.get(name).unwrap().len()).sum();
                assert_eq!(total, full.len(), "{name} at {shards} shards");
                let mut scan = full.scan();
                while let Some(row) = scan.next_row() {
                    let holders = subs
                        .iter()
                        .filter(|s| s.get(name).unwrap().contains(row))
                        .count();
                    assert_eq!(holders, 1, "{name} row {row:?} at {shards} shards");
                }
            }
            // Replicated relation is in every shard, sharing storage.
            for s in &subs {
                assert_eq!(s.get("T").unwrap().len(), 2);
                assert!(std::ptr::eq(s.get("T").unwrap(), db.get("T").unwrap()));
            }
        }
    }

    #[test]
    fn rows_agreeing_on_hash_column_land_together() {
        let db = db();
        let p = Partitioning::new(spec(), 4).unwrap();
        let subs = p.split_database(&db).unwrap();
        // Every R row with second component v and every S row with first
        // component v must live in the same shard — the join-locality
        // property sharded serving relies on.
        for v in 0..11u64 {
            let expect = shard_of_value(v, 4);
            for (si, sub) in subs.iter().enumerate() {
                let r_here = sub.get("R").unwrap().column_values(1).contains(&v);
                let s_here = sub.get("S").unwrap().column_values(0).contains(&v);
                if si != expect {
                    assert!(!r_here && !s_here, "value {v} leaked into shard {si}");
                }
            }
        }
    }

    #[test]
    fn delta_routes_to_owning_shards_only() {
        let p = Partitioning::new(spec(), 4).unwrap();
        let mut delta = Delta::new();
        delta.insert("R", vec![100, 3]);
        delta.insert("S", vec![3, 100]);
        delta.insert("T", vec![9, 9]);
        let split = p.split_delta(&delta).unwrap();
        let owner = shard_of_value(3, 4);
        for (si, d) in split.iter().enumerate() {
            // T is replicated: every shard sees it.
            assert!(d.touches("T"));
            // R and S rows with the shared value 3 go only to its owner.
            assert_eq!(d.touches("R"), si == owner);
            assert_eq!(d.touches("S"), si == owner);
        }
        // Applying the split deltas to split databases matches applying the
        // original to the full database.
        let mut full = db();
        let subs = p.split_database(&full).unwrap();
        let mut subs: Vec<Database> = subs;
        full.apply(&delta).unwrap();
        for (s, d) in subs.iter_mut().zip(&split) {
            s.apply(d).unwrap();
        }
        for name in ["R", "S"] {
            let total: usize = subs.iter().map(|s| s.get(name).unwrap().len()).sum();
            assert_eq!(total, full.get(name).unwrap().len());
        }
    }

    #[test]
    fn delta_removes_route_like_inserts() {
        let p = Partitioning::new(spec(), 4).unwrap();
        let mut full = db();
        let mut subs = p.split_database(&full).unwrap();
        // Remove one hashed row each from R and S plus one replicated row,
        // and insert a fresh hashed row — a genuinely mixed delta.
        let mut delta = Delta::new();
        delta.remove("R", vec![0, 0]); // present: (0 % 7, 0 % 11)
        delta.remove("S", vec![0, 0]); // present: (0 % 11, 0 % 5)
        delta.remove("T", vec![1, 2]);
        delta.insert("R", vec![100, 3]);
        let split = p.split_delta(&delta).unwrap();
        let owner0 = shard_of_value(0, 4);
        for (si, d) in split.iter().enumerate() {
            assert!(d.touches("T"), "replicated remove reaches shard {si}");
            assert_eq!(
                d.removes_for("R").is_some_and(|ts| !ts.is_empty()),
                si == owner0
            );
        }
        full.apply(&delta).unwrap();
        for (s, d) in subs.iter_mut().zip(&split) {
            s.apply(d).unwrap();
        }
        for name in ["R", "S"] {
            let total: usize = subs.iter().map(|s| s.get(name).unwrap().len()).sum();
            assert_eq!(total, full.get(name).unwrap().len(), "{name}");
        }
        for s in &subs {
            assert!(!s.get("T").unwrap().contains(&[1, 2]));
        }
    }

    #[test]
    fn epoch_moves_only_on_touched_shards() {
        let p = Partitioning::new(spec(), 4).unwrap();
        let db = db();
        let mut subs = p.split_database(&db).unwrap();
        let before: Vec<_> = subs.iter().map(Database::epoch).collect();
        let mut delta = Delta::new();
        delta.insert("R", vec![55, 3]); // owner = shard_of_value(3, 4)
        let split = p.split_delta(&delta).unwrap();
        for (s, d) in subs.iter_mut().zip(&split) {
            s.apply(d).unwrap();
        }
        let owner = shard_of_value(3, 4);
        for (si, (s, b)) in subs.iter().zip(&before).enumerate() {
            if si == owner {
                assert!(s.epoch() > *b, "owner shard must bump");
            } else {
                assert_eq!(s.epoch(), *b, "untouched shard must not bump");
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Partitioning::new(PartitionSpec::new(), 0).is_err());
        let p = Partitioning::new(PartitionSpec::new().hash("R", 9), 2).unwrap();
        assert!(p.split_database(&db()).is_err());
        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        assert!(p.split_delta(&delta).is_err());
    }

    #[test]
    fn spec_introspection() {
        let s = spec();
        assert_eq!(s.num_hashed(), 2);
        assert_eq!(s.assignment("R"), ShardAssignment::Hash(1));
        assert_eq!(s.assignment("T"), ShardAssignment::Replicate);
        assert_eq!(s.assignment("Unlisted"), ShardAssignment::Replicate);
        assert_eq!(s.assignments().len(), 3);
        // Hash routing is deterministic and in range.
        for v in 0..100u64 {
            let s1 = shard_of_value(v, 7);
            assert!(s1 < 7);
            assert_eq!(s1, shard_of_value(v, 7));
        }
    }
}
