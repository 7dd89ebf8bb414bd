//! The database catalog.

use crate::delta::Delta;
use crate::relation::Relation;
use crate::sorted_index::SortedIndex;
use cqc_common::error::{CqcError, Result};
use cqc_common::hash::FastMap;
use cqc_common::heap::HeapSize;
use std::sync::Arc;

/// Index of a relation inside a [`Database`].
pub type RelationId = usize;

/// A monotone version counter: every mutation of a [`Database`] — adding a
/// relation or applying a [`Delta`] — bumps it. Consumers (the engine's
/// representation catalog) stamp derived artifacts with the epoch they were
/// built at and treat a smaller stamp as stale.
pub type Epoch = u64;

/// A database instance `D`: a named collection of relations, versioned by
/// an [`Epoch`] counter.
///
/// Each relation is stored once, as its identity-order [`SortedIndex`]:
/// a trie of packed whole-byte columns, searched in place. That index is also the
/// one every view asks the [`crate::IndexPool`] for in the relation's own
/// order, so no second copy of the rows exists.
///
/// Relations are held behind `Arc`, so cloning a database — the engine
/// snapshots one per applied delta — copies `O(#relations)` pointers, and
/// [`Database::apply`] re-derives only the relations the delta actually
/// changes, each into a new allocation, never the whole `|D|`.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: Vec<(String, Arc<SortedIndex>)>,
    by_name: FastMap<String, RelationId>,
    epoch: Epoch,
}

impl Database {
    /// Creates an empty database (epoch 0).
    pub fn new() -> Database {
        Database::default()
    }

    /// The current version of the database. Strictly increases with every
    /// successful mutation; queries and representation builds against one
    /// epoch are consistent snapshots.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Adds a relation, packed into its identity-order index, returning
    /// its id and bumping the epoch.
    ///
    /// # Errors
    ///
    /// Fails if a relation with the same name already exists.
    pub fn add(&mut self, relation: Relation) -> Result<RelationId> {
        let packed = SortedIndex::pack(&relation);
        self.add_arc(relation.name(), Arc::new(packed))
    }

    /// Adds an already-shared stored relation under `name`, returning its
    /// id and bumping the epoch. The shard partitioner uses this to
    /// replicate one relation into every sub-database without copying its
    /// rows; copy-on-write ([`Database::apply`]) still clones it if a
    /// shard-local delta touches it later.
    ///
    /// # Errors
    ///
    /// Fails if a relation with the same name already exists.
    pub fn add_arc(&mut self, name: &str, relation: Arc<SortedIndex>) -> Result<RelationId> {
        if self.by_name.contains_key(name) {
            return Err(CqcError::Schema(format!(
                "relation `{name}` already exists"
            )));
        }
        let id = self.relations.len();
        self.by_name.insert(name.to_string(), id);
        self.relations.push((name.to_string(), relation));
        self.epoch += 1;
        Ok(id)
    }

    /// The shared handle of the relation named `name`, if present — the
    /// cheap way to replicate a relation into another database.
    pub fn get_arc(&self, name: &str) -> Option<Arc<SortedIndex>> {
        self.by_name
            .get(name)
            .map(|&id| Arc::clone(&self.relations[id].1))
    }

    /// Applies a batched delta (insertions and removals) atomically: every
    /// referenced relation must exist with matching arity or nothing is
    /// changed. Removing an absent tuple is an idempotent no-op. The epoch
    /// is bumped iff at least one tuple was genuinely inserted or removed;
    /// the (possibly unchanged) epoch is returned.
    ///
    /// Each touched relation takes one [`SortedIndex::splice`] of its
    /// inserts and removals together. The genuinely new (and present)
    /// tuples are probed first, in `O(k log n)`, so a relation the delta
    /// does not change keeps its allocation, shared with every snapshot.
    /// [`Delta`] keeps its per-relation insert and remove sets disjoint
    /// (last write wins), so the two filters do not interact.
    ///
    /// # Errors
    ///
    /// [`CqcError::Schema`] when a relation is missing or a tuple's arity
    /// mismatches; the database is left untouched.
    pub fn apply(&mut self, delta: &Delta) -> Result<Epoch> {
        // Validate everything before mutating anything (atomicity).
        for (name, tuples) in delta.groups().chain(delta.remove_groups()) {
            let rel = self.require(name)?;
            for t in tuples {
                if t.len() != rel.arity() {
                    return Err(CqcError::Schema(format!(
                        "delta tuple {t:?} has arity {} but relation `{name}` has arity {}",
                        t.len(),
                        rel.arity()
                    )));
                }
            }
        }
        let mut changed = 0usize;
        for name in delta.relation_names() {
            let rel = &mut self.relations[self.by_name[name]].1;
            let (inserts, removes) = (delta.tuples_for(name), delta.removes_for(name));
            let validated = "arity validated above";
            let fresh = rel
                .fresh_from(inserts.unwrap_or_default())
                .expect(validated);
            let stale = rel
                .stale_from(removes.unwrap_or_default())
                .expect(validated);
            if fresh.len() + stale.len() > 0 {
                changed += fresh.len() + stale.len();
                *rel = Arc::new(rel.splice(&fresh, &stale));
            }
        }
        if changed > 0 {
            self.epoch += 1;
        }
        Ok(self.epoch)
    }

    /// Forces the epoch counter to `epoch` — the durability recovery
    /// hook, and deliberately the *only* non-monotone epoch operation.
    /// Replaying a write-ahead log rebuilds relations through the normal
    /// [`Database::add`]/[`Database::apply`] paths, whose bump-by-one
    /// counting cannot in general land on the persisted epoch (a snapshot
    /// reloads `n` relations in `n` bumps regardless of how many deltas
    /// produced them). Recovery therefore pins the counter to the value
    /// each persisted record carries, so a restarted engine reports
    /// *exactly* its pre-crash version vector.
    pub fn restore_epoch(&mut self, epoch: Epoch) {
        self.epoch = epoch;
    }

    /// Looks a relation up by name.
    pub fn get(&self, name: &str) -> Option<&SortedIndex> {
        self.by_name.get(name).map(|&id| self.relation(id))
    }

    /// Looks a relation id up by name.
    pub fn id_of(&self, name: &str) -> Option<RelationId> {
        self.by_name.get(name).copied()
    }

    /// The relation with the given id.
    pub fn relation(&self, id: RelationId) -> &SortedIndex {
        self.relations[id].1.as_ref()
    }

    /// All relations in insertion order.
    pub fn relations(&self) -> impl Iterator<Item = &SortedIndex> + '_ {
        self.relations.iter().map(|(_, r)| r.as_ref())
    }

    /// All relations in insertion order, with their names and shared
    /// handles.
    pub fn named_relations(&self) -> impl Iterator<Item = (&str, &Arc<SortedIndex>)> + '_ {
        self.relations.iter().map(|(name, r)| (name.as_str(), r))
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The paper's input size measure `|D|`: total number of tuples across
    /// all relations.
    pub fn size(&self) -> usize {
        self.relations().map(SortedIndex::len).sum()
    }

    /// Fetches a relation by name or fails with a schema error mentioning the
    /// querying context.
    pub fn require(&self, name: &str) -> Result<&SortedIndex> {
        self.get(name)
            .ok_or_else(|| CqcError::Schema(format!("relation `{name}` not found in database")))
    }
}

impl HeapSize for Database {
    fn heap_bytes(&self) -> usize {
        let rels: usize = self
            .relations
            .iter()
            .map(|(name, r)| {
                name.heap_bytes() + std::mem::size_of::<SortedIndex>() + r.heap_bytes()
            })
            .sum();
        let names: usize = self
            .by_name
            .keys()
            .map(|k| k.heap_bytes() + std::mem::size_of::<(String, RelationId)>())
            .sum();
        rels + names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_size() {
        let mut db = Database::new();
        let r = Relation::from_pairs("R", vec![(1, 2), (2, 3)]);
        let s = Relation::from_pairs("S", vec![(2, 3)]);
        let rid = db.add(r).unwrap();
        let sid = db.add(s).unwrap();
        assert_eq!(db.size(), 3);
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.id_of("R"), Some(rid));
        assert_eq!(db.relation(sid), db.get("S").unwrap());
        assert!(db.get("T").is_none());
        assert!(db.require("T").is_err());
        assert_eq!(db.require("R").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        let err = db.add(Relation::from_pairs("R", vec![(3, 4)]));
        assert!(err.is_err());
    }

    #[test]
    fn epoch_bumps_on_add_and_apply() {
        let mut db = Database::new();
        assert_eq!(db.epoch(), 0);
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        assert_eq!(db.epoch(), 1);

        let mut delta = Delta::new();
        delta.insert("R", vec![2, 3]);
        let e = db.apply(&delta).unwrap();
        assert_eq!(e, 2);
        assert_eq!(db.size(), 2);
        assert!(db.get("R").unwrap().contains(&[2, 3]));

        // A delta of pure duplicates changes nothing and keeps the epoch.
        let e = db.apply(&delta).unwrap();
        assert_eq!(e, 2);
        assert_eq!(db.epoch(), 2);
    }

    #[test]
    fn clone_shares_untouched_relations() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        db.add(Relation::from_pairs("S", vec![(3, 4)])).unwrap();
        let snapshot = db.clone();

        let mut delta = Delta::new();
        delta.insert("R", vec![9, 9]);
        db.apply(&delta).unwrap();

        // The snapshot is unchanged, the touched relation diverged, and
        // the untouched relation is still the same allocation.
        assert!(!snapshot.get("R").unwrap().contains(&[9, 9]));
        assert!(db.get("R").unwrap().contains(&[9, 9]));
        assert!(std::ptr::eq(
            db.get("S").unwrap(),
            snapshot.get("S").unwrap()
        ));
        assert!(!std::ptr::eq(
            db.get("R").unwrap(),
            snapshot.get("R").unwrap()
        ));
    }

    #[test]
    fn apply_removes_and_bumps_epoch() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 4)]))
            .unwrap();
        let e0 = db.epoch();

        let mut delta = Delta::new();
        delta.remove("R", vec![2, 3]);
        delta.insert("R", vec![9, 9]);
        let e = db.apply(&delta).unwrap();
        assert_eq!(e, e0 + 1);
        assert_eq!(db.size(), 3);
        assert!(!db.get("R").unwrap().contains(&[2, 3]));
        assert!(db.get("R").unwrap().contains(&[9, 9]));

        // Removing an absent tuple is an idempotent no-op: no epoch bump.
        let mut delta = Delta::new();
        delta.remove("R", vec![2, 3]);
        assert_eq!(db.apply(&delta).unwrap(), e);
        assert_eq!(db.epoch(), e);
    }

    #[test]
    fn remove_copy_on_write_leaves_snapshots_intact() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(3, 4)])).unwrap();
        let snapshot = db.clone();

        let mut delta = Delta::new();
        delta.remove("R", vec![1, 2]);
        db.apply(&delta).unwrap();
        assert!(snapshot.get("R").unwrap().contains(&[1, 2]));
        assert!(!db.get("R").unwrap().contains(&[1, 2]));
        assert!(std::ptr::eq(
            db.get("S").unwrap(),
            snapshot.get("S").unwrap()
        ));

        // An all-absent remove group must not break sharing.
        let snapshot2 = db.clone();
        let mut noop = Delta::new();
        noop.remove("S", vec![9, 9]);
        db.apply(&noop).unwrap();
        assert!(std::ptr::eq(
            db.get("S").unwrap(),
            snapshot2.get("S").unwrap()
        ));
    }

    #[test]
    fn apply_is_atomic_on_failure() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2)])).unwrap();
        let before = db.epoch();

        // Missing relation: nothing applied.
        let mut delta = Delta::new();
        delta.insert("R", vec![7, 7]);
        delta.insert("Nope", vec![1]);
        assert!(db.apply(&delta).is_err());
        assert_eq!(db.epoch(), before);
        assert!(!db.get("R").unwrap().contains(&[7, 7]));

        // Arity mismatch: nothing applied.
        let mut delta = Delta::new();
        delta.insert("R", vec![7, 7]);
        delta.insert("R", vec![1, 2, 3]);
        assert!(db.apply(&delta).is_err());
        assert_eq!(db.epoch(), before);
        assert!(!db.get("R").unwrap().contains(&[7, 7]));

        // A bad remove group also blocks the whole delta.
        let mut delta = Delta::new();
        delta.insert("R", vec![7, 7]);
        delta.remove("R", vec![1, 2, 3]);
        assert!(db.apply(&delta).is_err());
        assert_eq!(db.epoch(), before);
        assert!(!db.get("R").unwrap().contains(&[7, 7]));
    }
}
