//! Batched database updates.
//!
//! A [`Delta`] is a set of tuple insertions and removals, grouped per
//! relation, that is applied atomically by [`crate::Database::apply`].
//! Batching matches the serve-many regime: representations are maintained
//! (or invalidated) once per delta, not once per tuple, so the amortization
//! argument of the paper's build-once/answer-many model extends to a
//! database that keeps receiving writes.
//!
//! Inserts and removes are kept canonical: queueing a tuple for insertion
//! withdraws any pending removal of the same tuple in the same relation and
//! vice versa (last write wins). The per-relation insert and remove sets
//! are therefore always disjoint, which makes the application order
//! irrelevant — [`crate::Database::apply`], the index merge paths, and the
//! wire round-trip all rely on this invariant.

use cqc_common::heap::{vec_deep_bytes, HeapSize};
use cqc_common::value::Tuple;
use std::collections::{HashMap, HashSet};

/// A batch of tuple insertions and removals, grouped by relation name.
///
/// First-touch order of relations is preserved (it only affects
/// reporting); tuples for the same relation accumulate into one group
/// regardless of the order in which they were added.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    groups: Vec<(String, Vec<Tuple>)>,
    removes: Vec<(String, Vec<Tuple>)>,
}

fn push_group(groups: &mut Vec<(String, Vec<Tuple>)>, relation: &str, tuple: Tuple) {
    match groups.iter_mut().find(|(n, _)| n == relation) {
        Some((_, ts)) => ts.push(tuple),
        None => groups.push((relation.to_string(), vec![tuple])),
    }
}

/// `groups` with each relation's merged into its first, in first-touch
/// order; a group with no tuple touches nothing and is dropped.
fn merge_groups(groups: Vec<(String, Vec<Tuple>)>) -> Vec<(String, Vec<Tuple>)> {
    let mut merged: Vec<(String, Vec<Tuple>)> = Vec::new();
    let mut at: HashMap<String, usize> = HashMap::new();
    for (relation, tuples) in groups.into_iter().filter(|(_, ts)| !ts.is_empty()) {
        match at.get(&relation) {
            Some(&i) => merged[i].1.extend(tuples),
            None => {
                at.insert(relation.clone(), merged.len());
                merged.push((relation, tuples));
            }
        }
    }
    merged
}

fn withdraw(groups: &mut [(String, Vec<Tuple>)], relation: &str, tuple: &Tuple) {
    if let Some((_, ts)) = groups.iter_mut().find(|(n, _)| n == relation) {
        ts.retain(|t| t != tuple);
    }
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Queues one tuple for insertion into `relation`, withdrawing any
    /// pending removal of the same tuple (last write wins).
    pub fn insert(&mut self, relation: &str, tuple: Tuple) {
        withdraw(&mut self.removes, relation, &tuple);
        push_group(&mut self.groups, relation, tuple);
    }

    /// Queues many tuples for insertion into `relation`.
    pub fn insert_all(&mut self, relation: &str, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            self.insert(relation, t);
        }
    }

    /// Queues one tuple for removal from `relation`, withdrawing any
    /// pending insertion of the same tuple (last write wins). Removing a
    /// tuple the database does not hold is an idempotent no-op at apply
    /// time.
    pub fn remove(&mut self, relation: &str, tuple: Tuple) {
        withdraw(&mut self.groups, relation, &tuple);
        push_group(&mut self.removes, relation, tuple);
    }

    /// Queues many tuples for removal from `relation`.
    pub fn remove_all(&mut self, relation: &str, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            self.remove(relation, t);
        }
    }

    /// The delta whose insert and remove sections are `inserts` and
    /// `removes`, each `(relation, tuples)` groups in order: what queueing
    /// every insert, then every remove, builds — groups of one relation
    /// merged in first-touch order, and a tuple in both sections left in
    /// the removes only — with one hash lookup per group and per tuple
    /// instead of a pass over the relation's inserts per removed tuple.
    pub(crate) fn from_sections(
        inserts: Vec<(String, Vec<Tuple>)>,
        removes: Vec<(String, Vec<Tuple>)>,
    ) -> Delta {
        let mut groups = merge_groups(inserts);
        let removes = merge_groups(removes);
        for (relation, removed) in &removes {
            if let Some((_, ts)) = groups.iter_mut().find(|(n, _)| n == relation) {
                let removed: HashSet<&Tuple> = removed.iter().collect();
                ts.retain(|t| !removed.contains(t));
            }
        }
        Delta { groups, removes }
    }

    /// Builds an insert-only delta from `(relation, tuples)` groups.
    pub fn from_groups(groups: impl IntoIterator<Item = (String, Vec<Tuple>)>) -> Delta {
        let mut d = Delta::new();
        for (name, tuples) in groups {
            d.insert_all(&name, tuples);
        }
        d
    }

    /// The per-relation insertion groups, in first-touch order.
    pub fn groups(&self) -> impl Iterator<Item = (&str, &[Tuple])> + '_ {
        self.groups
            .iter()
            .map(|(n, ts)| (n.as_str(), ts.as_slice()))
    }

    /// The per-relation removal groups, in first-touch order.
    pub fn remove_groups(&self) -> impl Iterator<Item = (&str, &[Tuple])> + '_ {
        self.removes
            .iter()
            .map(|(n, ts)| (n.as_str(), ts.as_slice()))
    }

    /// The queued insertions for `relation`, if any.
    pub fn tuples_for(&self, relation: &str) -> Option<&[Tuple]> {
        self.groups
            .iter()
            .find(|(n, _)| n == relation)
            .map(|(_, ts)| ts.as_slice())
    }

    /// The queued removals for `relation`, if any.
    pub fn removes_for(&self, relation: &str) -> Option<&[Tuple]> {
        self.removes
            .iter()
            .find(|(n, _)| n == relation)
            .map(|(_, ts)| ts.as_slice())
    }

    /// `true` when the delta touches `relation` with inserts or removes.
    pub fn touches(&self, relation: &str) -> bool {
        self.tuples_for(relation).is_some_and(|ts| !ts.is_empty())
            || self.removes_for(relation).is_some_and(|ts| !ts.is_empty())
    }

    /// Names of the relations the delta touches (inserts first, then
    /// relations only touched by removes), each name once.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        let inserts = self
            .groups
            .iter()
            .filter(|(_, ts)| !ts.is_empty())
            .map(|(n, _)| n.as_str());
        let remove_only = self
            .removes
            .iter()
            .filter(|(_, ts)| !ts.is_empty())
            .map(|(n, _)| n.as_str())
            .filter(move |n| !self.tuples_for(n).is_some_and(|ts| !ts.is_empty()));
        inserts.chain(remove_only)
    }

    /// Total number of queued tuples (insertions plus removals).
    pub fn total_tuples(&self) -> usize {
        self.groups.iter().map(|(_, ts)| ts.len()).sum::<usize>()
            + self.removes.iter().map(|(_, ts)| ts.len()).sum::<usize>()
    }

    /// `true` when no tuples are queued.
    pub fn is_empty(&self) -> bool {
        self.total_tuples() == 0
    }
}

impl HeapSize for Delta {
    fn heap_bytes(&self) -> usize {
        self.groups
            .iter()
            .chain(self.removes.iter())
            .map(|(n, ts)| n.heap_bytes() + vec_deep_bytes(ts) + std::mem::size_of::<String>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_accumulate_per_relation() {
        let mut d = Delta::new();
        d.insert("R", vec![1, 2]);
        d.insert("S", vec![3, 4]);
        d.insert("R", vec![5, 6]);
        assert_eq!(d.total_tuples(), 3);
        assert_eq!(d.tuples_for("R").unwrap().len(), 2);
        assert_eq!(d.tuples_for("S").unwrap().len(), 1);
        assert!(d.tuples_for("T").is_none());
        assert!(d.touches("R"));
        assert!(!d.touches("T"));
        let names: Vec<&str> = d.relation_names().collect();
        assert_eq!(names, vec!["R", "S"]);
    }

    #[test]
    fn empty_delta() {
        let d = Delta::new();
        assert!(d.is_empty());
        assert_eq!(d.total_tuples(), 0);
        assert_eq!(d.relation_names().count(), 0);
    }

    #[test]
    fn from_groups_merges_duplicates() {
        let d = Delta::from_groups(vec![
            ("R".to_string(), vec![vec![1, 2]]),
            ("R".to_string(), vec![vec![3, 4]]),
        ]);
        assert_eq!(d.groups().count(), 1);
        assert_eq!(d.total_tuples(), 2);
    }

    #[test]
    fn removes_accumulate_and_count() {
        let mut d = Delta::new();
        d.remove("R", vec![1, 2]);
        d.remove_all("S", vec![vec![3, 4], vec![5, 6]]);
        assert_eq!(d.total_tuples(), 3);
        assert_eq!(d.removes_for("R").unwrap(), &[vec![1, 2]]);
        assert_eq!(d.removes_for("S").unwrap().len(), 2);
        assert!(d.tuples_for("R").is_none());
        assert!(d.touches("R"));
        assert!(d.touches("S"));
        assert!(!d.is_empty());
        let names: Vec<&str> = d.relation_names().collect();
        assert_eq!(names, vec!["R", "S"]);
    }

    #[test]
    fn last_write_wins_keeps_sets_disjoint() {
        let mut d = Delta::new();
        d.insert("R", vec![1, 2]);
        d.remove("R", vec![1, 2]);
        assert!(d.tuples_for("R").unwrap().is_empty());
        assert_eq!(d.removes_for("R").unwrap(), &[vec![1, 2]]);
        // And back: the remove is withdrawn by a later insert.
        d.insert("R", vec![1, 2]);
        assert_eq!(d.tuples_for("R").unwrap(), &[vec![1, 2]]);
        assert!(d.removes_for("R").unwrap().is_empty());
        assert_eq!(d.total_tuples(), 1);
        // Other tuples in the same relation are untouched.
        d.insert("R", vec![7, 8]);
        d.remove("R", vec![9, 9]);
        assert_eq!(d.tuples_for("R").unwrap().len(), 2);
        assert_eq!(d.removes_for("R").unwrap(), &[vec![9, 9]]);
    }

    #[test]
    fn relation_names_dedup_across_kinds() {
        let mut d = Delta::new();
        d.insert("R", vec![1, 2]);
        d.remove("R", vec![3, 4]);
        d.remove("T", vec![5, 6]);
        let names: Vec<&str> = d.relation_names().collect();
        assert_eq!(names, vec!["R", "T"]);
    }
}
