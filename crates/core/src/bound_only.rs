//! Proposition 1: all-bound adorned views.
//!
//! When every head variable is bound, an access request is a membership
//! test: `Q^{b…b}[v]` is non-empty iff the projection of `v` onto each
//! atom's variables is present in the corresponding relation. Linear
//! compression time and space, O(1)-per-atom (logarithmic) answer time.

use cqc_common::error::{CqcError, Result};
use cqc_common::heap::HeapSize;
use cqc_common::metrics;
use cqc_common::value::Value;
use cqc_query::{AdornedView, Var};
use cqc_storage::{Database, Relation};
use std::sync::Arc;

/// The Proposition 1 structure: per-atom relations plus head-position
/// extraction tables.
#[derive(Debug)]
pub struct BoundOnlyView {
    view: AdornedView,
    /// Per atom: the relation — the database's own allocation, never a
    /// copy — and, per schema column, the bound-head position supplying
    /// its value.
    checks: Vec<(Arc<Relation>, Vec<usize>)>,
}

impl BoundOnlyView {
    /// Builds the structure: a handle on each referenced relation and a
    /// position table per atom.
    ///
    /// # Errors
    ///
    /// Fails unless the view is a full natural join with an all-bound
    /// pattern.
    pub fn build(view: &AdornedView, db: &Database) -> Result<BoundOnlyView> {
        let query = view.query();
        query.require_natural_join()?;
        query.check_schema(db)?;
        if view.mu() != 0 {
            return Err(CqcError::Config(
                "BoundOnlyView requires an all-bound access pattern".into(),
            ));
        }
        let bound_head = view.bound_head();
        let pos_of = |v: Var| -> usize {
            bound_head
                .iter()
                .position(|w| *w == v)
                .expect("full view: every variable is in the head")
        };
        let checks = query
            .atoms
            .iter()
            .map(|atom| {
                let rel = db.get_arc(&atom.relation).expect("schema checked above");
                (rel, atom.vars().map(pos_of).collect())
            })
            .collect();
        Ok(BoundOnlyView {
            view: view.clone(),
            checks,
        })
    }

    /// Maintains the structure across a delta already applied to `db`: the
    /// handles are re-taken from the post-delta database, where an
    /// untouched relation is still the same allocation.
    ///
    /// Returns `Ok(None)` when the stored view cannot absorb deltas
    /// (non-natural atoms from the Example 3 rewrite).
    ///
    /// # Errors
    ///
    /// Fails when a view relation is missing from `db`.
    pub fn maintained(&self, db: &Database) -> Result<Option<BoundOnlyView>> {
        if self.view.query().atoms.iter().any(|a| !a.is_natural()) {
            return Ok(None);
        }
        BoundOnlyView::build(&self.view, db).map(Some)
    }

    /// `true` iff the fully bound request is in the view. `key` is scratch
    /// for the per-atom probe keys: a caller that keeps it across requests
    /// probes without allocating.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn exists(&self, bound_values: &[Value], key: &mut Vec<Value>) -> Result<bool> {
        self.view.check_access(bound_values)?;
        for (rel, positions) in &self.checks {
            key.clear();
            key.extend(positions.iter().map(|&p| bound_values[p]));
            if !rel.contains(key) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Pushes the request's answer into `sink`: the empty tuple when the
    /// request is in the view, nothing otherwise — the enumeration
    /// contract of the other structures at μ = 0. `key` as in
    /// [`BoundOnlyView::exists`].
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer_into(
        &self,
        bound_values: &[Value],
        key: &mut Vec<Value>,
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        if self.exists(bound_values, key)? {
            metrics::record_tuple_output();
            sink.push(&[]);
        }
        Ok(())
    }

    /// The view definition.
    pub fn view(&self) -> &AdornedView {
        &self.view
    }
}

/// What a membership check reports for its relation: the content (name and
/// rows) per holder — what the exact-capacity copy it replaces reported —
/// although the allocation is the database's.
pub(crate) fn check_relation_bytes(rel: &Relation) -> usize {
    rel.name().len() + rel.len() * rel.arity() * std::mem::size_of::<Value>()
}

impl HeapSize for BoundOnlyView {
    fn heap_bytes(&self) -> usize {
        self.checks
            .iter()
            .map(|(r, p)| check_relation_bytes(r) + p.heap_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_query::parser::parse_adorned;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 3), (3, 4)]))
            .unwrap();
        db
    }

    #[test]
    fn membership_semantics() {
        let v = parse_adorned("Q(x, y, z) :- R(x, y), S(y, z)", "bbb").unwrap();
        let b = BoundOnlyView::build(&v, &db()).unwrap();
        let key = &mut Vec::new();
        assert!(b.exists(&[1, 2, 3], key).unwrap());
        assert!(b.exists(&[2, 3, 4], key).unwrap());
        assert!(!b.exists(&[1, 2, 4], key).unwrap());
        assert!(!b.exists(&[9, 9, 9], key).unwrap());
        let mut block = cqc_common::AnswerBlock::new();
        b.answer_into(&[1, 2, 3], key, &mut block).unwrap();
        b.answer_into(&[1, 2, 4], key, &mut block).unwrap();
        assert_eq!(block.to_tuples(), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn self_join_positions() {
        // ∆^bbb over a single relation used three times.
        let v = parse_adorned("Q(x, y, z) :- R(x, y), R(y, z), R(z, x)", "bbb").unwrap();
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 1)]))
            .unwrap();
        let b = BoundOnlyView::build(&v, &db).unwrap();
        assert!(b.exists(&[1, 2, 3], &mut Vec::new()).unwrap());
        assert!(!b.exists(&[2, 1, 3], &mut Vec::new()).unwrap());
    }

    #[test]
    fn rejects_free_patterns_and_bad_access() {
        let v = parse_adorned("Q(x, y) :- R(x, y)", "bf").unwrap();
        assert!(BoundOnlyView::build(&v, &db()).is_err());
        let v = parse_adorned("Q(x, y) :- R(x, y)", "bb").unwrap();
        let b = BoundOnlyView::build(&v, &db()).unwrap();
        assert!(b.exists(&[1], &mut Vec::new()).is_err());
    }
}
