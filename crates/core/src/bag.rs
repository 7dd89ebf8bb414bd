//! Materialized, semijoin-reducible bag relations.

use cqc_common::error::Result;
use cqc_common::heap::HeapSize;
use cqc_common::util::prefix_range;
use cqc_common::value::Value;
use cqc_join::leapfrog::LevelConstraint;
use cqc_join::plan::ViewPlan;
use cqc_query::adorned::AdornedView;
use cqc_query::atom::Atom;
use cqc_query::cq::ConjunctiveQuery;
use cqc_query::{Var, VarSet};
use cqc_storage::Database;

/// A materialized bag: the join of the bag-projected relations, stored as
/// sorted rows `[bound vars | free vars]` and indexed by binary search on
/// the bound prefix.
///
/// Variable orders inside a bag are canonical: bound variables sorted by
/// variable index, then free variables sorted by variable index. Key
/// extraction at enumeration time uses the same canonical order; the
/// variables themselves belong to the owning structure's bag.
#[derive(Debug, Clone)]
pub(crate) struct MaterializedBag {
    rows: Vec<Value>,
    /// Columns of the bound prefix — the lookup key.
    bound_width: usize,
    width: usize,
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

        let width = bound.len() + free.len();
        let mut join = plan.join(vec![LevelConstraint::Free; width]);
        let mut rows = Vec::new();
        while let Some(t) = join.next() {
            rows.extend_from_slice(t);
        }
        // LFTJ emits in lexicographic order of [bound | free] already.
        Ok(MaterializedBag {
            rows,
            bound_width: bound.len(),
            width,
        })
    }

    /// Number of materialized rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len().checked_div(self.width).unwrap_or(0)
    }

    /// Row `i` (bound prefix then free suffix, canonical orders).
    pub(crate) fn row(&self, i: usize) -> &[Value] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// The free suffix of row `i`.
    pub(crate) fn free_part(&self, i: usize) -> &[Value] {
        &self.row(i)[self.bound_width..]
    }

    /// The contiguous row range whose bound prefix equals `key`
    /// (binary search: O(log n)).
    pub(crate) fn range_for(&self, key: &[Value]) -> (usize, usize) {
        debug_assert_eq!(key.len(), self.bound_width);
        prefix_range(&self.rows, self.width, key)
    }

    /// `true` iff some row has the given bound prefix.
    pub(crate) fn contains_key(&self, key: &[Value]) -> bool {
        let (lo, hi) = self.range_for(key);
        lo < hi
    }

    /// Retains only the rows for which `keep` returns `true` (the semijoin
    /// reduction step).
    pub(crate) fn retain<F: FnMut(&[Value]) -> bool>(&mut self, mut keep: F) {
        let width = self.width;
        let n = self.len();
        let mut out: Vec<Value> = Vec::with_capacity(self.rows.len());
        for i in 0..n {
            let row = &self.rows[i * width..(i + 1) * width];
            if keep(row) {
                out.extend_from_slice(row);
            }
        }
        self.rows = out;
    }

    /// Creates a bag directly from rows.
    #[cfg(test)]
    fn from_rows(bound_width: usize, width: usize, mut tuples: Vec<Vec<Value>>) -> MaterializedBag {
        tuples.sort_unstable();
        tuples.dedup();
        let mut rows = Vec::with_capacity(tuples.len() * width);
        for t in &tuples {
            assert_eq!(t.len(), width);
            rows.extend_from_slice(t);
        }
        MaterializedBag {
            rows,
            bound_width,
            width,
        }
    }
}

impl HeapSize for MaterializedBag {
    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_storage::Relation;

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
        assert_eq!(bag.row(0), &[1, 10]);
        let (lo, hi) = bag.range_for(&[2]);
        assert_eq!(hi - lo, 1);
        assert_eq!(bag.free_part(lo), &[10]);
        assert!(bag.contains_key(&[3]));
        assert!(!bag.contains_key(&[4]));
    }

    #[test]
    fn retain_filters_rows() {
        let mut bag = MaterializedBag::from_rows(1, 2, vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        bag.retain(|row| row[1] >= 20);
        assert_eq!(bag.len(), 2);
        assert!(!bag.contains_key(&[1]));
        assert!(bag.contains_key(&[2]));
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
        let frees: Vec<&[Value]> = (lo..hi).map(|i| bag.free_part(i)).collect();
        assert_eq!(frees, vec![&[10][..], &[11], &[12]]);
    }

    #[test]
    fn empty_key_spans_everything() {
        // A root-child bag with no bound vars: the key is empty.
        let bag = MaterializedBag::from_rows(0, 2, vec![vec![1, 2], vec![3, 4]]);
        let (lo, hi) = bag.range_for(&[]);
        assert_eq!((lo, hi), (0, 2));
    }
}
