//! The two extremal solutions of §2.3.
//!
//! * [`MaterializedView`] — "materialize the view `Q(D)` and index it by the
//!   bound variables": constant delay per access, but up to `|D|^{ρ*}`
//!   space.
//! * [`DirectView`] — "answer each access request directly on the input
//!   database": linear space (just the base trie indexes), but up to
//!   AGM-bound time before the first tuple is emitted.
//!
//! The paper's contribution lives between these two; the benchmark harness
//! anchors every tradeoff curve with them.

use crate::plan::ViewPlan;
use cqc_common::error::Result;
use cqc_common::heap::HeapSize;
use cqc_common::metrics;
use cqc_common::util::prefix_range;
use cqc_common::value::{lex_cmp, Tuple, Value};
use cqc_query::AdornedView;
use cqc_storage::{Database, Delta, IndexPool};

/// Fully materialized view with a lexicographic index on the bound prefix.
#[derive(Debug)]
pub struct MaterializedView {
    view: AdornedView,
    /// Result tuples in `[bound | free]` order, flattened, sorted.
    rows: Vec<Value>,
    width: usize,
    num_bound: usize,
}

impl MaterializedView {
    /// Materializes the view with a worst-case-optimal join.
    ///
    /// # Errors
    ///
    /// Fails on non-natural-join views or schema mismatches.
    pub fn build(view: &AdornedView, db: &Database) -> Result<MaterializedView> {
        MaterializedView::build_pooled(view, db, &IndexPool::new())
    }

    /// [`MaterializedView::build`] drawing the trie indexes the join runs
    /// over from `pool` (they are not kept: only the result is).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MaterializedView::build`].
    pub fn build_pooled(
        view: &AdornedView,
        db: &Database,
        pool: &IndexPool,
    ) -> Result<MaterializedView> {
        let plan = ViewPlan::build_pooled(view, db, pool)?;
        let width = plan.num_levels();
        let mut join = plan.join(vec![crate::leapfrog::LevelConstraint::Free; width]);
        let mut rows = Vec::new();
        while let Some(t) = join.next() {
            rows.extend_from_slice(t);
        }
        // LFTJ emits in lexicographic order of [bound | free] already.
        Ok(MaterializedView {
            view: view.clone(),
            rows,
            width: width.max(1),
            num_bound: plan.num_bound,
        })
    }

    /// Number of materialized result tuples.
    pub fn len(&self) -> usize {
        if self.rows.is_empty() {
            0
        } else {
            self.rows.len() / self.width
        }
    }

    /// `true` when the view result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn row(&self, i: usize) -> &[Value] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// Streams the rows whose bound prefix is the request's valuation —
    /// their free suffixes, as borrowed slices in lexicographic order —
    /// into `sink`: an O(log) prefix search, then O(1) and zero allocations
    /// per answer.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer_into(
        &self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        self.view.check_access(bound_values)?;
        let (lo, hi) = prefix_range(&self.rows, self.width, bound_values);
        for i in lo..hi {
            metrics::record_tuple_output();
            if !sink.push(&self.row(i)[self.num_bound..]) {
                break;
            }
        }
        Ok(())
    }

    /// Incrementally maintains the materialized result under a mixed
    /// insert/delete delta, against the **post-delta** database `db`.
    ///
    /// Because the view is a full natural join (projections are rejected at
    /// build), every base tuple pins its atom's variables to concrete
    /// result positions. Losses need no join at all: an old result row dies
    /// iff some atom's projection of it was removed. Gains are found by
    /// slab-restricted joins — one per inserted tuple, with that atom's
    /// levels fixed — so the work is proportional to the delta and the
    /// affected result rows, never the full `|D|^{ρ*}` re-join.
    ///
    /// Returns `Ok(None)` when the layout cannot be reconciled — fall back
    /// to [`MaterializedView::build_pooled`].
    ///
    /// # Errors
    ///
    /// Propagates schema errors (a view relation missing from `db`).
    pub fn maintained(
        &self,
        db: &Database,
        delta: &Delta,
        pool: &IndexPool,
    ) -> Result<Option<MaterializedView>> {
        let query = self.view.query();
        if query.require_natural_join().is_err() {
            return Ok(None);
        }
        // Base trie indexes over the post-delta database, from `pool` (the
        // engine's store holds them already merged if any other view uses
        // them; the full result re-join is what maintenance avoids).
        let plan = ViewPlan::build_pooled(&self.view, db, pool)?;
        if plan.num_levels() != self.width || plan.num_bound != self.num_bound {
            return Ok(None);
        }
        // Per atom: the global level of each of its schema positions.
        let atom_slots: Vec<Vec<usize>> = query
            .atoms
            .iter()
            .map(|a| a.vars().map(|v| plan.level_of[v.index()]).collect())
            .collect();

        // Losses: drop old rows whose projection onto some atom was removed.
        let mut removed_per_atom: Vec<Vec<&Tuple>> = Vec::with_capacity(atom_slots.len());
        for atom in &query.atoms {
            let mut rs: Vec<&Tuple> = delta
                .removes_for(&atom.relation)
                .map(|ts| ts.iter().collect())
                .unwrap_or_default();
            rs.sort_unstable_by(|a, b| lex_cmp(a, b));
            rs.dedup();
            removed_per_atom.push(rs);
        }
        let mut scratch: Vec<Value> = Vec::new();
        let dies = |row: &[Value], scratch: &mut Vec<Value>| {
            for (slots, removed) in atom_slots.iter().zip(&removed_per_atom) {
                if removed.is_empty() {
                    continue;
                }
                scratch.clear();
                scratch.extend(slots.iter().map(|&l| row[l]));
                if removed.binary_search_by(|t| lex_cmp(t, scratch)).is_ok() {
                    return true;
                }
            }
            false
        };

        // Gains: one restricted join per inserted tuple, all atoms joined,
        // the inserted tuple's levels fixed. Emitted rows are already in
        // global [bound | free] order.
        let mut gains: Vec<Tuple> = Vec::new();
        for (i, atom) in query.atoms.iter().enumerate() {
            let Some(tuples) = delta.tuples_for(&atom.relation) else {
                continue;
            };
            for t in tuples {
                if t.len() != atom_slots[i].len() {
                    return Ok(None);
                }
                let mut cons = vec![crate::leapfrog::LevelConstraint::Free; plan.num_levels()];
                for (&l, &v) in atom_slots[i].iter().zip(t) {
                    match cons[l] {
                        crate::leapfrog::LevelConstraint::Fixed(w) if w != v => {
                            // The tuple repeats a variable inconsistently:
                            // it can never witness an answer.
                            cons.clear();
                            break;
                        }
                        _ => cons[l] = crate::leapfrog::LevelConstraint::Fixed(v),
                    }
                }
                if cons.is_empty() {
                    continue;
                }
                let mut join = plan.join(cons);
                while let Some(r) = join.next() {
                    gains.push(r.to_vec());
                }
            }
        }
        gains.sort_unstable_by(|a, b| lex_cmp(a, b));
        gains.dedup();

        // Sorted merge: surviving old rows ∪ gains, deduplicated.
        let mut rows: Vec<Value> = Vec::with_capacity(self.rows.len());
        let mut g = 0usize;
        let push_gain = |rows: &mut Vec<Value>, gain: &[Value]| {
            if rows.len() < gain.len() || rows[rows.len() - gain.len()..] != *gain {
                rows.extend_from_slice(gain);
            }
        };
        for i in 0..self.len() {
            let row = self.row(i);
            if dies(row, &mut scratch) {
                continue;
            }
            while g < gains.len() && lex_cmp(&gains[g], row) == std::cmp::Ordering::Less {
                push_gain(&mut rows, &gains[g]);
                g += 1;
            }
            if g < gains.len() && lex_cmp(&gains[g], row) == std::cmp::Ordering::Equal {
                g += 1;
            }
            rows.extend_from_slice(row);
        }
        while g < gains.len() {
            push_gain(&mut rows, &gains[g]);
            g += 1;
        }
        Ok(Some(MaterializedView {
            view: self.view.clone(),
            rows,
            width: self.width,
            num_bound: self.num_bound,
        }))
    }
}

impl HeapSize for MaterializedView {
    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }
}

/// Per-request direct evaluation over linear-size base indexes.
#[derive(Debug)]
pub struct DirectView {
    view: AdornedView,
    plan: ViewPlan,
}

impl DirectView {
    /// Builds the base trie indexes (linear space, linear-ish time).
    ///
    /// # Errors
    ///
    /// Fails on non-natural-join views or schema mismatches.
    pub fn build(view: &AdornedView, db: &Database) -> Result<DirectView> {
        DirectView::build_pooled(view, db, &IndexPool::new())
    }

    /// [`DirectView::build`] drawing the trie indexes from `pool`, so a
    /// direct view shares them with every other view over the same
    /// relations and column orders.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DirectView::build`].
    pub fn build_pooled(view: &AdornedView, db: &Database, pool: &IndexPool) -> Result<DirectView> {
        Ok(DirectView {
            view: view.clone(),
            plan: ViewPlan::build_pooled(view, db, pool)?,
        })
    }

    /// `true` iff the access request has at least one answer (first-answer
    /// probe; no answer tuple is materialized).
    pub fn exists(&self, bound_values: &[Value]) -> Result<bool> {
        self.view.check_access(bound_values)?;
        let mut join = self.plan.join(self.plan.bound_constraints(bound_values));
        Ok(join.is_non_empty())
    }

    /// A reusable push-style enumerator over this view: the leapfrog join
    /// and constraint vector are built once and re-seeded per request, so
    /// steady-state serving performs zero heap allocations.
    pub fn enumerator(&self) -> DirectEnum<'_> {
        DirectEnum {
            v: self,
            join: None,
            cons: Vec::new(),
        }
    }

    /// One-shot push-style answering (builds a fresh enumerator).
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer_into(
        &self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        self.enumerator().answer_into(bound_values, sink)
    }

    /// The underlying plan (used by benchmarks for space accounting).
    pub fn plan(&self) -> &ViewPlan {
        &self.plan
    }

    /// Incrementally maintains the base trie indexes under a mixed
    /// insert/delete delta via [`ViewPlan::maintained`]. Returns `Ok(None)`
    /// when the plan cannot be reconciled — fall back to
    /// [`DirectView::build_pooled`].
    ///
    /// # Errors
    ///
    /// Propagates schema errors (a view relation missing from `db`).
    pub fn maintained(
        &self,
        db: &Database,
        delta: &Delta,
        pool: &IndexPool,
    ) -> Result<Option<DirectView>> {
        Ok(self
            .plan
            .maintained(&self.view, db, delta, pool)?
            .map(|plan| DirectView {
                view: self.view.clone(),
                plan,
            }))
    }
}

/// Reusable push-style enumerator for [`DirectView`] (see
/// [`DirectView::enumerator`]).
pub struct DirectEnum<'a> {
    v: &'a DirectView,
    join: Option<crate::leapfrog::LeapfrogJoin<'a>>,
    cons: Vec<crate::leapfrog::LevelConstraint>,
}

impl DirectEnum<'_> {
    /// Answers one request into `sink`, reusing the join across calls.
    ///
    /// # Errors
    ///
    /// Fails when the bound value count mismatches the pattern.
    pub fn answer_into(
        &mut self,
        bound_values: &[Value],
        sink: &mut impl cqc_common::AnswerSink,
    ) -> Result<()> {
        use crate::leapfrog::LevelConstraint;
        self.v.view.check_access(bound_values)?;
        let plan = &self.v.plan;
        let nb = plan.num_bound;
        self.cons.clear();
        self.cons
            .extend(bound_values.iter().map(|&v| LevelConstraint::Fixed(v)));
        self.cons.resize(plan.num_levels(), LevelConstraint::Free);
        let j = match &mut self.join {
            Some(j) => {
                j.reset(&self.cons);
                j
            }
            None => self.join.insert(plan.join(self.cons.clone())),
        };
        while let Some(t) = j.next() {
            metrics::record_tuple_output();
            if !sink.push(&t[nb..]) {
                break;
            }
        }
        Ok(())
    }
}

impl HeapSize for DirectView {
    fn heap_bytes(&self) -> usize {
        self.plan.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::evaluate_view;
    use cqc_common::{AnswerBlock, ExistsSink};
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;

    /// The answers one `answer_into` call pushes, in the order pushed.
    fn pushed(answer_into: impl FnOnce(&mut AnswerBlock) -> Result<()>) -> Vec<Tuple> {
        let mut block = AnswerBlock::new();
        answer_into(&mut block).unwrap();
        block.to_tuples()
    }

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs(
            "R",
            vec![(1, 2), (2, 3), (1, 3), (3, 1), (2, 1)],
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "S",
            vec![(2, 3), (3, 1), (3, 2), (1, 2)],
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "T",
            vec![(3, 1), (1, 2), (2, 3), (2, 1)],
        ))
        .unwrap();
        db
    }

    fn all_requests(db: &Database, k: usize) -> Vec<Vec<Value>> {
        // Cross product of a small candidate domain.
        let dom: Vec<Value> = vec![1, 2, 3, 4];
        let mut reqs = vec![vec![]];
        for _ in 0..k {
            let mut next = Vec::new();
            for r in &reqs {
                for &v in &dom {
                    let mut r2 = r.clone();
                    r2.push(v);
                    next.push(r2);
                }
            }
            reqs = next;
        }
        let _ = db;
        reqs
    }

    #[test]
    fn baselines_match_oracle_on_every_request() {
        for pattern in ["bfb", "bbf", "fff", "bbb", "fbf"] {
            let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            let db = triangle_db();
            let mat = MaterializedView::build(&v, &db).unwrap();
            let dir = DirectView::build(&v, &db).unwrap();
            let nb = pattern.chars().filter(|c| *c == 'b').count();
            for req in all_requests(&db, nb) {
                let expect = evaluate_view(&v, &db, &req).unwrap();
                let got_m = pushed(|b| mat.answer_into(&req, b));
                let got_d = pushed(|b| dir.answer_into(&req, b));
                assert_eq!(
                    got_m, expect,
                    "materialized, pattern {pattern}, req {req:?}"
                );
                assert_eq!(got_d, expect, "direct, pattern {pattern}, req {req:?}");
            }
        }
    }

    #[test]
    fn materialized_len_is_result_size() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "fff").unwrap();
        let db = triangle_db();
        let mat = MaterializedView::build(&v, &db).unwrap();
        let expect = evaluate_view(&v, &db, &[]).unwrap();
        assert_eq!(mat.len(), expect.len());
        assert!(!mat.is_empty() || expect.is_empty());
    }

    #[test]
    fn exists_probes() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bbb").unwrap();
        let db = triangle_db();
        let mat = MaterializedView::build(&v, &db).unwrap();
        let dir = DirectView::build(&v, &db).unwrap();
        let mat_exists = |req: &[Value]| {
            let mut probe = ExistsSink::default();
            mat.answer_into(req, &mut probe).unwrap();
            probe.found
        };
        assert!(mat_exists(&[1, 2, 3]));
        assert!(dir.exists(&[1, 2, 3]).unwrap());
        assert!(!mat_exists(&[1, 1, 1]));
        assert!(!dir.exists(&[1, 1, 1]).unwrap());
    }

    #[test]
    fn maintained_baselines_match_rebuild_on_mixed_deltas() {
        // Property: maintaining either baseline under a random mixed
        // insert/delete delta equals rebuilding it on the post-delta
        // database, for every access request.
        let mut state = 0xabcdu64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..8u64 {
            let mut db = triangle_db();
            let mat0;
            let dir0;
            {
                let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
                mat0 = MaterializedView::build(&v, &db).unwrap();
                dir0 = DirectView::build(&v, &db).unwrap();
            }
            let mut delta = Delta::new();
            for name in ["R", "S", "T"] {
                let rel = db.get(name).unwrap();
                // Remove one random present row, insert two random rows.
                let victim = rel.row(next(rel.len() as u64) as usize).to_vec();
                delta.remove(name, victim);
                for _ in 0..2 {
                    delta.insert(name, vec![1 + next(4), 1 + next(4)]);
                }
            }
            db.apply(&delta).unwrap();
            let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bff").unwrap();
            let mat = mat0
                .maintained(&db, &delta, &IndexPool::new())
                .unwrap()
                .unwrap();
            let dir = dir0
                .maintained(&db, &delta, &IndexPool::new())
                .unwrap()
                .unwrap();
            let mat_rebuilt = MaterializedView::build(&v, &db).unwrap();
            for x in 0..6u64 {
                let expect = evaluate_view(&v, &db, &[x]).unwrap();
                let got_m = pushed(|b| mat.answer_into(&[x], b));
                let got_d = pushed(|b| dir.answer_into(&[x], b));
                let got_r = pushed(|b| mat_rebuilt.answer_into(&[x], b));
                assert_eq!(got_m, expect, "materialized, trial {trial}, x={x}");
                assert_eq!(got_d, expect, "direct, trial {trial}, x={x}");
                assert_eq!(got_r, expect, "rebuilt oracle, trial {trial}, x={x}");
            }
            assert_eq!(mat.len(), mat_rebuilt.len(), "trial {trial}");
        }
    }

    #[test]
    fn maintained_materialized_handles_self_join_levels() {
        // A repeated variable through the join: y appears in both atoms, so
        // a slab fixing R's levels also constrains S's first level.
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (3, 4)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 5), (4, 6)]))
            .unwrap();
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "fff").unwrap();
        let mat0 = MaterializedView::build(&v, &db).unwrap();
        let mut delta = Delta::new();
        delta.insert("R", vec![7, 2]);
        delta.remove("S", vec![4, 6]);
        db.apply(&delta).unwrap();
        let mat = mat0
            .maintained(&db, &delta, &IndexPool::new())
            .unwrap()
            .unwrap();
        let expect = evaluate_view(&v, &db, &[]).unwrap();
        let got = pushed(|b| mat.answer_into(&[], b));
        assert_eq!(got, expect);
    }

    #[test]
    fn direct_space_is_smaller_than_materialized_on_dense_instances() {
        // A hub instance where the join result (30×30 pairs through the
        // shared middle value) is much larger than the input (60 tuples).
        let mut db = Database::new();
        let r: Vec<(Value, Value)> = (0..30u64).map(|i| (i, 1000)).collect();
        let s: Vec<(Value, Value)> = (0..30u64).map(|j| (1000, j)).collect();
        db.add(Relation::from_pairs("R", r)).unwrap();
        db.add(Relation::from_pairs("S", s)).unwrap();
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "fff").unwrap();
        let mat = MaterializedView::build(&v, &db).unwrap();
        let dir = DirectView::build(&v, &db).unwrap();
        assert!(mat.len() > db.size());
        assert!(dir.heap_bytes() < mat.heap_bytes());
    }
}
