//! Iterator-style leapfrog trie-join with per-variable constraints.
//!
//! The join operates over a global variable order `x_0 < x_1 < … < x_{L-1}`.
//! Every participating atom supplies a [`SortedIndex`] whose column order
//! lists the atom's variables in increasing global order, so that each index
//! is a trie aligned with the join's search tree. The join enumerates
//! satisfying assignments in lexicographic order of the global variable
//! order with worst-case-optimal total time (AGM-bounded, up to log factors).
//!
//! Per-variable constraints make this the evaluation engine for the
//! restricted sub-instances of the paper:
//!
//! * `Fixed(c)` — the variable is bound to `c` (access-request bound
//!   variables, or the unit prefix of a canonical f-box);
//! * `Range(lo, hi)` — inclusive value range (the single ranged variable of
//!   a canonical f-box);
//! * `Free` — unconstrained.
//!
//! [`LeapfrogJoin::skip_to_level`] truncates the search to a prefix and
//! forces the next call to advance there — the "distinct prefix" device used
//! when enumerating heavy bound-valuations (Prop. 13) and when probing a
//! sub-instance for emptiness.

use cqc_common::metrics;
use cqc_common::value::Value;
use cqc_storage::SortedIndex;

/// Constraint on one join level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelConstraint {
    /// The level is fixed to this value.
    Fixed(Value),
    /// The level ranges over an inclusive value interval.
    Range(Value, Value),
    /// The level is unconstrained.
    Free,
}

impl LevelConstraint {
    #[inline]
    fn start(&self) -> Value {
        match self {
            LevelConstraint::Fixed(c) => *c,
            LevelConstraint::Range(lo, _) => *lo,
            LevelConstraint::Free => 0,
        }
    }

    #[inline]
    fn admits(&self, v: Value) -> bool {
        match self {
            LevelConstraint::Fixed(c) => v == *c,
            LevelConstraint::Range(_, hi) => v <= *hi,
            LevelConstraint::Free => true,
        }
    }
}

/// One atom participating in a join.
#[derive(Debug, Clone)]
pub struct AtomInput<'a> {
    /// Trie-ordered index of the atom's relation.
    pub index: &'a SortedIndex,
    /// `levels[d]` = global level of the variable at trie depth `d`;
    /// strictly increasing.
    pub levels: Vec<usize>,
}

impl<'a> AtomInput<'a> {
    /// Builds an atom input, checking depth alignment.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not strictly increasing or its length differs
    /// from the index depth.
    pub fn new(index: &'a SortedIndex, levels: Vec<usize>) -> AtomInput<'a> {
        assert_eq!(levels.len(), index.arity(), "levels must match trie depth");
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly increasing (trie order must follow the global order)"
        );
        AtomInput { index, levels }
    }
}

/// Computes the trie column order for an atom and the global levels of its
/// depths.
///
/// `atom_level_of[c]` gives the global level of the variable at schema
/// column `c`. Returns `(column_order, levels)` where `column_order` sorts
/// the schema columns by global level (the order to build the
/// [`SortedIndex`] with) and `levels` are the corresponding global levels.
pub fn trie_order_for_atom(atom_level_of: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut cols: Vec<usize> = (0..atom_level_of.len()).collect();
    cols.sort_unstable_by_key(|&c| atom_level_of[c]);
    let levels = cols.iter().map(|&c| atom_level_of[c]).collect();
    (cols, levels)
}

/// The leapfrog trie-join iterator.
pub struct LeapfrogJoin<'a> {
    atoms: Vec<AtomInput<'a>>,
    constraints: Vec<LevelConstraint>,
    /// Per level: participating `(atom_index, trie_depth)` pairs.
    participants: Vec<Vec<(usize, usize)>>,
    /// `ranges[level][atom]` = the atom's node range after binding all
    /// levels `< level`, at the trie depth of its next variable.
    /// `ranges[0]` is the root range.
    ranges: Vec<Vec<(usize, usize)>>,
    /// `positions[level][atom]` = cursor memo: where the last seek at this
    /// level landed for this atom. Candidates are monotone while the parent
    /// binding is unchanged, so the next seek resumes galloping from here —
    /// a k-row scan costs amortized O(k) instead of O(k log k). Reset to
    /// the range start whenever a level is entered fresh.
    positions: Vec<Vec<usize>>,
    /// Current assignment, valid for bound levels.
    current: Vec<Value>,
    levels: usize,
    started: bool,
    done: bool,
    /// Level at which the next `next()` call resumes by advancing.
    resume: usize,
}

impl<'a> LeapfrogJoin<'a> {
    /// Creates a join over `levels` global variables.
    ///
    /// # Panics
    ///
    /// Panics if constraint count mismatches, an atom's levels exceed the
    /// level count, or some non-`Fixed` level has no participating atom.
    pub fn new(
        atoms: Vec<AtomInput<'a>>,
        levels: usize,
        constraints: Vec<LevelConstraint>,
    ) -> LeapfrogJoin<'a> {
        assert_eq!(constraints.len(), levels);
        let mut participants: Vec<Vec<(usize, usize)>> = vec![Vec::new(); levels];
        for (ai, atom) in atoms.iter().enumerate() {
            for (d, &l) in atom.levels.iter().enumerate() {
                assert!(l < levels, "atom level out of range");
                participants[l].push((ai, d));
            }
        }
        for (l, p) in participants.iter().enumerate() {
            assert!(
                !p.is_empty() || matches!(constraints[l], LevelConstraint::Fixed(_)),
                "level {l} has no participating atom and is not fixed"
            );
        }
        let roots: Vec<(usize, usize)> = atoms.iter().map(|a| a.index.root()).collect();
        let ranges = vec![roots; levels + 1];
        LeapfrogJoin {
            current: vec![0; levels],
            constraints,
            participants,
            ranges,
            positions: vec![vec![0; atoms.len()]; levels],
            atoms,
            levels,
            started: false,
            done: false,
            resume: levels.saturating_sub(1),
        }
    }

    /// The number of global levels.
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// Rewinds the join to run again with new constraints, **reusing every
    /// internal buffer** (participants, per-level ranges, the current
    /// assignment). This is what makes box-by-box evaluation allocation-free:
    /// one join is constructed per enumeration and re-seeded per canonical
    /// box instead of being rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if the constraint count mismatches the level count, or if a
    /// level with no participating atom is not `Fixed` (same contract as
    /// [`LeapfrogJoin::new`]).
    pub fn reset(&mut self, constraints: &[LevelConstraint]) {
        assert_eq!(constraints.len(), self.levels);
        for (l, p) in self.participants.iter().enumerate() {
            assert!(
                !p.is_empty() || matches!(constraints[l], LevelConstraint::Fixed(_)),
                "level {l} has no participating atom and is not fixed"
            );
        }
        self.constraints.clear();
        self.constraints.extend_from_slice(constraints);
        // `ranges[0]` (the root ranges) never changes; deeper ranges are
        // recomputed by `bind_child_ranges` before they are read.
        self.started = false;
        self.done = false;
        self.resume = self.levels.saturating_sub(1);
    }

    /// The current assignment (valid after a successful [`Self::next`]).
    pub fn current(&self) -> &[Value] {
        &self.current
    }

    /// Forces the next `next()` call to advance at `level`, discarding all
    /// deeper bindings. Used for distinct-prefix enumeration: after a match,
    /// `skip_to_level(p - 1)` continues with the next assignment differing
    /// in the first `p` levels.
    pub fn skip_to_level(&mut self, level: usize) {
        assert!(level < self.levels);
        if !self.done {
            self.resume = level;
        }
    }

    /// Produces the next satisfying assignment in lexicographic order, or
    /// `None` when exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&[Value]> {
        if self.done {
            return None;
        }
        if self.levels == 0 {
            // Zero-variable join: non-empty iff every atom is non-empty;
            // atoms always have >= 1 column, so this happens only with no
            // atoms at all. Emit the empty tuple once.
            self.done = true;
            return if self.atoms.is_empty() || self.atoms.iter().all(|a| !a.index.is_empty()) {
                Some(&self.current)
            } else {
                None
            };
        }

        let mut level: usize;
        let mut advancing: bool;
        if self.started {
            level = self.resume;
            advancing = true;
        } else {
            self.started = true;
            level = 0;
            advancing = false;
        }

        loop {
            let found = if advancing {
                let cur = self.current[level];
                if cur == Value::MAX {
                    None
                } else {
                    self.seek_level(level, cur + 1, false)
                }
            } else {
                self.seek_level(level, self.constraints[level].start(), true)
            };

            match found {
                Some(v) => {
                    self.current[level] = v;
                    if level + 1 == self.levels {
                        self.resume = level;
                        return Some(&self.current);
                    }
                    self.bind_child_ranges(level);
                    level += 1;
                    advancing = false;
                }
                None => {
                    if level == 0 {
                        self.done = true;
                        return None;
                    }
                    level -= 1;
                    advancing = true;
                }
            }
        }
    }

    /// Convenience: `true` iff the join has at least one satisfying
    /// assignment (consumes the iterator's first step).
    pub fn is_non_empty(&mut self) -> bool {
        self.next().is_some()
    }

    /// Leapfrog search at `level` for the smallest common value `>= cand`
    /// admitted by the level constraint. `fresh` marks the first seek after
    /// (re)entering the level — it invalidates the cursor memo, which is
    /// only meaningful while the parent binding stays fixed.
    fn seek_level(&mut self, level: usize, cand: Value, fresh: bool) -> Option<Value> {
        let cons = self.constraints[level];
        let parts = &self.participants[level];
        if fresh {
            for &(ai, _) in parts {
                self.positions[level][ai] = 0;
            }
        }
        let mut cand = cand;
        if !cons.admits(cand)
            && matches!(cons, LevelConstraint::Fixed(_) | LevelConstraint::Range(..))
        {
            // cand already beyond a fixed value / range top.
            if cand > cons.start() {
                return None;
            }
            cand = cons.start();
        }
        if parts.is_empty() {
            // Only reachable for Fixed levels (asserted in `new`).
            return if cons.admits(cand) { Some(cand) } else { None };
        }
        let k = parts.len();
        let mut agree = 0usize;
        let mut i = 0usize;
        loop {
            let (ai, d) = parts[i];
            let (lo, hi) = self.ranges[level][ai];
            let keys = self.atoms[ai].index.keys(d);
            metrics::record_trie_seeks(1);
            // Resume from the memoized cursor: candidates only grow while
            // the parent binding is unchanged, so the hit is at or after it.
            let from = self.positions[level][ai].max(lo);
            let (pos, v) = keys.gallop(from, hi, cand)?;
            self.positions[level][ai] = pos;
            if v == cand {
                agree += 1;
            } else {
                cand = v;
                agree = 1;
            }
            if !cons.admits(cand) {
                return None;
            }
            if agree == k {
                return Some(cand);
            }
            i = (i + 1) % k;
        }
    }

    /// After binding `level`, computes every atom's node range for the
    /// next level: a participant's is the children of the node its last
    /// seek landed on — the one holding the bound value — so no search.
    fn bind_child_ranges(&mut self, level: usize) {
        // Split the ranges vector to appease the borrow checker.
        let (head, tail) = self.ranges.split_at_mut(level + 1);
        let child = &mut tail[0];
        child.copy_from_slice(&head[level]);
        for &(ai, d) in &self.participants[level] {
            child[ai] = self.atoms[ai].index.children(d, self.positions[level][ai]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_storage::Relation;

    /// Collects all outputs of a join.
    fn run(j: &mut LeapfrogJoin<'_>) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        while let Some(t) = j.next() {
            out.push(t.to_vec());
        }
        out
    }

    #[test]
    fn triangle_join() {
        // R(x,y), S(y,z), T(z,x); order x=0, y=1, z=2.
        let r = Relation::from_pairs("R", vec![(1, 2), (2, 3), (1, 3), (3, 1)]);
        let s = Relation::from_pairs("S", vec![(2, 3), (3, 1), (3, 2)]);
        let t = Relation::from_pairs("T", vec![(3, 1), (1, 2), (2, 3)]);
        let ri = SortedIndex::pack(&r);
        let si = SortedIndex::pack(&s);
        // T(z,x): trie order must follow global (x=0 < z=2): columns (1, 0).
        let ti = SortedIndex::build(&SortedIndex::pack(&t), &[1, 0]);
        let atoms = vec![
            AtomInput::new(&ri, vec![0, 1]),
            AtomInput::new(&si, vec![1, 2]),
            AtomInput::new(&ti, vec![0, 2]),
        ];
        let mut j = LeapfrogJoin::new(atoms, 3, vec![LevelConstraint::Free; 3]);
        let out = run(&mut j);
        // Triangles: (1,2,3): R(1,2) S(2,3) T(3,1) ✓; (2,3,1): R(2,3) S(3,1)
        // T(1,2) ✓; (3,1,2): R(3,1) S(1,2)? S has no (1,2) ✗.
        assert_eq!(out, vec![vec![1, 2, 3], vec![2, 3, 1]]);
    }

    #[test]
    fn output_is_lexicographic() {
        let r = Relation::from_pairs("R", vec![(2, 1), (1, 2), (1, 1), (2, 2)]);
        let ri = SortedIndex::pack(&r);
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Free; 2],
        );
        let out = run(&mut j);
        assert_eq!(out, vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]);
    }

    #[test]
    fn fixed_constraints_select_submatch() {
        let r = Relation::from_pairs("R", vec![(1, 2), (1, 3), (2, 4)]);
        let ri = SortedIndex::pack(&r);
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Fixed(1), LevelConstraint::Free],
        );
        assert_eq!(run(&mut j), vec![vec![1, 2], vec![1, 3]]);

        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Fixed(9), LevelConstraint::Free],
        );
        assert!(run(&mut j).is_empty());
    }

    #[test]
    fn range_constraints() {
        let r = Relation::from_pairs("R", vec![(1, 5), (2, 6), (3, 7), (4, 8)]);
        let ri = SortedIndex::pack(&r);
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Range(2, 3), LevelConstraint::Free],
        );
        assert_eq!(run(&mut j), vec![vec![2, 6], vec![3, 7]]);
        // Empty range.
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Range(9, 10), LevelConstraint::Free],
        );
        assert!(run(&mut j).is_empty());
    }

    #[test]
    fn two_path_join_with_shared_variable() {
        // R(x,y), S(y,z).
        let r = Relation::from_pairs("R", vec![(1, 10), (2, 10), (3, 20)]);
        let s = Relation::from_pairs("S", vec![(10, 7), (20, 8), (20, 9)]);
        let ri = SortedIndex::pack(&r);
        let si = SortedIndex::pack(&s);
        let atoms = vec![
            AtomInput::new(&ri, vec![0, 1]),
            AtomInput::new(&si, vec![1, 2]),
        ];
        let mut j = LeapfrogJoin::new(atoms, 3, vec![LevelConstraint::Free; 3]);
        let out = run(&mut j);
        assert_eq!(
            out,
            vec![
                vec![1, 10, 7],
                vec![2, 10, 7],
                vec![3, 20, 8],
                vec![3, 20, 9]
            ]
        );
    }

    #[test]
    fn skip_to_level_enumerates_distinct_prefixes() {
        let r = Relation::from_pairs("R", vec![(1, 1), (1, 2), (1, 3), (2, 5), (3, 6), (3, 7)]);
        let ri = SortedIndex::pack(&r);
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Free; 2],
        );
        let mut prefixes = Vec::new();
        while let Some(t) = j.next() {
            prefixes.push(t[0]);
            j.skip_to_level(0);
        }
        assert_eq!(prefixes, vec![1, 2, 3]);
    }

    #[test]
    fn empty_relation_produces_empty_join() {
        let r = Relation::new("R", 2, vec![]);
        let ri = SortedIndex::pack(&r);
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Free; 2],
        );
        assert!(!j.is_non_empty());
        assert!(j.next().is_none());
    }

    #[test]
    fn next_after_exhaustion_stays_none() {
        let r = Relation::from_pairs("R", vec![(1, 2)]);
        let ri = SortedIndex::pack(&r);
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Free; 2],
        );
        assert!(j.next().is_some());
        assert!(j.next().is_none());
        assert!(j.next().is_none());
    }

    #[test]
    fn trie_order_helper() {
        // Atom T(z, x) with global levels: z=2, x=0.
        let (cols, levels) = trie_order_for_atom(&[2, 0]);
        assert_eq!(cols, vec![1, 0]);
        assert_eq!(levels, vec![0, 2]);
    }

    #[test]
    fn reset_reruns_with_new_constraints() {
        let r = Relation::from_pairs("R", vec![(1, 2), (1, 3), (2, 4), (3, 5)]);
        let ri = SortedIndex::pack(&r);
        let mut j = LeapfrogJoin::new(
            vec![AtomInput::new(&ri, vec![0, 1])],
            2,
            vec![LevelConstraint::Fixed(1), LevelConstraint::Free],
        );
        assert_eq!(run(&mut j), vec![vec![1, 2], vec![1, 3]]);
        // Mid-drain reset must discard the old cursor state entirely.
        j.reset(&[LevelConstraint::Fixed(2), LevelConstraint::Free]);
        assert!(j.next().is_some());
        j.reset(&[LevelConstraint::Range(2, 3), LevelConstraint::Free]);
        assert_eq!(run(&mut j), vec![vec![2, 4], vec![3, 5]]);
        // Resetting after exhaustion revives the join.
        j.reset(&[LevelConstraint::Free, LevelConstraint::Free]);
        assert_eq!(run(&mut j).len(), 4);
    }

    #[test]
    fn self_join_same_index() {
        // Q(x,y,z) = R(x,y), R(y,z) over the same index.
        let r = Relation::from_pairs("R", vec![(1, 2), (2, 3), (2, 4)]);
        let ri = SortedIndex::pack(&r);
        let atoms = vec![
            AtomInput::new(&ri, vec![0, 1]),
            AtomInput::new(&ri, vec![1, 2]),
        ];
        let mut j = LeapfrogJoin::new(atoms, 3, vec![LevelConstraint::Free; 3]);
        assert_eq!(run(&mut j), vec![vec![1, 2, 3], vec![1, 2, 4]]);
    }
}
