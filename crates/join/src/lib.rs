//! Join processing: worst-case-optimal joins and the naive oracles.
//!
//! * [`leapfrog`] — an iterator-style leapfrog trie-join (Veldhuizen's LFTJ,
//!   a member of the NPRR/Generic-Join family the paper cites as [24, 25]).
//!   It enumerates the join of sorted-index tries in the lexicographic order
//!   of a global variable order, supports per-variable constraints
//!   (fixed value / inclusive range / free) — exactly what evaluating a
//!   restriction `(⋈_F R_F(v_b)) ⋉ B` to a canonical f-box requires — and
//!   supports prefix-skipping for the distinct-prefix enumeration used by
//!   the dictionary construction (Prop. 13);
//! * [`plan`] — the variable order and per-atom tries every structure in
//!   `cqc-core` instantiates its joins from;
//! * [`naive`] — an obviously-correct nested-loop evaluator used as the
//!   test oracle for every enumeration structure in the workspace;
//! * [`hashjoin`] — an independent binary hash-join evaluator that
//!   cross-validates the oracle itself.
//!
//! The two extremes of §2.3 are not structures of their own: in `cqc-core`
//! "materialize and index" is Theorem 2 at δ ≡ 0 over `{V_b} → {V}` and
//! "answer directly" is Theorem 1 at τ = ∞.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hashjoin;
pub mod leapfrog;
pub mod naive;
pub mod plan;

pub use hashjoin::evaluate_view_hash;
pub use leapfrog::{trie_order_for_atom, AtomInput, LeapfrogJoin, LevelConstraint};
pub use naive::{evaluate_full, evaluate_view};
pub use plan::ViewPlan;
