//! Compressed representations of conjunctive query results.
//!
//! A from-scratch implementation of *Compressed Representations of
//! Conjunctive Query Results* (Deep & Koutris, PODS 2018): a tunable data
//! structure that compresses the result of a full conjunctive query for a
//! given access pattern (adorned view), trading space against enumeration
//! delay across the full continuum between the two classical extremes —
//! materialize-everything and evaluate-per-request. The extremes are the
//! continuum's own endpoints here, not separate structures: the first is
//! Theorem 2 at δ ≡ 0 over `{V_b} → {V}`, the second Theorem 1 at τ = ∞
//! (`Strategy::Materialize`, `Strategy::Direct`).
//!
//! The crate exposes:
//!
//! * [`theorem1::Theorem1Structure`] — the compression primitive
//!   (Theorem 1): delay-balanced tree + heavy-pair dictionary; space
//!   `Õ(|D| + Π|R_F|^{u_F}/τ^α)`, delay `Õ(τ)`;
//! * [`theorem2::Theorem2Structure`] — Theorem 1 combined with
//!   `V_b`-connex tree decompositions (Theorem 2): space `Õ(|D| + |D|^f)`,
//!   delay `Õ(|D|^h)` for δ-width `f` and δ-height `h`; at μ = 0 its
//!   one-bag decomposition `{V_b}` is Proposition 1, every relation a
//!   membership probe at the root;
//! * [`compressed::CompressedView`] — a unified front door that builds a
//!   concrete recipe and exposes `answer_into`/`exists`/space
//!   accounting: answers leave a representation one way, driven into a
//!   [`cqc_common::AnswerSink`] as borrowed slices. Its
//!   [`compressed::ViewEnumerator`] is the reusable form of the same
//!   call (all enumeration scratch is kept across requests);
//! * the geometric/costing substrate of §4: [`fbox`] (f-intervals, box
//!   decompositions), [`cost`] (the `T(·)` oracle), [`split`]
//!   (Lemma 3/Algorithm 1) and [`dbtree`] (the delay-balanced tree);
//! * [`maintain`] — delta maintenance: a Theorem 1 structure absorbs a
//!   batched insert by refreshing its linear base indexes and re-probing
//!   only the dictionary bits on affected root-to-leaf paths, instead of
//!   rebuilding the whole representation.
//!
//! ```
//! use cqc_core::compressed::{CompressedView, Strategy};
//! use cqc_query::parser::parse_adorned;
//! use cqc_storage::{Database, Relation};
//!
//! let mut db = Database::new();
//! db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 1), (1, 3)])).unwrap();
//! // Mutual friends: V^bfb(x, y, z) = R(x,y), R(y,z), R(z,x).
//! let view = parse_adorned("V(x, y, z) :- R(x, y), R(y, z), R(z, x)", "bfb").unwrap();
//! let cv = CompressedView::build(&view, &db, Strategy::Tradeoff { tau: 2.0, weights: None }).unwrap();
//! let mut ys = cqc_common::AnswerBlock::new();
//! cv.answer_into(&[1, 3], &mut ys).unwrap();
//! assert_eq!(ys.to_tuples(), vec![vec![2]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bag;
pub mod compressed;
pub mod cost;
pub mod dbtree;
pub mod dictionary;
pub mod fbox;
pub mod maintain;
pub mod split;
pub mod theorem1;
pub mod theorem2;

pub use compressed::{CompressedView, Strategy, ViewEnumerator};
pub use maintain::{MaintainOutcome, MaintainReport};
pub use theorem1::{Theorem1Stats, Theorem1Structure};
pub use theorem2::Theorem2Structure;
