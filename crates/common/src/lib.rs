//! Shared foundations for the `cqc` workspace.
//!
//! This crate hosts the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! * [`value`] — the domain value and tuple types together with the
//!   lexicographic comparisons that the paper's enumeration order is built on;
//! * [`hash`] — a fast FxHash-style hasher plus [`FastMap`]/[`FastSet`]
//!   aliases (the default SipHash tables are needlessly slow for the integer
//!   keys used throughout the join machinery);
//! * [`util`] — binary search over monotone predicates (the Lemma 3
//!   split-point searches) and the tolerant float comparisons of the cost
//!   estimates;
//! * [`error`] — the workspace-wide error type;
//! * [`metrics`] — cheap thread-local operation counters used by the
//!   benchmark harness to report machine-independent work measures;
//! * [`measure`] — the human-readable and JSON reporting helpers every
//!   binary shares (no clock: wall time is the reporting caller's);
//! * [`block`] — the flat [`AnswerBlock`] answer representation and the
//!   push-style [`AnswerSink`] trait every enumerator drives, the
//!   foundation of the allocation-free serve path;
//! * [`packed`] — the immutable fixed-width bit-packed integer column
//!   every compressed representation and sorted index stores its integers
//!   in, with the galloping and binary searches the trie cursors run over
//!   it in place;
//! * [`alloc`] — a vendored counting allocator that lets binaries and
//!   tests *prove* the zero-allocations-per-answer discipline;
//! * [`coverage`] — the per-shard coverage bitmap a degraded (partial)
//!   response carries so a missing replica group is explicit, never
//!   silent;
//! * [`frame`] — the `cqc-net` wire frame codec: length-prefixed
//!   versioned frames whose answer chunks are arity-strided value runs
//!   that decode straight into an [`AnswerBlock`].
//!
//! `unsafe` is denied crate-wide with a single scoped exception in
//! [`alloc`] (implementing `GlobalAlloc` requires it).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod block;
pub mod coverage;
pub mod error;
pub mod frame;
pub mod hash;
pub mod heap;
pub mod measure;
pub mod metrics;
pub mod packed;
pub mod util;
pub mod value;

pub use block::{AnswerBlock, AnswerSink, BlockMerger, CountingSink, ExistsSink, FnSink};
pub use coverage::Coverage;
pub use error::{CqcError, Result};
pub use hash::{FastHasher, FastMap, FastSet};
pub use heap::HeapSize;
pub use value::{lex_cmp, Tuple, Value};
