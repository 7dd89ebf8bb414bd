//! Relational storage for the `cqc` workspace.
//!
//! The paper assumes the input database is stored with "the necessary indexes
//! on the base relations (that need only linear space)" (§4.3). This crate
//! provides exactly that substrate:
//!
//! * [`relation::Relation`] — a deduplicated, lexicographically sorted set of
//!   tuples in one flat buffer: the build form loaders, generators and
//!   projections produce;
//! * [`database::Database`] — the catalog mapping relation names to
//!   relations, each stored once as its identity-order
//!   [`sorted_index::SortedIndex`] (a packed trie, O(log n) membership),
//!   with the `|D|` size measure used throughout the paper and a monotone
//!   [`database::Epoch`] version counter bumped by every mutation;
//! * [`delta::Delta`] — batched tuple insertions applied atomically via
//!   [`Database::apply`], the write path of the serve-under-change regime;
//! * [`sorted_index::SortedIndex`] — a relation sorted under an arbitrary
//!   attribute order and stored as a trie (each leading value once per
//!   parent, child offsets beside it), supporting the prefix-plus-range
//!   *count* probes that implement the paper's Õ(1) count oracle (a binary
//!   search per constrained depth), and the cursor ranges that back the
//!   leapfrog trie-join in `cqc-join`; each column is a packed
//!   `cqc_common::packed::Packed` at the whole word size its data needs,
//!   searched in place;
//! * [`partition::Partitioning`] — hash partitioning of a database into
//!   disjoint shard sub-databases (and the matching per-shard routing of
//!   [`delta::Delta`]s), the substrate of the sharded engine;
//! * [`domain::Domain`] — per-variable sorted active domains with
//!   rank/value conversions over one packed column; `cqc-core` works in
//!   rank space so that the open/closed interval algebra of §4.1 reduces
//!   to integer arithmetic;
//! * [`interner::Interner`] — string interning so that real datasets (e.g.
//!   the DBLP-style examples) can be loaded into the `u64` value domain;
//! * [`wire`] — the canonical [`delta::Delta`] byte layout, shared by the
//!   network update message and the durable write-ahead log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod database;
pub mod delta;
pub mod domain;
pub mod index_pool;
pub mod interner;
pub mod partition;
mod radix;
pub mod relation;
pub mod sorted_index;
pub mod wire;

pub use csv::{relation_from_csv, CsvOptions};
pub use database::{Database, Epoch, RelationId};
pub use delta::Delta;
pub use domain::Domain;
pub use index_pool::{IndexPool, IndexPoolStats};
pub use interner::Interner;
pub use partition::{shard_of_value, PartitionSpec, Partitioning, ShardAssignment};
pub use relation::Relation;
pub use sorted_index::SortedIndex;
