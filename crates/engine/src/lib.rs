//! `cqc-engine` — the serve-many front door for the `cqc` workspace.
//!
//! The paper's regime (Deep & Koutris, PODS 2018) is *build once, answer
//! many*: a compressed representation of a conjunctive query result is
//! amortized over a stream of access requests `Q^η[v]`. The per-layer
//! machinery lives in `cqc_query` → `cqc_decomp` → `cqc_core` →
//! `cqc_storage`; this crate owns the lifecycle:
//!
//! * [`Engine`] — load relations, register adorned views, serve requests
//!   concurrently (`&self`, `Sync`), and absorb writes:
//!   [`Engine::update`] applies a batched [`cqc_storage::Delta`] against a
//!   copy-on-write database snapshot, bumps the epoch, and reconciles the
//!   catalog (epoch restamp, delta maintenance or eager rebuild, decided
//!   by counts and never by a clock);
//! * [`Catalog`] — a concurrent, memory-budgeted representation cache
//!   keyed by normalized query text + adornment + strategy, so repeated
//!   requests (and aliased registrations) never rebuild; under budget
//!   pressure it evicts cost-aware (bytes ÷ counted build work, LRU as
//!   tie-break); entries carry epoch stamps and are invalidated — lazily
//!   on lookup or by an explicit sweep — rather than ever served stale;
//! * [`Policy`] / [`policy::select`] — the planner: resolves `auto` and the
//!   budget forms to a concrete `cqc_core::Strategy`, consulting the width
//!   machinery, the §6 LP optimizers and the `T(·)` cost oracle;
//! * [`BlockService::serve_into`] — the one way answers leave an engine:
//!   one request's answers pushed into the caller's
//!   [`cqc_common::AnswerSink`] (an [`cqc_common::AnswerBlock`] to keep
//!   them, a [`cqc_common::measure::DelayProbe`] to time them);
//!   [`stripe_requests`] spreads a request list over OS threads through
//!   [`fan_out`], the one per-call fan-out (first target on the calling
//!   thread, the rest on scoped threads);
//! * [`Engine::with_view_enumerator`] — the epoch-consistent stream
//!   primitive underneath: one reusable enumerator per view, zero heap
//!   allocations per answer once warm (gated in CI by the counting
//!   allocator);
//! * [`ShardedEngine`] — partition, route, fan out, merge: relations are
//!   hash-partitioned into `S` disjoint sub-databases
//!   ([`cqc_storage::Partitioning`]), each owned by a full [`Engine`]
//!   ([`ShardedEngine::shard`]); `register` plans once and builds the
//!   per-shard representations in parallel; a request whose bound values
//!   fix the partition variable goes to its one owning shard ([`Route`]),
//!   any other one fans out through `serve_blocks_into` and
//!   [`BlockService::serve_into`] `k`-way-merges the per-shard flat
//!   blocks back into lexicographic order ([`cqc_common::BlockMerger`]),
//!   and `update` splits a delta per shard so shard epochs (the vector
//!   version, [`ShardedEngine::version`]) advance independently.
//!   Durability and statistics are per shard: a durable sharded
//!   deployment is one durable [`Engine`] per slice.
//!
//! The `cqe` command-line front door lives one crate up, in `cqc-net`.
//!
//! The serve path is push-style: representations drive their answers
//! into a [`cqc_common::AnswerSink`] as borrowed slices, and an
//! [`cqc_common::AnswerBlock`] holds them flat rather than as a `Vec` per
//! tuple.
//!
//! ```
//! use cqc_common::AnswerBlock;
//! use cqc_engine::{stripe_requests, BlockService, Engine, Policy};
//! use cqc_storage::{Database, Relation};
//!
//! let mut db = Database::new();
//! db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 1), (1, 3)])).unwrap();
//! let engine = Engine::new(db);
//! engine
//!     .register_text("mutual", "V(x,y,z) :- R(x,y), R(y,z), R(z,x)", "bfb", Policy::default())
//!     .unwrap();
//! // Serve many: the representation is built exactly once.
//! let served = stripe_requests(4, 2, |v| {
//!     let mut block = AnswerBlock::new();
//!     engine.serve_into("mutual", &[1, v as u64], &mut block)?;
//!     Ok(block)
//! })
//! .unwrap();
//! assert_eq!(served[3].to_tuples(), vec![vec![2]]); // V(1, y, 3): y = 2
//! assert_eq!(engine.catalog_stats().builds, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod engine;
pub mod policy;
pub mod service;
pub mod sharded;

pub use catalog::{Catalog, CatalogKey, CatalogStats};
pub use engine::{Engine, EngineConfig, RecoveryStats, RegisteredView, UpdateReport, UpdateStats};
pub use policy::{Policy, Selection};
pub use service::{fan_out, stripe_requests, BlockService};
pub use sharded::{spec_for_view, Route, ShardedBlocks, ShardedEngine, ShardedEngineConfig};
