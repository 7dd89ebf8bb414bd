//! `cqc-net` — the remote serving tier for the `cqc` workspace.
//!
//! The paper's regime (Deep & Koutris, PODS 2018) is build once, answer
//! many; this crate takes "many" off-box. It is std-only TCP — no
//! external dependencies — in three layers:
//!
//! * [`protocol`] — message encoding over the versioned, length-prefixed
//!   frame codec in [`cqc_common::frame`]. Answer streams travel as
//!   arity-strided [`cqc_common::AnswerBlock`] chunks that decode with one
//!   flat copy, and every failure maps onto the
//!   [`cqc_common::CqcError`] taxonomy via a stable numeric code table.
//! * [`server`] — [`server::NetServer`]: a thread-per-connection loop
//!   wrapping any [`cqc_engine::BlockService`] (an engine, a sharded
//!   engine, or a router). Per-request deadlines and client disconnects
//!   stop enumeration mid-block through the push-sink early-stop hook;
//!   an [`admission`] controller bounds concurrency with a small
//!   priority-aware wait queue, sheds adaptively (LIFO, Batch first)
//!   under sustained overload, and rejects requests whose wire-carried
//!   deadline budget is already spent before any enumeration work.
//! * [`admission`] / [`budget`] — the overload-robustness primitives:
//!   the server-side admission controller and the client-side
//!   per-destination retry budget that caps retries + hedges to a
//!   fraction of successful traffic.
//! * [`client`] / [`router`] — [`client::ShardClient`] (one connection,
//!   retry with capped backoff, client-side deadlines) and
//!   [`router::Router`]: the front door holding health-checked
//!   connections to N shard servers, fanning each request out
//!   shard-major, checking every reply's epoch vector against the last
//!   known version, and k-way merging the per-shard streams back into
//!   exact lexicographic order with [`cqc_common::BlockMerger`].
//!
//! Answers leave every layer through one call,
//! [`cqc_engine::BlockService::serve_into`]: [`client::RemoteShard`] and
//! [`router::Router`] implement it beside the local engines, so a socket
//! or a fleet is interchangeable with an in-process engine. Each layer
//! keeps exactly one richer spelling for what the trait cannot carry —
//! [`client::ShardClient::serve_with_sink_opts`] (priority, deadline, the
//! observed epoch vector), [`replica::ReplicaGroup::serve`] (failover
//! against an expected version) and [`router::Router::serve`]
//! ([`router::ServeOpts`] in, a coverage report out).
//!
//! The `cqe` binary (`src/bin/cqe.rs`) adds `serve` (shard server) and
//! `route` (front-door router) to the engine's command-line front door.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backoff;
pub mod breaker;
pub mod budget;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod replica;
pub mod router;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats};
pub use backoff::{lane_seed, Backoff, FAILOVER_LANE};
pub use breaker::{BreakerConfig, BreakerState, BreakerTransitions, CircuitBreaker};
pub use budget::{RetryBudget, RetryBudgetConfig};
pub use chaos::{ChaosService, Fault};
pub use client::{ClientConfig, RemoteShard, ShardClient};
pub use replica::{Deadline, GroupStats, ReplicaGroup, RetryPolicy};
pub use router::{FleetStats, Router, ServeMode, ServeOpts, ServeReport};
pub use server::{NetServer, NetServerConfig, ServerHandle};
