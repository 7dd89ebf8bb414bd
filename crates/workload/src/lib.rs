//! Seeded synthetic workloads for the paper's query classes.
//!
//! Everything is deterministic given a seed, so the data behind the
//! benchmark's workloads and the rows of `LEDGER.json` is the same on
//! every run and host:
//!
//! * [`gen`] — base samplers: uniform k-ary relations and a Zipf sampler
//!   (skewed degree distributions are what make the space/delay tradeoff
//!   interesting — heavy hitters create the expensive sub-instances the
//!   dictionary memoizes);
//! * [`graphs`] — graph-shaped data for the §1 applications: symmetric
//!   friendship graphs with power-law degrees, Erdős–Rényi digraphs, and
//!   author–paper bipartite data for the co-author view;
//! * [`queries`] — the paper's query zoo: triangles (Ex. 1/2), the star
//!   join `S_n` (Ex. 7), the path query `P_n` (Ex. 10, Fig. 2), the
//!   Loomis–Whitney join `LW_n` (Ex. 6), the set-intersection view (§3.1,
//!   \[13\]) and the running example `Q^{fffbbb}` (Ex. 4);
//! * [`access`] — access-request samplers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod gen;
pub mod graphs;
pub mod queries;

pub use access::{random_requests, witness_requests};
pub use gen::{
    mixed_delta, recombination_delta, rng, triangle_relations, uniform_relation, view_relations,
    Zipf,
};
