//! Helpers shared by the `ledger` binary and the verdict harnesses
//! (`chaos`, `mix`, `recovery`).
//!
//! `ledger` writes `LEDGER.json`: the paper's examples at small scale, one
//! line of exact counts per (instance, view, recipe, τ/δ) — bytes by part,
//! tree and dictionary sizes, build and enumeration work, and a checked
//! answer-stream hash. It reads no clock, so the committed file is
//! regenerated byte for byte and a change that moves a count shows as a
//! diff.
//!
//! The three harness binaries are tests, not measurements: each stands up
//! a loopback fleet (or a child `cqe serve` process) over one fixed
//! [`Fixture`], drives a scripted schedule against it, compares every
//! answer stream with an in-process oracle, and exits nonzero unless every
//! gated boolean in its `--json=<path>` summary is `true`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cqc_common::value::Value;
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::Database;

/// The `q`-th of `scale` quantile of a latency sample (ns), e.g.
/// `(99, 100)` for p99 or `(999, 1000)` for p99.9: the element of rank
/// `⌊(n − 1)·q / scale⌋` after sorting `lat` in place; 0 when empty.
pub fn quantile_ns(lat: &mut [u64], q: u64, scale: u64) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    lat[((lat.len() as u64 - 1) * q / scale) as usize]
}

/// The seed CI has always given both `gen` and `bench` for the harnesses.
const FIXTURE_SEED: u64 = 7;

/// What one verdict harness runs against: a triangle dataset, one adorned
/// view over it, and a fixed list of witness access requests.
#[derive(Debug)]
pub struct Fixture {
    /// The arguments of the `cqe gen` command that builds [`Fixture::db`]:
    /// a child `cqe` given it holds the same relations at the same epoch.
    pub gen: String,
    /// The dataset.
    pub db: Database,
    /// The view every request asks.
    pub view: AdornedView,
    /// Witness bound valuations: `cqc_workload::witness_requests` over the
    /// dataset, drawn with the fixture's seed.
    pub bounds: Vec<Vec<Value>>,
}

impl Fixture {
    /// Builds the fixture.
    ///
    /// # Errors
    ///
    /// A query that does not parse under `pattern`.
    pub fn triangle(
        rows: usize,
        query: &str,
        pattern: &str,
        requests: usize,
    ) -> Result<Fixture, String> {
        let mut db = Database::new();
        for relation in cqc_workload::triangle_relations(FIXTURE_SEED, rows).0 {
            db.add(relation).map_err(|e| e.to_string())?;
        }
        let view = parse_adorned(query, pattern).map_err(|e| e.to_string())?;
        let mut rng = cqc_workload::rng(FIXTURE_SEED);
        let bounds = cqc_workload::witness_requests(&mut rng, &view, &db, requests);
        let gen = format!("triangle {rows} {FIXTURE_SEED}");
        Ok(Fixture {
            gen,
            db,
            view,
            bounds,
        })
    }
}

/// `main` of a verdict-harness binary: the only argument accepted is
/// `--json=<path>`; exits 2 on anything else and 1, after printing
/// `error: …`, when `run` reports a failed gate.
pub fn harness_main(run: impl FnOnce(Option<&str>) -> Result<(), String>) {
    let mut json_path = None;
    for arg in std::env::args().skip(1) {
        match arg.strip_prefix("--json=") {
            Some(path) if !path.is_empty() => json_path = Some(path.to_string()),
            _ => {
                eprintln!("unexpected argument `{arg}` (usage: [--json=<path>])");
                std::process::exit(2);
            }
        }
    }
    if let Err(msg) = run(json_path.as_deref()) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_empty_single_and_hundred_element_samples() {
        assert_eq!(quantile_ns(&mut [], 99, 100), 0);
        assert_eq!(quantile_ns(&mut [], 999, 1000), 0);
        for (q, scale) in [(0, 100), (50, 100), (99, 100), (999, 1000), (100, 100)] {
            assert_eq!(quantile_ns(&mut [42], q, scale), 42);
        }
        // 100 down to 1, so the sort is exercised: rank r holds r + 1.
        let mut lat: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile_ns(&mut lat, 0, 100), 1);
        assert_eq!(quantile_ns(&mut lat, 50, 100), 50); // ⌊99·50/100⌋ = 49
        assert_eq!(quantile_ns(&mut lat, 99, 100), 99); // ⌊99·99/100⌋ = 98
        assert_eq!(quantile_ns(&mut lat, 999, 1000), 99); // ⌊99·999/1000⌋ = 98
        assert_eq!(quantile_ns(&mut lat, 100, 100), 100);
    }
}
