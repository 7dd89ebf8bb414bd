//! Measurement helpers shared by the `paper_eval` table generator and the
//! verdict harnesses (`chaos`, `mix`, `recovery`).
//!
//! The paper's claims are about *shapes* — how space, delay and answer time
//! scale with `|D|` and τ — so `paper_eval` measures:
//!
//! * per-tuple **delay percentiles** (max/p99/p50 inter-arrival gaps and
//!   time-to-first, [`cqc_common::measure`]), not just totals;
//! * deterministic **space** via `HeapSize`;
//! * machine-independent **work counters** from `cqc_common::metrics`;
//! * log-log **slope fits** for scaling exponents.
//!
//! The three harness binaries are tests, not measurements: each stands up
//! a loopback fleet (or a child `cqe serve` process) over one fixed
//! [`Fixture`], drives a scripted schedule against it, compares every
//! answer stream with an in-process oracle, and exits nonzero unless every
//! gated boolean in its `--json=<path>` summary is `true`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cqc_common::measure::{DelayProbe, DelayStats};
use cqc_common::value::Value;
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::Database;

/// The delay of one access request as the served path delivers it:
/// `answer_into` drives a representation's answers into the probe — the
/// sink — which records the gap before each one and before the final
/// "done". The clock starts at the request, so the first gap includes the
/// cursor's own set-up.
pub fn measure_delays(
    answer_into: impl FnOnce(&mut DelayProbe) -> cqc_common::Result<()>,
) -> DelayStats {
    let mut probe = DelayProbe::start();
    answer_into(&mut probe).expect("a generated request matches its view's pattern");
    probe.finish()
}

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
    /// The bound valuations `cqe bench <view> <requests> 1 7 witness`
    /// would serve.
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

/// Least-squares slope of `log y` against `log x` — the measured scaling
/// exponent (e.g. a triangle-space series growing as `N^{1.5}` fits ≈ 1.5).
pub fn fit_loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points for a slope");
    let lx: Vec<f64> = xs.iter().map(|&x| x.max(1e-12).ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.max(1e-12).ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// The benchmark scale, read from `CQC_SCALE` (`small` default, `full` for
/// `paper_eval`'s paper-scale tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick smoke-test sizes.
    Small,
    /// Paper-scale sizes.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("CQC_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Picks between the two size lists.
    pub fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_tuples_and_gaps() {
        use cqc_common::AnswerSink;
        let d = measure_delays(|probe| {
            (0..10).for_each(|i| assert!(probe.push(&[i])));
            Ok(())
        });
        assert_eq!(d.tuples, 10);
        assert!(d.max_ns >= d.p99_ns && d.p99_ns >= d.p50_ns);
        assert!(d.total_ns > 0);
    }

    #[test]
    fn measure_empty_iterator() {
        let d = measure_delays(|_| Ok(()));
        assert_eq!(d.tuples, 0);
        assert!(d.first_ns > 0 || d.max_ns >= d.first_ns);
    }

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

    #[test]
    fn slope_recovers_exponent() {
        let xs = [100.0f64, 200.0, 400.0, 800.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.5)).collect();
        let s = fit_loglog_slope(&xs, &ys);
        assert!((s - 1.5).abs() < 1e-9);
    }

    #[test]
    fn table_renders() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Small.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
