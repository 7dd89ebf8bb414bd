//! Delay measurement shared by the serving stack and the measurement
//! crates above it.
//!
//! The paper's delay guarantee is about *gaps* — the time between
//! consecutive answers, including the first and the final "done" step
//! (§2.3) — so one request's delay is a [`DelayStats`] (gap percentiles
//! plus the work counters of [`crate::metrics`]) rather than one total.
//! [`DelayProbe`] collects the gaps at the sink of a push-style serve,
//! [`BatchStats`] folds many requests into one line, and
//! [`fmt_ns`]/[`fmt_bytes`]/[`write_json_summary`] are how every binary
//! reports them.

use crate::metrics::{self, MetricsSnapshot};
use std::time::Instant;

/// Delay statistics of one enumeration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayStats {
    /// Nanoseconds to the first tuple (or to exhaustion when empty).
    pub first_ns: u64,
    /// Maximum inter-tuple gap (includes the first tuple and the final
    /// exhaustion step, per the paper's delay definition).
    pub max_ns: u64,
    /// Median gap.
    pub p50_ns: u64,
    /// 99th-percentile gap.
    pub p99_ns: u64,
    /// Total answer time.
    pub total_ns: u64,
    /// Number of tuples produced.
    pub tuples: usize,
    /// Work counters consumed during the enumeration.
    pub work: MetricsSnapshot,
}

/// Incremental delay measurement for push-style enumeration: call
/// [`DelayProbe::tick`] once per answer (a probe is itself an
/// [`crate::AnswerSink`] that does exactly that) and
/// [`DelayProbe::finish`] after the enumeration exhausts. The final
/// "done" step counts as a gap, per the §2.3 delay definition.
#[derive(Debug)]
pub struct DelayProbe {
    before: MetricsSnapshot,
    start: Instant,
    last: Instant,
    gaps: Vec<u64>,
    first_ns: u64,
    tuples: usize,
}

impl Default for DelayProbe {
    fn default() -> DelayProbe {
        DelayProbe::start()
    }
}

impl DelayProbe {
    /// Starts the clock.
    pub fn start() -> DelayProbe {
        let now = Instant::now();
        DelayProbe {
            before: metrics::snapshot(),
            start: now,
            last: now,
            gaps: Vec::new(),
            first_ns: 0,
            tuples: 0,
        }
    }

    /// Records the arrival of one answer.
    #[inline]
    pub fn tick(&mut self) {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_nanos() as u64;
        if self.tuples == 0 {
            self.first_ns = gap;
        }
        self.gaps.push(gap);
        self.last = now;
        self.tuples += 1;
    }

    /// Ends the enumeration and folds the gaps into [`DelayStats`].
    pub fn finish(mut self) -> DelayStats {
        let end = Instant::now();
        // The "done" notification also counts as a delay step (§2.3).
        self.gaps
            .push(end.duration_since(self.last).as_nanos() as u64);
        if self.tuples == 0 {
            self.first_ns = self.gaps[0];
        }
        self.gaps.sort_unstable();
        let q = |p: f64| -> u64 {
            let idx = ((self.gaps.len() as f64 - 1.0) * p).round() as usize;
            self.gaps[idx]
        };
        DelayStats {
            first_ns: self.first_ns,
            max_ns: *self.gaps.last().expect("at least the done gap"),
            p50_ns: q(0.5),
            p99_ns: q(0.99),
            total_ns: end.duration_since(self.start).as_nanos() as u64,
            tuples: self.tuples,
            work: metrics::snapshot().delta_since(&self.before),
        }
    }
}

/// Measurement-only sink: each pushed answer is one tick, nothing is
/// retained — so the gaps are the delay the serving layer itself delivers
/// at its sink, the same instrument at every layer.
impl crate::AnswerSink for DelayProbe {
    #[inline]
    fn push(&mut self, _tuple: &[crate::Value]) -> bool {
        self.tick();
        true
    }
}

/// Aggregates delay stats across a batch of enumerations.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Worst observed inter-tuple gap across the batch.
    pub max_delay_ns: u64,
    /// Mean p99 gap.
    pub mean_p99_ns: u64,
    /// Total time across the batch.
    pub total_ns: u64,
    /// Total tuples across the batch.
    pub tuples: usize,
    /// Requests measured.
    pub requests: usize,
    /// Total trie seeks (machine-independent work).
    pub trie_seeks: u64,
}

impl BatchStats {
    /// Folds one enumeration into the batch.
    pub fn add(&mut self, d: &DelayStats) {
        self.max_delay_ns = self.max_delay_ns.max(d.max_ns);
        self.mean_p99_ns += d.p99_ns;
        self.total_ns += d.total_ns;
        self.tuples += d.tuples;
        self.requests += 1;
        self.trie_seeks += d.work.trie_seeks;
    }

    /// Finishes aggregation (divides the mean fields).
    pub fn finish(mut self) -> BatchStats {
        if self.requests > 0 {
            self.mean_p99_ns /= self.requests as u64;
        }
        self
    }
}

/// Human-readable byte counts.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Escapes a string per RFC 8259 (Rust's `{:?}` is close but emits the
/// non-JSON `\u{…}` brace syntax for non-ASCII characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Assembles `fields` (each a rendered `"key": value` pair; the
/// environment has no serde) into the flat JSON object every `--json`
/// flow writes, and reports the path on standard output.
///
/// # Errors
///
/// The I/O failure, with the path, when the file cannot be written.
pub fn write_json_summary(path: &str, fields: &[String]) -> Result<(), String> {
    let json = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
    std::fs::write(path, json).map_err(|e| format!("write `{path}`: {e}"))?;
    println!("  wrote JSON summary to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_ticks_and_orders_percentiles() {
        let mut p = DelayProbe::start();
        for _ in 0..5 {
            p.tick();
        }
        let d = p.finish();
        assert_eq!(d.tuples, 5);
        assert!(d.max_ns >= d.p99_ns && d.p99_ns >= d.p50_ns);
        let empty = DelayProbe::start().finish();
        assert_eq!(empty.tuples, 0);
        assert_eq!(empty.first_ns, empty.max_ns);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(50_000).contains("KiB"));
        assert!(fmt_ns(50_000).contains("µs"));
        assert_eq!(json_string("a\"b\n\u{1}é"), "\"a\\\"b\\n\\u0001é\"");
    }

    #[test]
    fn batch_aggregation() {
        let mut p = DelayProbe::start();
        for _ in 0..5 {
            p.tick();
        }
        let d = p.finish();
        let mut b = BatchStats::default();
        b.add(&d);
        b.add(&d);
        let b = b.finish();
        assert_eq!(b.requests, 2);
        assert_eq!(b.tuples, 10);
    }
}
