//! The load generator: one closed-loop client thread that replays a fixed
//! request list as *passes*, and the loop that runs a planned number of
//! them.

use crate::host::{self, CpuSample};
use crate::metrics::TIMINGS;
use crate::scenario::{DeltaPair, Request, CHURN_READS_PER_UPDATE, VIEWS};
use crate::stats::{self, Fnv};
use cqc_common::{AnswerSink, Value};
use cqc_engine::{BlockService, Engine};
use std::time::Instant;

/// What the timed client keeps of a stream: when it started and how long
/// it was. Hashing every answer would put the benchmark's own work on
/// the clock, so content is checked in the untimed verification pass and
/// a timed request only has to return the same number of answers.
#[derive(Debug, Default)]
pub struct TimingSink {
    pub first: Option<Instant>,
    pub answers: usize,
}

impl AnswerSink for TimingSink {
    #[inline]
    fn push(&mut self, _tuple: &[Value]) -> bool {
        if self.first.is_none() {
            self.first = Some(Instant::now());
        }
        self.answers += 1;
        true
    }
}

/// Fingerprints a stream, order included.
#[derive(Debug, Default)]
pub struct HashSink {
    pub hash: Fnv,
    pub answers: usize,
}

impl AnswerSink for HashSink {
    #[inline]
    fn push(&mut self, tuple: &[Value]) -> bool {
        for &v in tuple {
            self.hash.word(v);
        }
        self.answers += 1;
        true
    }
}

/// What the verification pass learned: per-request answer counts (what a
/// timed request is checked against) and the whole stream's fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub answers: Vec<usize>,
    pub stream_hash: u64,
}

impl Expected {
    pub fn total_answers(&self) -> u64 {
        self.answers.iter().map(|&a| a as u64).sum()
    }
}

/// One pass over the list.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub wall_s: f64,
    /// Operations issued: requests, plus updates on the churn workload.
    pub ops: usize,
    pub failed: usize,
    pub answers: u64,
    /// Per read request; updates are not in these two.
    pub ttfa_ns: Vec<u64>,
    pub request_ns: Vec<u64>,
    /// Churn only.
    pub update_ns: Vec<u64>,
    /// Churn only: the first read after each update.
    pub read_after_update_ns: Vec<u64>,
    /// Churn only: the checkpoint that ends the pass.
    pub checkpoint_ns: Vec<u64>,
    pub foreign_cpu_share: f64,
}

impl Pass {
    /// The metrics of [`TIMINGS`] for this pass alone. The rates are over the
    /// pass's wall time, updates and the checkpoint included; the
    /// percentiles are over its read requests.
    pub fn timings(&self) -> [f64; 6] {
        [
            self.answers as f64 / self.wall_s,
            self.ops as f64 / self.wall_s,
            percentile_us(&self.ttfa_ns, 0.5),
            percentile_us(&self.ttfa_ns, 0.99),
            percentile_us(&self.request_ns, 0.5),
            percentile_us(&self.request_ns, 0.99),
        ]
    }

    pub fn is_clean(&self) -> bool {
        self.foreign_cpu_share <= CLEAN_FOREIGN_SHARE
    }
}

/// Issues one request, books it into `pass` (latencies, answer count,
/// failure when it errs or returns the wrong number of answers) and
/// returns when it started and ended.
pub fn timed_request(
    service: &dyn BlockService,
    request: &Request,
    expected_answers: usize,
    pass: &mut Pass,
) -> (Instant, Instant) {
    let mut sink = TimingSink::default();
    let t0 = Instant::now();
    let outcome = service.serve_into(VIEWS[request.view].name, &request.bound, &mut sink);
    let t1 = Instant::now();
    let total = t1.duration_since(t0).as_nanos() as u64;
    // An empty stream's first answer is its completion.
    let ttfa = sink
        .first
        .map_or(total, |f| f.duration_since(t0).as_nanos() as u64);
    pass.ops += 1;
    pass.answers += sink.answers as u64;
    if outcome.is_err() || sink.answers != expected_answers {
        pass.failed += 1;
    }
    pass.ttfa_ns.push(ttfa);
    pass.request_ns.push(total);
    (t0, t1)
}

/// Applies one delta and books it into `pass`.
pub fn timed_update(
    engine: &Engine,
    delta: &cqc_storage::Delta,
    pass: &mut Pass,
) -> (Instant, Instant) {
    let t0 = Instant::now();
    let outcome = engine.update(delta);
    let t1 = Instant::now();
    let took = t1.duration_since(t0).as_nanos() as u64;
    pass.ops += 1;
    if outcome.is_err() {
        pass.failed += 1;
    }
    pass.update_ns.push(took);
    (t0, t1)
}

/// Replays `requests` once, timing every request in this thread.
pub fn read_pass(service: &dyn BlockService, requests: &[Request], expected: &Expected) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    for (request, &want) in requests.iter().zip(&expected.answers) {
        timed_request(service, request, want, &mut pass);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// Replays `requests` once, untimed, fingerprinting every stream.
pub fn verification_pass(
    service: &dyn BlockService,
    requests: &[Request],
) -> cqc_common::Result<Expected> {
    let mut sink = HashSink::default();
    let mut answers = Vec::with_capacity(requests.len());
    for r in requests {
        let before = sink.answers;
        service.serve_into(VIEWS[r.view].name, &r.bound, &mut sink)?;
        answers.push(sink.answers - before);
    }
    Ok(Expected {
        answers,
        stream_hash: sink.hash.0,
    })
}

/// One operation of a churn pass.
pub enum ChurnOp<'a> {
    Update {
        /// Position among the pass's updates.
        step: usize,
        delta: &'a cqc_storage::Delta,
    },
    Read {
        /// Position in the read list.
        index: usize,
        request: &'a Request,
        /// The first read after an update.
        follows_update: bool,
    },
}

/// The order of a churn pass: every delta and then the delta that undoes
/// it, each followed by its reads, so the pass ends on the database it
/// started from.
pub fn churn_ops<'a>(
    deltas: &'a [DeltaPair],
    reads: &'a [Request],
) -> impl Iterator<Item = ChurnOp<'a>> {
    deltas
        .iter()
        .flat_map(|p| [&p.forward, &p.inverse])
        .enumerate()
        .flat_map(move |(step, delta)| {
            let from = step * CHURN_READS_PER_UPDATE;
            let reads = reads[from..from + CHURN_READS_PER_UPDATE]
                .iter()
                .enumerate()
                .map(move |(i, request)| ChurnOp::Read {
                    index: from + i,
                    request,
                    follows_update: i == 0,
                });
            std::iter::once(ChurnOp::Update { step, delta }).chain(reads)
        })
}

/// One churn pass: [`churn_ops`], then a checkpoint.
pub fn churn_pass(
    engine: &Engine,
    deltas: &[DeltaPair],
    reads: &[Request],
    expected: &Expected,
) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    for op in churn_ops(deltas, reads) {
        match op {
            ChurnOp::Update { delta, .. } => {
                timed_update(engine, delta, &mut pass);
            }
            ChurnOp::Read {
                index,
                request,
                follows_update,
            } => {
                let took = timed_request(engine, request, expected.answers[index], &mut pass);
                if follows_update {
                    pass.read_after_update_ns.push(nanos(took));
                }
            }
        }
    }
    timed_checkpoint(engine, &mut pass);
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// The checkpoint that ends a churn pass: on the pass's clock, but not an
/// operation of its own.
pub fn timed_checkpoint(engine: &Engine, pass: &mut Pass) {
    let t = Instant::now();
    if engine.checkpoint().is_err() {
        pass.failed += 1;
    }
    pass.checkpoint_ns.push(t.elapsed().as_nanos() as u64);
}

pub fn nanos((start, end): (Instant, Instant)) -> u64 {
    end.duration_since(start).as_nanos() as u64
}

/// The untimed twin of [`churn_pass`]: same updates, same reads, hashed.
pub fn churn_verification_pass(
    engine: &Engine,
    deltas: &[DeltaPair],
    reads: &[Request],
) -> cqc_common::Result<Expected> {
    let mut sink = HashSink::default();
    let mut answers = Vec::with_capacity(reads.len());
    for op in churn_ops(deltas, reads) {
        match op {
            ChurnOp::Update { delta, .. } => {
                engine.update(delta)?;
            }
            ChurnOp::Read { request, .. } => {
                let before = sink.answers;
                engine.serve_into(VIEWS[request.view].name, &request.bound, &mut sink)?;
                answers.push(sink.answers - before);
            }
        }
    }
    Ok(Expected {
        answers,
        stream_hash: sink.hash.0,
    })
}

/// A pass whose foreign CPU share is above this is not clean and is run
/// again. A jiffy of a half-second pass on two cores is 1 %, and a quiet
/// moment of the reference host reads 0–2 %.
pub const CLEAN_FOREIGN_SHARE: f64 = 0.03;

/// How many passes to run on one deployment. The counts are fixed before
/// the first pass and never read a clock, so a run's sample count does not
/// depend on how fast the program is.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    pub warm_up: usize,
    /// Clean passes wanted.
    pub measured: usize,
    /// Passes that may be run on top of `measured` to replace noisy ones.
    pub extra: usize,
}

impl PassPlan {
    /// Whether to run another pass after `done` passes, `clean` of them
    /// clean.
    fn wants_another(&self, clean: usize, done: usize) -> bool {
        clean < self.measured && done < self.measured + self.extra
    }
}

/// The measured passes of a run, over all its deployments.
#[derive(Debug, Default)]
pub struct Measured {
    pub passes: Vec<Pass>,
    /// Clean passes the plans asked for, summed.
    pub planned: usize,
    pub failed: usize,
    pub ops: usize,
}

impl Measured {
    pub fn clean_passes(&self) -> usize {
        self.passes.iter().filter(|p| p.is_clean()).count()
    }

    /// Fewer than two thirds of the planned passes were clean (10 of 15).
    pub fn noisy(&self) -> bool {
        3 * self.clean_passes() < 2 * self.planned
    }

    pub fn median_foreign_cpu_share(&self) -> f64 {
        let shares: Vec<f64> = self.passes.iter().map(|p| p.foreign_cpu_share).collect();
        stats::median(&shares)
    }

    /// The passes the metrics are read from: the clean ones, or every
    /// pass when the run was noisy and the clean ones are too few to take
    /// a quartile of.
    pub fn kept(&self) -> Vec<&Pass> {
        let all = self.noisy();
        self.passes.iter().filter(|p| all || p.is_clean()).collect()
    }

    /// Runs the warm-up passes, then passes until `plan.measured` of them
    /// were clean or `plan.extra` replacements are used up, reading the
    /// machine's CPU counters around each.
    pub fn measure(&mut self, plan: PassPlan, mut run_pass: impl FnMut() -> Pass) {
        for _ in 0..plan.warm_up {
            let p = run_pass();
            self.failed += p.failed;
            self.ops += p.ops;
        }
        self.planned += plan.measured;
        let nproc = host::nproc();
        let (mut clean, mut done) = (0, 0);
        while plan.wants_another(clean, done) {
            let before = CpuSample::now();
            let mut p = run_pass();
            if let (Some(a), Some(b)) = (before, CpuSample::now()) {
                p.foreign_cpu_share = host::foreign_cpu_share(&a, &b, nproc, host::USER_HZ);
            }
            self.failed += p.failed;
            self.ops += p.ops;
            clean += usize::from(p.is_clean());
            done += 1;
            self.passes.push(p);
        }
    }
}

/// The quiet-host reading of each timing metric over `passes`, and how
/// the metric spread over them: every metric is computed pass by pass
/// and the quartile on its good side is reported, because interference
/// only ever slows a pass down.
pub fn quiet_timings(passes: &[&Pass]) -> Vec<(&'static str, f64, stats::Spread)> {
    let per_pass: Vec<[f64; 6]> = passes.iter().map(|p| p.timings()).collect();
    TIMINGS
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let series: Vec<f64> = per_pass.iter().map(|t| t[i]).collect();
            (
                m.name,
                stats::quiet(&series, m.better),
                stats::spread(&series),
            )
        })
        .collect()
}

/// Percentile of a latency series, in microseconds.
pub fn percentile_us(series: &[u64], q: f64) -> f64 {
    let mut s = series.to_vec();
    stats::tail(&mut s, q) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall_s: f64, foreign_cpu_share: f64) -> Pass {
        Pass {
            wall_s,
            ops: 1000,
            answers: 5000,
            ttfa_ns: (1..=1000).map(|i| i * 1000).collect(),
            request_ns: (1..=1000).map(|i| i * 2000).collect(),
            foreign_cpu_share,
            ..Pass::default()
        }
    }

    #[test]
    fn a_pass_reads_its_own_rates_and_percentiles() {
        let t = pass(0.5, 0.0).timings();
        assert_eq!(t, [10_000.0, 2000.0, 500.0, 990.0, 1000.0, 1980.0]);
    }

    #[test]
    fn quiet_timings_are_the_good_side_quartile_of_whole_passes() {
        // Fifteen passes of 1.0 to 2.4 s: the fourth-fastest is 1.3 s.
        let passes: Vec<Pass> = (0..15).map(|i| pass(1.0 + 0.1 * i as f64, 0.0)).collect();
        let refs: Vec<&Pass> = passes.iter().collect();
        let q = quiet_timings(&refs);
        assert_eq!(q[1].0, "requests_per_s");
        assert!((q[1].1 - 1000.0 / 1.3).abs() < 1e-9, "{}", q[1].1);
        assert!((q[1].2.median - 1000.0 / 1.7).abs() < 1e-9);
        assert_eq!((q[5].0, q[5].1), ("request_p99_us", 1980.0));
    }

    #[test]
    fn plans_run_a_fixed_number_of_passes_and_replace_noisy_ones() {
        let plan = PassPlan {
            warm_up: 1,
            measured: 3,
            extra: 2,
        };
        // All clean: exactly the measured count.
        assert!(plan.wants_another(2, 2));
        assert!(!plan.wants_another(3, 3));
        // Two noisy passes are replaced, a third is not.
        assert!(plan.wants_another(2, 4));
        assert!(!plan.wants_another(2, 5));
        assert!(!plan.wants_another(3, 5));

        let mut m = Measured::default();
        let mut calls = 0;
        m.measure(plan, || {
            calls += 1;
            pass(1.0, 0.0)
        });
        assert_eq!(m.planned, 3);
        assert_eq!(calls, 1 + m.passes.len());
        assert_eq!(m.ops, 1000 * calls);
        assert!((3..=5).contains(&m.passes.len()));
    }

    #[test]
    fn noisy_runs_keep_every_pass_and_quiet_ones_only_the_clean() {
        let mut m = Measured {
            planned: 6,
            ..Measured::default()
        };
        m.passes = vec![pass(1.0, 0.0), pass(1.0, 0.01), pass(3.0, 0.4)];
        assert!(m.noisy());
        assert_eq!(m.kept().len(), 3);
        m.passes.extend([pass(1.0, 0.0), pass(1.0, 0.03)]);
        assert!(!m.noisy());
        assert_eq!(m.kept().len(), 4);
    }

    #[test]
    fn churn_ops_interleave_updates_with_their_reads() {
        let s = crate::scenario::Scenario::generate(2);
        let (deltas, reads) = (s.churn_deltas(), s.churn_reads());
        let (mut updates, mut read_indices, mut firsts) = (0, Vec::new(), 0);
        for op in churn_ops(&deltas, &reads) {
            match op {
                ChurnOp::Update { step, .. } => {
                    assert_eq!(step, updates);
                    assert_eq!(read_indices.len(), step * CHURN_READS_PER_UPDATE);
                    updates += 1;
                }
                ChurnOp::Read {
                    index,
                    follows_update,
                    ..
                } => {
                    read_indices.push(index);
                    firsts += usize::from(follows_update);
                }
            }
        }
        assert_eq!(updates, 2 * deltas.len());
        assert_eq!(firsts, updates);
        assert_eq!(read_indices, (0..reads.len()).collect::<Vec<_>>());
    }
}
