//! `cqc-benchmark`: one workload, one seed, one run.
//!
//! Every run sets up five deployments, measures the workload's passes on
//! each with tracing off, and checks every answer. `--trace 1` then peels
//! the stack on the last deployment for the per-layer metrics. The last
//! line of standard output is the result object the driver reads: the
//! gated end-to-end metrics with `--trace 0`, everything else with
//! `--trace 1`.

mod client;
mod deploy;
mod host;
mod layers;
mod metrics;
mod scenario;
mod stats;
mod trace;
mod verify;

use client::{Expected, Measured, Pass, PassPlan};
use cqc_common::error::{CqcError, Result};
use cqc_engine::{BlockService, Engine};
use deploy::{Deployment, Topology};
use metrics::{MetricDef, Values};
use scenario::{Request, Scenario};
use stats::Better;
use std::path::PathBuf;
use std::time::Instant;

// The counting allocator is what `core.enum.allocs_per_answer` reads. It
// is installed in every run so traced and untraced ones time the same
// program; its cost is two relaxed atomic adds per allocation.
#[global_allocator]
static ALLOC: cqc_common::alloc::CountingAlloc = cqc_common::alloc::CountingAlloc;

/// Fresh set-ups timed per run; the second-fastest is reported. Each
/// deployment then serves its share of the measured passes.
const SET_UPS: usize = 5;
/// Sized on the reference host, where a pass of any workload runs half
/// a second to a second: five deployments of one warm-up and two
/// measured passes take about ten seconds.
const PASSES_PER_TEN_SECONDS: f64 = 2.0;
/// `--quick`: one set-up and this many passes.
const QUICK_PASSES: usize = 3;
/// Everything a run writes, relative to the package directory `run.sh`
/// starts it in.
const OUT_DIR: &str = "out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ScanLocal,
    ScanFleet,
    PointFleet,
    ChurnDurable,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("scan-local", Workload::ScanLocal),
        ("scan-fleet", Workload::ScanFleet),
        ("point-fleet", Workload::PointFleet),
        ("churn-durable", Workload::ChurnDurable),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }

    fn topology(self) -> Topology {
        match self {
            Workload::ScanLocal => Topology::Local,
            Workload::ScanFleet | Workload::PointFleet => Topology::Fleet,
            Workload::ChurnDurable => Topology::Durable,
        }
    }

    /// The views registered at set-up. Both fleet workloads and
    /// `scan-local` register all six, so their set-ups build the same
    /// representations.
    fn views(self) -> Vec<usize> {
        match self {
            Workload::ChurnDurable => scenario::CHURN_VIEWS.to_vec(),
            _ => (0..scenario::VIEWS.len()).collect(),
        }
    }

    fn requests(self, s: &Scenario) -> Vec<Request> {
        match self {
            Workload::ScanLocal | Workload::ScanFleet => s.scan_requests(),
            Workload::PointFleet => s.point_requests(),
            Workload::ChurnDurable => s.churn_reads(),
        }
    }
}

/// `--seconds` buys passes at a fixed rate: for every ten seconds,
/// [`PASSES_PER_TEN_SECONDS`] measured passes on each deployment
/// after one warm-up pass, plus one replacement for every three. No
/// clock is read, so the same flags always measure the same number
/// of passes, however fast the program is.
fn pass_plan(seconds: f64, quick: bool) -> PassPlan {
    if quick {
        return PassPlan {
            warm_up: 1,
            measured: QUICK_PASSES,
            extra: 0,
        };
    }
    let measured = (PASSES_PER_TEN_SECONDS * seconds / 10.0).round().max(1.0) as usize;
    PassPlan {
        warm_up: 1,
        measured,
        extra: measured.div_ceil(3),
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload is required (scan-local, scan-fleet, point-fleet, churn-durable)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required (0 or 1)")?,
        quick,
    })
}

/// Removes the run's data directories on every way out of `run`.
struct Scratch(PathBuf);

impl Scratch {
    fn dir(&self, tag: &str) -> PathBuf {
        self.0.join(tag)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the checks found, summed over the run.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    fn add(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }
}

/// One fresh deployment and how long it took to build.
fn timed_set_up(
    args: &Args,
    s: &Scenario,
    scratch: &Scratch,
    i: usize,
) -> Result<(Deployment, f64)> {
    let dir = scratch.dir(&format!("data-{i}"));
    let t = Instant::now();
    let deployment = Deployment::set_up(args.workload.topology(), s, &args.workload.views(), &dir)?;
    Ok((deployment, t.elapsed().as_secs_f64()))
}

/// Off-the-clock checks shared by both modes: the naive-join sample, the
/// verification pass, and the in-process fingerprint a fleet must match.
fn verify_deployment(
    args: &Args,
    s: &Scenario,
    deployment: &Deployment,
    requests: &[Request],
    tally: &mut Tally,
) -> Result<Expected> {
    let views = args.workload.views();
    let (checked, mismatched) = verify::oracle_check(s, deployment.service(), &views)?;
    tally.add(
        checked.max(mismatched),
        mismatched,
        "naive-join comparisons",
    );
    let expected = match deployment {
        Deployment::Durable { engine, .. } => {
            client::churn_verification_pass(engine, &s.churn_deltas(), requests)?
        }
        _ => client::verification_pass(deployment.service(), requests)?,
    };
    if args.workload.topology() == Topology::Fleet {
        let local = verify::in_process_stream_hash(&deployment.shard_engines(), requests)?;
        tally.check(local == expected.stream_hash, || {
            format!(
                "fleet stream hash {:#018x} differs from the in-process hash {local:#018x}",
                expected.stream_hash
            )
        });
    }
    Ok(expected)
}

/// One pass of the workload against its deployment.
fn run_pass(
    deployment: &Deployment,
    s_deltas: &[scenario::DeltaPair],
    requests: &[Request],
    expected: &Expected,
) -> Pass {
    match deployment {
        Deployment::Durable { engine, .. } => {
            client::churn_pass(engine, s_deltas, requests, expected)
        }
        _ => client::read_pass(deployment.service(), requests, expected),
    }
}

/// After the last pass of `churn-durable`: the data directory alone must
/// bring back the same epoch and the same streams.
fn recovery_check(
    args: &Args,
    deployment: Deployment,
    requests: &[Request],
    tally: &mut Tally,
) -> Result<f64> {
    let Deployment::Durable { engine, dir } = deployment else {
        return Ok(0.0);
    };
    let epoch = engine.epoch();
    let live = client::verification_pass(&engine, requests)?;
    drop(engine);
    let t = Instant::now();
    let recovered = Engine::open(&dir)?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    tally.check(recovered.epoch() == epoch, || {
        format!("recovered at epoch {}, was at {epoch}", recovered.epoch())
    });
    for v in args.workload.views().iter().map(|&v| &scenario::VIEWS[v]) {
        recovered.register_view(v.name, v.query, v.pattern, v.strategy)?;
    }
    let after = client::verification_pass(&recovered, requests)?;
    tally.check(after == live, || {
        format!(
            "recovered stream hash {:#018x} differs from the live one {:#018x}",
            after.stream_hash, live.stream_hash
        )
    });
    Ok(recover_ms)
}

fn print_header(
    args: &Args,
    s: &Scenario,
    requests: &[Request],
    expected: &Expected,
    scratch: &Scratch,
) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    println!(
        "# cqc-benchmark workload={} seed={} trace={} seconds={} quick={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        args.quick
    );
    println!(
        "# host nproc={} shards={} rustc=\"{}\" commit={} kernel={} data_dir_fs={}",
        host::nproc(),
        deploy::shard_count(),
        env("BENCH_RUSTC"),
        env("BENCH_COMMIT"),
        host::kernel(),
        host::filesystem_of(&scratch.0, &mounts)
    );
    println!(
        "# sizes db_tuples={} views={} ops_per_pass={} answers_per_pass={}",
        s.tuples(),
        args.workload.views().len(),
        ops_per_pass(args.workload, requests),
        expected.total_answers()
    );
    for (v, def) in scenario::VIEWS.iter().enumerate() {
        let of_view = || {
            requests
                .iter()
                .zip(&expected.answers)
                .filter(move |(r, _)| r.view == v)
        };
        if of_view().next().is_some() {
            println!(
                "# view {} requests={} answers={} max_answers={}",
                def.name,
                of_view().count(),
                of_view().map(|(_, &a)| a).sum::<usize>(),
                of_view().map(|(_, &a)| a).max().unwrap_or(0)
            );
        }
    }
    println!(
        "# hashes requests={:#018x} stream={:#018x}",
        scenario::request_hash(requests),
        expected.stream_hash
    );
}

fn ops_per_pass(workload: Workload, requests: &[Request]) -> usize {
    match workload {
        Workload::ChurnDurable => requests.len() + 2 * scenario::CHURN_DELTAS,
        _ => requests.len(),
    }
}

fn print_passes(m: &Measured) {
    println!(
        "# passes planned={} run={} clean={} noisy={} foreign_cpu_share_median={:.4}",
        m.planned,
        m.passes.len(),
        m.clean_passes(),
        m.noisy(),
        m.median_foreign_cpu_share()
    );
    println!(
        "# pass  wall_s foreign clean {}",
        metrics::TIMINGS.map(|m| m.name).join(" ")
    );
    for (i, p) in m.passes.iter().enumerate() {
        let timings: Vec<String> = p.timings().iter().map(|t| format!("{t:.1}")).collect();
        println!(
            "# {i:>4} {:>7.4} {:>7.4} {:>5} {} failed={}",
            p.wall_s,
            p.foreign_cpu_share,
            p.is_clean(),
            timings.join(" "),
            p.failed
        );
    }
}

fn print_values(
    values: &Values,
    groups: &[&[MetricDef]],
    spreads: &[(&'static str, stats::Spread)],
) {
    println!(
        "{:<40} {:>16} {:<6} {:<7} {:>16} {:>8}",
        "metric", "value", "unit", "better", "pass median", "pass iqr"
    );
    for def in groups.iter().flat_map(|g| g.iter()) {
        let better = match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        print!(
            "{:<40} {:>16.4} {:<6} {:<7}",
            def.name,
            values.get(def.name),
            def.unit,
            better
        );
        match spreads.iter().find(|(n, _)| *n == def.name) {
            Some((_, s)) => println!(" {:>16.4} {:>7.2}%", s.median, s.iqr_share * 100.0),
            None => println!(),
        }
    }
}

/// The per-layer part of a `--trace 1` run: the build stack, then the
/// serving stack of `deployment` peeled depth by depth, the span file.
/// `untraced` are the passes already measured on this deployment.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    args: &Args,
    s: &Scenario,
    deployment: &Deployment,
    requests: &[Request],
    deltas: &[scenario::DeltaPair],
    expected: &Expected,
    untraced: &[Pass],
    scratch: &Scratch,
    tally: &mut Tally,
    v: &mut Values,
) -> Result<()> {
    let built = layers::build_peel(s, &args.workload.views(), args.workload.topology(), v)?;
    let answers = expected.total_answers();
    let mut trace = trace::Trace::new();
    let traced_passes = match deployment {
        Deployment::Durable { engine, .. } => vec![layers::peel_churn(
            engine,
            deltas,
            requests,
            expected,
            &built,
            &scratch.dir("wal-replay"),
            &mut trace,
            v,
        )?],
        Deployment::Local(sharded) => {
            let (passes, roots) =
                layers::root_depth(sharded, requests, expected, "service.serve", &mut trace)?;
            layers::peel_local(sharded, requests, expected, &roots, &mut trace, v)?;
            passes
        }
        Deployment::Fleet {
            router,
            servers,
            engines,
        } => {
            let (passes, roots) =
                layers::root_depth(router, requests, expected, "router.serve", &mut trace)?;
            let (rx0, _) = router.wire_bytes();
            let wire_pass = client::read_pass(router, requests, expected);
            let (rx1, _) = router.wire_bytes();
            tally.add(wire_pass.ops, wire_pass.failed, "operations");
            v.set(
                "wire_bytes_per_answer",
                (rx1 - rx0) as f64 / answers.max(1) as f64,
            );
            let fleet = layers::Fleet {
                router,
                servers,
                engines: engines.iter().map(|e| &**e).collect(),
            };
            layers::peel_fleet(&fleet, requests, expected, &roots, &mut trace, v)?;
            layers::fleet_counters(&fleet, v);
            passes
        }
    };
    for p in &traced_passes {
        tally.add(p.ops, p.failed, "traced operations");
    }
    layers::waterfall_metrics(&trace, answers, v);
    layers::engine_counters(deployment, v);

    // Median, over the passes of each kind, of a pass's median request
    // latency: the same statistic on both sides, and one that a stall in
    // a few requests of either side does not move.
    let typical = |passes: &[Pass]| {
        let p50s: Vec<f64> = passes
            .iter()
            .map(|p| client::percentile_us(&p.request_ns, 0.5))
            .collect();
        stats::median(&p50s)
    };
    let (traced_us, untraced_us) = (typical(&traced_passes), typical(untraced));
    println!(
        "# trace overhead: request p50 {traced_us:.1} us traced ({} passes), {untraced_us:.1} us untraced ({} passes)",
        traced_passes.len(),
        untraced.len()
    );
    v.set(
        "trace.overhead_share",
        (traced_us / untraced_us - 1.0).max(0.0),
    );

    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", args.workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    trace.write_json(&mut file)?;
    std::io::Write::flush(&mut file)?;
    println!(
        "# trace spans={} file={}",
        trace.spans.len(),
        path.display()
    );
    let unattributed = v.get("trace.unattributed_share");
    if unattributed > 0.10 {
        println!(
            "# warning: {:.1}% of end-to-end time is unattributed",
            unattributed * 100.0
        );
    }
    Ok(())
}

fn run(args: &Args, tally: &mut Tally) -> Result<Values> {
    let scratch = Scratch(PathBuf::from(OUT_DIR).join(format!(
        "run-{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0)?;
    let s = Scenario::generate(args.seed);
    let requests = args.workload.requests(&s);
    let deltas = s.churn_deltas();
    let set_ups = if args.quick { 1 } else { SET_UPS };
    let plan = pass_plan(args.seconds, args.quick);
    let mut v = Values::new(metrics::ALL);

    // Every deployment serves its share of the passes. How fast a
    // deployment runs depends on where its threads and connections
    // happened to land, and that sticks for as long as it lives; five
    // deployments give every run five draws.
    let mut set_up_s = Vec::with_capacity(set_ups);
    let mut measured = Measured::default();
    let mut expected = None;
    let mut last = None;
    let mut last_from = 0;
    for i in 0..set_ups {
        // One deployment is alive at a time, and the one before is gone
        // before the next set-up is timed.
        drop(last.take());
        let (deployment, took) = timed_set_up(args, &s, &scratch, i)?;
        set_up_s.push(took);
        if expected.is_none() {
            let rep_bytes = deployment.rep_bytes() as f64;
            v.set("rep_bytes_per_tuple", rep_bytes / s.tuples() as f64);
            v.set(
                "rep_vs_output",
                rep_bytes / s.output_bytes(&args.workload.views()) as f64,
            );
            let e = verify_deployment(args, &s, &deployment, &requests, tally)?;
            print_header(args, &s, &requests, &e, &scratch);
            expected = Some(e);
        }
        let expected = expected.as_ref().expect("set just above");
        last_from = measured.passes.len();
        measured.measure(plan, || run_pass(&deployment, &deltas, &requests, expected));
        if i == 0 {
            // Peak memory of serving one deployment. Later deployments
            // add whatever the allocator kept of the ones before, which
            // says more about arena luck than about the program.
            v.set("rss_mb", host::rss_peak_mib());
        }
        last = Some(deployment);
    }
    let deployment = last.expect("at least one set-up");
    let expected = expected.expect("set at the first set-up");
    tally.add(measured.ops, measured.failed, "operations");
    print_passes(&measured);
    println!(
        "# set-ups {}",
        set_up_s
            .iter()
            .map(|t| format!("{t:.4}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    v.set("setup_s", stats::second_smallest(&mut set_up_s));
    let mut spreads = Vec::new();
    for (name, value, spread) in client::quiet_timings(&measured.kept()) {
        v.set(name, value);
        spreads.push((name, spread));
    }
    layers::update_metrics(&measured.passes, &mut v);
    v.set(
        "host.foreign_cpu_share",
        measured.median_foreign_cpu_share(),
    );
    v.set("host.clean_passes", measured.clean_passes() as f64);

    if args.trace {
        trace_layers(
            args,
            &s,
            &deployment,
            &requests,
            &deltas,
            &expected,
            &measured.passes[last_from..],
            &scratch,
            tally,
            &mut v,
        )?;
    }
    let recover_ms = recovery_check(args, deployment, &requests, tally)?;
    v.set("durable.recover_ms", recover_ms);

    if args.trace {
        print_values(&v, metrics::ALL, &spreads);
    } else {
        print_values(&v, &[&metrics::END_TO_END, &metrics::TIMINGS], &spreads);
    }
    Ok(v)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cqc-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let values = match run(&args, &mut tally) {
        Ok(v) => v,
        Err(e) => {
            // No result line: the run did not finish, so it has no result.
            let e: CqcError = e;
            eprintln!("cqc-benchmark: {e}");
            std::process::exit(1);
        }
    };
    for note in &tally.notes {
        println!("# FAILED: {note}");
    }
    let correct = tally.failed == 0;
    println!(
        "ops_attempted {} ops_failed {} correct {correct}",
        tally.attempted, tally.failed
    );
    let reported: &[&[MetricDef]] = if args.trace {
        metrics::TRACED
    } else {
        &[&metrics::END_TO_END]
    };
    println!(
        "{}",
        values.result_line(reported, correct, tally.attempted.max(1), tally.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}
