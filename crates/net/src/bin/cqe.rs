//! `cqe` — the command-line front door to [`cqc_engine::Engine`].
//!
//! Reads commands from script files given as arguments, from `-e '<cmd>'`
//! flags, or from stdin (one command per line; `#` starts a comment):
//!
//! ```text
//! load <rel> <file.csv> [header]       load a CSV relation
//! gen triangle <rows> [seed]           synthetic R, S, T (uniform pairs)
//! gen social <nodes> <edges> [seed]    skewed friendship graph R
//! gen star <k> <rows> [seed]           star relations R1..Rk
//! register <name> <pattern> <strategy> <query>
//!                                      e.g. register mutual bfb auto
//!                                           "V(x,y,z) :- R(x,y), R(y,z), R(z,x)"
//! ask <name> <v1> <v2> ...             answer one access request
//! exists <name> <v1> ...               boolean probe
//! explain <name>                       strategy selection + representation
//! update [--rm] <rel> <v1> <v2> ...    insert (or with --rm delete) one
//!                                      tuple (bumps the epoch,
//!                                      maintains/rebuilds cached views)
//! serve <addr> [--shard=<i>/<n> <pattern> "<query>"] [--data-dir=<dir>]
//!                                      expose the current database as a
//!                                      shard server (blocks until killed);
//!                                      --shard keeps only slice i of an
//!                                      n-way hash split derived from the
//!                                      query's partition spec; --data-dir
//!                                      makes every update durable (WAL +
//!                                      snapshots) — a dir already holding
//!                                      state is recovered to its exact
//!                                      pre-crash epoch, winning over the
//!                                      script's own database
//! route <addr> <pattern> "<query>" --shards=<a,b,c>
//!                                      run the front-door router: fans
//!                                      requests out across the shard
//!                                      fleet and merges the streams back
//!                                      into exact lexicographic order
//! bench <name> <requests> <threads> [seed] [witness|random]
//!       [--with-updates[=<rounds>]] [--json=<path>]
//!                                      serve a generated request stream;
//!                                      --with-updates interleaves mixed
//!                                      insert/delete deltas and cross-checks
//!                                      answers against a naive oracle,
//!                                      --json writes a summary file
//! stats                                catalog + update counters
//! demo                                 canned end-to-end tour
//! help | quit
//! ```
//!
//! Strategies: `auto`, `auto:<budget>`, `materialize`, `direct`,
//! `factorized`, `tau:<τ>`, `budget:<exp>`, `decomposed:<exp>`.
//!
//! `bench --profile enum` switches the benchmark into the enumeration
//! profile: the same request stream is served twice through the legacy
//! per-tuple pull path and twice through the flat-block pipeline (first
//! pass warms the scratch buffers, second is measured), reporting
//! answers/sec and — because this binary runs under the vendored counting
//! allocator — exact heap allocations per answer for both.
//!
//! `bench --profile shard` builds a sharded engine over the current
//! database at 1/2/4/8 shards and reports the scaling curve: parallel
//! register (build) time, steady-state aggregate answers/s, and exact
//! allocations per answer per shard (0 once warm). Every shard count is
//! cross-checked against the unsharded answer total.
//!
//! `bench --profile build` measures the cold path: a register's per-phase
//! breakdown (permutation sort, index gather, heavy dictionary, LP/width
//! solves) plus the shared-plan vs plan-per-shard sharded register curve —
//! plan-once registration solves strategy selection exactly once and ships
//! it to all shards.
//!
//! `bench --profile net` stands up a loopback fleet — four shard servers
//! on 127.0.0.1 behind a [`cqc_net::Router`] — and serves the identical
//! request stream remotely and through an in-process 4-shard
//! [`cqc_engine::ShardedEngine`] under the same partition spec, reporting
//! answers/s on both paths, wire bytes per answer, and a tuple-for-tuple
//! stream-equivalence verdict (also re-checked after an interleaved
//! update through both paths).
//!
//! `bench --profile chaos` is the fault-tolerance gate: a 2-shard ×
//! 2-replica loopback fleet is driven through a scripted fault schedule —
//! stalls, refusals, epoch lies, mid-stream deaths, real process-level
//! replica kills, a whole-group outage, and revival — while every answer
//! stream is compared against in-process oracles. It reports availability
//! (must be 100% while each shard keeps one live replica), failover
//! latency percentiles, circuit-breaker cycle counts, and the
//! degraded-mode coverage verdict.
//!
//! `bench --profile mix` is the overload gate: one admission-controlled
//! shard server (its service time padded to a fixed 10 ms so capacity is
//! host-independent) is driven by an open-loop, Zipf-skewed mix of
//! Interactive/Batch/Internal serves at 0.5×/1×/2× its measured
//! capacity, with deadline budgets and priorities on the wire, a shared
//! client-side retry budget, and concurrent Update/Health traffic. It
//! reports per-class accepted-latency percentiles, goodput, shed counts
//! (client- and server-side, by class and by reason), and retry
//! amplification, and gates: nothing hangs, accepted Interactive p99
//! meets its SLO at 2×, goodput holds a floor under overload, Batch
//! sheds no less than Interactive, amplification stays under 2×, and
//! Update/Health never fail behind queued serves.
//!
//! `bench --profile recovery` is the durability gate: a child
//! `cqe serve --data-dir` process is hard-killed (SIGKILL) at scripted
//! points — between durable updates, *mid-apply* right after the WAL
//! fsync but before the acknowledgment, and with garbage appended to the
//! log while it is down — and every restart must rejoin at its exact
//! pre-crash epoch, truncate torn tails cleanly, and serve answer streams
//! byte-identical to an uninterrupted in-process oracle. Pass
//! `--gen="<gen args>"` matching the script's own `gen` line so the child
//! rebuilds the same dataset (same seed, same rows) on its first boot.

use cqc_bench::{fmt_bytes, fmt_ns, BatchStats};
use cqc_common::alloc as cqalloc;
use cqc_common::frame::{code, ServePriority};
use cqc_common::AnswerBlock;
use cqc_engine::{BlockService, Engine, Policy, Request, UpdateReport};
use cqc_join::naive::evaluate_view;
use cqc_net::{
    AdmissionStats, BreakerConfig, ChaosService, ClientConfig, Deadline, Fault, NetServer,
    NetServerConfig, RetryBudget, RetryBudgetConfig, RetryPolicy, Router, ServeMode, ServerHandle,
    ShardClient,
};
use cqc_query::parser::parse_adorned;
use cqc_storage::csv::CsvOptions;
use cqc_storage::{Delta, Partitioning};
use cqc_workload::{
    graphs, mixed_delta, random_requests, uniform_relation, witness_requests, Zipf,
};
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every allocation in this binary is counted, so `bench --profile enum`
/// can report allocations-per-answer exactly (the counter costs a few
/// nanoseconds per allocation event and nothing per answer).
#[global_allocator]
static ALLOC: cqalloc::CountingAlloc = cqalloc::CountingAlloc;

fn main() {
    let mut commands: Vec<String> = Vec::new();
    let mut from_stdin = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" => {
                let Some(cmd) = args.next() else {
                    eprintln!("cqe: -e needs a command");
                    std::process::exit(2);
                };
                commands.push(cmd);
                from_stdin = false;
            }
            "-h" | "--help" => {
                print_help();
                return;
            }
            path => {
                match std::fs::read_to_string(path) {
                    Ok(text) => commands.extend(text.lines().map(str::to_string)),
                    Err(e) => {
                        eprintln!("cqe: cannot read script `{path}`: {e}");
                        std::process::exit(2);
                    }
                }
                from_stdin = false;
            }
        }
    }

    let mut engine = Engine::new(cqc_storage::Database::new());
    let mut failed = false;
    let mut run = |engine: &mut Engine, line: &str| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return true;
        }
        match execute(engine, line) {
            Ok(keep_going) => keep_going,
            Err(msg) => {
                eprintln!("error: {msg}");
                failed = true;
                true
            }
        }
    };

    if from_stdin {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if !run(&mut engine, &line) {
                break;
            }
        }
    } else {
        for line in &commands {
            if !run(&mut engine, line) {
                break;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn print_help() {
    println!("cqe — serve conjunctive-query views from compressed representations");
    println!();
    println!("usage: cqe [script ...] [-e '<command>'] (no args: read stdin)");
    println!();
    println!("commands:");
    println!("  load <rel> <file.csv> [header]");
    println!("  gen triangle <rows> [seed] | gen social <nodes> <edges> [seed] | gen star <k> <rows> [seed]");
    println!("  register <name> <pattern> <strategy> <query>");
    println!("  ask <name> <values...>   exists <name> <values...>   explain <name>");
    println!("  update [--rm] <rel> <values...>");
    println!("  serve <addr> [--shard=<i>/<n> <pattern> \"<query>\"]");
    println!("        [--data-dir=<dir>] [--max-inflight=<n>] [--queue-depth=<n>]");
    println!("        [--deadline-ms=<n>] [--brownout-ms=<n>]");
    println!("        shard server over the current database (blocks until killed);");
    println!("        --shard keeps slice i of an n-way hash split for the query;");
    println!("        --data-dir makes updates durable (WAL + snapshots) — a dir");
    println!("        that already holds state is recovered and wins over the script");
    println!("  route <addr> <pattern> \"<query>\" --shards=<a,b,c>");
    println!("        [--max-inflight=<n>] [--queue-depth=<n>] [--deadline-ms=<n>]");
    println!("        [--brownout-ms=<n>]");
    println!("        front-door router: health-checks the fleet, fans out, merges");
    println!("  bench <name> <requests> <threads> [seed] [witness|random]");
    println!(
        "        [--with-updates[=<rounds>]] [--profile enum|shard|build|net|chaos|mix|recovery] \
[--json=<path>]"
    );
    println!("        --profile enum:  flat-block vs legacy pipeline (answers/s,");
    println!("        heap allocations per answer under the counting allocator)");
    println!("        --profile shard: 1/2/4/8-shard scaling curve (parallel build,");
    println!("        multicore serve, 0 allocs/answer per shard)");
    println!("        --profile build: register-time breakdown (sort/index/dict/lp)");
    println!("        + shared-plan vs plan-per-shard register curve");
    println!("        --profile net:   loopback fleet vs in-process sharded serve");
    println!("        (answers/s both paths, wire bytes/answer, stream equivalence)");
    println!("        --profile chaos: replicated fleet under scripted faults (kills,");
    println!("        stalls, refusals, epoch lies, mid-stream deaths; availability,");
    println!("        failover latency, breaker cycle, degraded coverage)");
    println!("        --profile mix:   open-loop Zipf mixed workload against one");
    println!("        admission-controlled server at 0.5x/1x/2x measured capacity");
    println!("        (per-class latency/goodput/sheds, retry amplification, SLOs)");
    println!("        --profile recovery: kill -9 a child `serve --data-dir` process");
    println!("        at scripted points (between updates, mid-apply, torn WAL tail);");
    println!("        every restart must rejoin at the exact pre-crash epoch with");
    println!("        byte-identical streams (needs --gen=\"<gen args>\", same seed)");
    println!("        [--baseline-register-ns=<n>: record a speedup vs that baseline]");
    println!("  stats   demo   help   quit");
    println!();
    println!("strategies: auto  auto:<budget>  materialize  direct  factorized");
    println!("            tau:<t>  budget:<exp>  decomposed:<exp>");
}

/// Splits a command line into words, honoring double quotes (queries
/// contain spaces and commas).
fn split_words(line: &str) -> Result<Vec<String>, String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    words.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(format!("unterminated quote in `{line}`"));
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    Ok(words)
}

/// Strategy tokens share one grammar with the wire protocol
/// ([`Policy::parse`]), so a token accepted here is accepted verbatim by a
/// remote `register` through the router.
fn parse_strategy(token: &str) -> Result<Policy, String> {
    Policy::parse(token).map_err(|e| e.to_string())
}

/// Executes one command; `Ok(false)` means quit.
fn execute(engine: &mut Engine, line: &str) -> Result<bool, String> {
    let words = split_words(line)?;
    let Some(cmd) = words.first() else {
        // e.g. a line of only quotes: nothing to do.
        return Ok(true);
    };
    let cmd = cmd.as_str();
    let rest = &words[1..];
    match cmd {
        "help" => print_help(),
        "quit" | "exit" => return Ok(false),
        "load" => {
            let [rel, path, opts @ ..] = rest else {
                return Err("usage: load <rel> <file.csv> [header]".into());
            };
            let has_header = match opts {
                [] => false,
                [o] if o == "header" => true,
                _ => {
                    return Err(format!(
                        "unknown load option(s) `{}` (only `header` is accepted)",
                        opts.join(" ")
                    ));
                }
            };
            let file = std::fs::File::open(path).map_err(|e| format!("open `{path}`: {e}"))?;
            engine
                .load_csv(
                    rel,
                    std::io::BufReader::new(file),
                    CsvOptions { has_header },
                )
                .map_err(|e| e.to_string())?;
            let db = engine.db();
            let r = db.get(rel).expect("just loaded");
            println!(
                "loaded `{rel}`: {} tuples, arity {} (|D| = {}, epoch {})",
                r.len(),
                r.arity(),
                db.size(),
                db.epoch()
            );
        }
        "gen" => gen(engine, rest)?,
        "register" => {
            let [name, pattern, strategy, query] = rest else {
                return Err("usage: register <name> <pattern> <strategy> \"<query>\"".into());
            };
            let policy = parse_strategy(strategy)?;
            let rv = engine
                .register_text(name, query, pattern, policy)
                .map_err(|e| e.to_string())?;
            println!(
                "registered `{name}` [{}]: {}",
                rv.selection.tag, rv.selection.reason
            );
        }
        "ask" | "exists" => {
            let [name, vals @ ..] = rest else {
                return Err(format!("usage: {cmd} <name> <values...>"));
            };
            let bound: Vec<u64> = vals
                .iter()
                .map(|v| engine.resolve_value(v).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            if cmd == "exists" {
                let yes = engine.exists(name, &bound).map_err(|e| e.to_string())?;
                println!("{yes}");
            } else {
                let served = engine
                    .serve(&Request {
                        view: name.clone(),
                        bound,
                    })
                    .map_err(|e| e.to_string())?;
                for t in served.tuples() {
                    let row: Vec<String> = t.iter().map(|&v| engine.display_value(v)).collect();
                    println!("{}", row.join(", "));
                }
                println!(
                    "-- {} tuples in {} (max delay {})",
                    served.len(),
                    fmt_ns(served.delay.total_ns),
                    fmt_ns(served.delay.max_ns)
                );
            }
        }
        "explain" => {
            let [name] = rest else {
                return Err("usage: explain <name>".into());
            };
            println!("{}", engine.explain(name).map_err(|e| e.to_string())?);
        }
        "update" => {
            let usage = "usage: update [--rm] <rel> <values...>";
            let (removing, rest) = match rest {
                [flag, rest @ ..] if flag == "--rm" => (true, rest),
                _ => (false, rest),
            };
            let [rel, vals @ ..] = rest else {
                return Err(usage.into());
            };
            if vals.is_empty() {
                return Err(usage.into());
            }
            let tuple: Vec<u64> = vals
                .iter()
                .map(|v| engine.resolve_value(v).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let mut delta = Delta::new();
            if removing {
                delta.remove(rel, tuple);
            } else {
                delta.insert(rel, tuple);
            }
            let report = engine.update(&delta).map_err(|e| e.to_string())?;
            println!(
                "applied {} delta to `{rel}` (epoch {}): {} maintained, {} rebuilt, \
                 {} restamped",
                if removing { "remove" } else { "insert" },
                report.epoch,
                report.maintained,
                report.rebuilt,
                report.restamped
            );
        }
        "stats" => {
            let s = engine.catalog_stats();
            let u = engine.update_stats();
            println!(
                "catalog: {} entries, {} resident (budget {}), {} hits, {} misses, \
                 {} builds, {} maintained, {} evictions, {} invalidations",
                s.entries,
                fmt_bytes(s.resident_bytes),
                fmt_bytes(s.budget_bytes),
                s.hits,
                s.misses,
                s.builds,
                s.maintained,
                s.evictions,
                s.invalidations
            );
            println!(
                "updates: {} deltas (epoch {}), {} maintained, {} rebuilt, {} restamped",
                u.deltas,
                engine.epoch(),
                u.maintained,
                u.rebuilt,
                u.restamped
            );
        }
        "serve" => serve_cmd(engine, rest)?,
        "route" => route_cmd(engine, rest)?,
        "bench" => bench(engine, rest)?,
        "demo" => {
            for cmd in [
                "gen social 400 4000 7",
                "register mutual bfb auto \"V(x,y,z) :- R(x,y), R(y,z), R(z,x)\"",
                "explain mutual",
                "bench mutual 2000 4 7 witness",
                "stats",
            ] {
                println!("cqe> {cmd}");
                execute(engine, cmd)?;
            }
        }
        other => return Err(format!("unknown command `{other}` (try `help`)")),
    }
    Ok(true)
}

fn gen(engine: &mut Engine, rest: &[String]) -> Result<(), String> {
    let usage = "usage: gen triangle <rows> [seed] | gen social <nodes> <edges> [seed] \
                 | gen star <k> <rows> [seed]";
    let arg = |i: usize| -> Result<u64, String> {
        rest.get(i)
            .ok_or_else(|| usage.to_string())?
            .parse::<u64>()
            .map_err(|_| format!("bad number `{}`", rest[i]))
    };
    // A *present* but unparseable seed is an error, not the default.
    let seed_arg = |i: usize| -> Result<u64, String> {
        match rest.get(i) {
            None => Ok(7),
            Some(_) => arg(i),
        }
    };
    match rest.first().map(String::as_str) {
        Some("triangle") => {
            let rows = arg(1)? as usize;
            let seed = seed_arg(2)?;
            let mut rng = cqc_workload::rng(seed);
            let domain = ((rows as f64).sqrt() as u64 * 2).max(4);
            for name in ["R", "S", "T"] {
                let r = uniform_relation(&mut rng, name, 2, rows, domain);
                engine.add_relation(r).map_err(|e| e.to_string())?;
            }
            println!(
                "generated triangle workload: R, S, T with ≤{rows} pairs over 0..{domain} \
                 (|D| = {})",
                engine.db().size()
            );
        }
        Some("social") => {
            let nodes = arg(1)?;
            let edges = arg(2)? as usize;
            let seed = seed_arg(3)?;
            let mut rng = cqc_workload::rng(seed);
            let r = graphs::friendship_graph(&mut rng, nodes, edges, 1.0);
            engine.add_relation(r).map_err(|e| e.to_string())?;
            println!(
                "generated social graph `R`: {} directed friendship edges over {nodes} users",
                engine.db().size()
            );
        }
        Some("star") => {
            let k = arg(1)? as usize;
            let rows = arg(2)? as usize;
            let seed = seed_arg(3)?;
            if k == 0 {
                return Err("star needs k ≥ 1".into());
            }
            let mut rng = cqc_workload::rng(seed);
            let domain = (rows as u64 / 4).max(4);
            for i in 1..=k {
                let r = uniform_relation(&mut rng, &format!("R{i}"), 2, rows, domain);
                engine.add_relation(r).map_err(|e| e.to_string())?;
            }
            println!(
                "generated star workload: R1..R{k} with ≤{rows} pairs (|D| = {})",
                engine.db().size()
            );
        }
        _ => return Err(usage.into()),
    }
    Ok(())
}

/// Server tuning flags shared by `serve` and `route`
/// (`--max-inflight=<n>`, `--queue-depth=<n>`, `--deadline-ms=<n>`,
/// `--brownout-ms=<n>`); unknown flags are the caller's to reject.
fn net_server_config(opts: &[String]) -> Result<NetServerConfig, String> {
    let mut config = NetServerConfig::default();
    for opt in opts {
        let Some(flag) = opt.strip_prefix("--") else {
            continue;
        };
        match flag.split_once('=') {
            Some(("max-inflight", v)) => {
                config.max_inflight = v
                    .parse()
                    .map_err(|_| format!("bad --max-inflight value `{v}`"))?;
            }
            Some(("queue-depth", v)) => {
                config.queue_depth = v
                    .parse()
                    .map_err(|_| format!("bad --queue-depth value `{v}`"))?;
            }
            Some(("deadline-ms", v)) => {
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --deadline-ms value `{v}`"))?;
                config.request_deadline = Some(Duration::from_millis(ms));
            }
            Some(("brownout-ms", v)) => {
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --brownout-ms value `{v}`"))?;
                config.brownout_after = Duration::from_millis(ms);
            }
            _ => {}
        }
    }
    Ok(config)
}

/// Rejects any `--flag` not in `known` (the positional words were already
/// consumed by the caller).
fn reject_unknown_flags(opts: &[String], known: &[&str]) -> Result<(), String> {
    for opt in opts {
        if let Some(flag) = opt.strip_prefix("--") {
            let key = flag.split_once('=').map_or(flag, |(k, _)| k);
            if !known.contains(&key) {
                return Err(format!("unknown flag `--{key}`"));
            }
        }
    }
    Ok(())
}

/// `serve <addr> [--shard=<i>/<n> <pattern> "<query>"] [--max-inflight=<n>]
/// [--deadline-ms=<n>]` — expose the current database as a shard server.
///
/// Views are registered *remotely* (by a router or any protocol client),
/// so the command only needs data: with `--shard=<i>/<n>` the local
/// database is hash-split under the partition spec derived for the given
/// adorned query and only slice `i` is served — every fleet member runs
/// the same deterministic script with a different `i` and the slices line
/// up with what a router under the same spec expects. Blocks until the
/// process is killed.
fn serve_cmd(engine: &mut Engine, rest: &[String]) -> Result<(), String> {
    let usage = "usage: serve <addr> [--shard=<i>/<n> <pattern> \"<query>\"] \
                 [--data-dir=<dir>] [--max-inflight=<n>] [--queue-depth=<n>] \
                 [--deadline-ms=<n>] [--brownout-ms=<n>]";
    let [addr, opts @ ..] = rest else {
        return Err(usage.into());
    };
    reject_unknown_flags(
        opts,
        &[
            "shard",
            "data-dir",
            "max-inflight",
            "queue-depth",
            "deadline-ms",
            "brownout-ms",
        ],
    )?;
    let data_dir = opts
        .iter()
        .find_map(|o| o.strip_prefix("--data-dir="))
        .map(str::to_string);
    let config = net_server_config(opts)?;
    let shard = opts
        .iter()
        .find_map(|o| o.strip_prefix("--shard="))
        .map(|v| -> Result<(usize, usize), String> {
            let (i, n) = v
                .split_once('/')
                .ok_or_else(|| format!("bad --shard value `{v}` (want <i>/<n>)"))?;
            let i: usize = i.parse().map_err(|_| format!("bad shard index `{i}`"))?;
            let n: usize = n.parse().map_err(|_| format!("bad shard count `{n}`"))?;
            if n == 0 || i >= n {
                return Err(format!("shard index {i} out of range for {n} shard(s)"));
            }
            Ok((i, n))
        })
        .transpose()?;
    let positional: Vec<&String> = opts.iter().filter(|o| !o.starts_with("--")).collect();

    // Take the engine (this command never returns); the REPL keeps an
    // empty stand-in it will never get to use.
    let owned = std::mem::replace(engine, Engine::new(cqc_storage::Database::new()));
    let mut serving: Engine = match shard {
        None => {
            if !positional.is_empty() {
                return Err(usage.into());
            }
            owned
        }
        Some((i, n)) => {
            let [pattern, query] = positional.as_slice() else {
                return Err(usage.into());
            };
            let view = parse_adorned(query, pattern).map_err(|e| e.to_string())?;
            let db = owned.db();
            let spec = cqc_engine::spec_for_view(&view, &db);
            let part = Partitioning::new(spec, n).map_err(|e| e.to_string())?;
            let mut slices = part.split_database(&db).map_err(|e| e.to_string())?;
            let slice = slices.swap_remove(i);
            println!(
                "shard {i}/{n}: keeping {} of {} tuples under the `{query}` spec",
                slice.size(),
                db.size()
            );
            Engine::new(slice)
        }
    };
    // Durability: a data dir that already holds state wins over whatever
    // the script built — a respawned replica rejoins at its exact
    // pre-crash epoch; a fresh dir adopts the script's database as the
    // initial checkpoint and logs every update from here on.
    if let Some(dir) = &data_dir {
        if cqc_durable::DurableStore::exists(std::path::Path::new(dir)) {
            serving = Engine::open(dir).map_err(|e| e.to_string())?;
            let stats = serving.recovery_stats().unwrap_or_default();
            println!(
                "recovered data dir `{dir}`: epoch {}, {} wal record(s) replayed, \
                 {} torn byte(s) truncated (re-register views remotely)",
                stats.epoch, stats.replayed, stats.truncated_bytes
            );
        } else {
            serving.attach_durable(dir).map_err(|e| e.to_string())?;
            println!(
                "attached fresh data dir `{dir}` (checkpointed at epoch {})",
                serving.epoch()
            );
        }
    }
    let service: Arc<dyn BlockService> = Arc::new(serving);
    let handle = NetServer::spawn(service, addr, config).map_err(|e| e.to_string())?;
    println!(
        "shard server listening on {} (protocol v{}; register views remotely; ctrl-c to stop)",
        handle.addr(),
        cqc_common::frame::PROTOCOL_VERSION
    );
    loop {
        std::thread::park();
    }
}

/// `route <addr> <pattern> "<query>" --shards=<a,b,c> [--max-inflight=<n>]
/// [--queue-depth=<n>] [--deadline-ms=<n>] [--brownout-ms=<n>]` — run the
/// front-door router over a shard fleet.
///
/// The partition spec is derived from the *local* database and the given
/// adorned query — load or `gen` the same data (same seeds) the fleet was
/// split from so the spec matches the fleet's slices. Blocks until the
/// process is killed.
fn route_cmd(engine: &mut Engine, rest: &[String]) -> Result<(), String> {
    let usage = "usage: route <addr> <pattern> \"<query>\" --shards=<a,b,c> \
                 [--max-inflight=<n>] [--queue-depth=<n>] [--deadline-ms=<n>] \
                 [--brownout-ms=<n>]";
    let [addr, pattern, query, opts @ ..] = rest else {
        return Err(usage.into());
    };
    reject_unknown_flags(
        opts,
        &[
            "shards",
            "max-inflight",
            "queue-depth",
            "deadline-ms",
            "brownout-ms",
        ],
    )?;
    let config = net_server_config(opts)?;
    let shards: Vec<String> = opts
        .iter()
        .find_map(|o| o.strip_prefix("--shards="))
        .ok_or_else(|| usage.to_string())?
        .split(',')
        .map(str::to_string)
        .collect();
    let view = parse_adorned(query, pattern).map_err(|e| e.to_string())?;
    let spec = cqc_engine::spec_for_view(&view, &engine.db());
    let router =
        Router::connect(&shards, spec, ClientConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "router connected to {} shard(s): {}",
        router.num_shards(),
        router.addrs().join(", ")
    );
    let handle = NetServer::spawn(Arc::new(router), addr, config).map_err(|e| e.to_string())?;
    println!(
        "router listening on {} (protocol v{}; ctrl-c to stop)",
        handle.addr(),
        cqc_common::frame::PROTOCOL_VERSION
    );
    loop {
        std::thread::park();
    }
}

/// Which benchmark flow `bench` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BenchProfile {
    /// Delay-measuring batch serving (the default).
    Serve,
    /// Flat-block versus legacy pipeline (`--profile enum`).
    Enum,
    /// Sharded scaling curve across 1/2/4/8 shards (`--profile shard`).
    Shard,
    /// Build-path breakdown + shared-plan vs plan-per-shard register curve
    /// (`--profile build`).
    Build,
    /// Loopback fleet versus in-process sharded serve (`--profile net`).
    Net,
    /// Replicated loopback fleet under scripted faults (`--profile
    /// chaos`): availability, failover latency, breaker cycling, and
    /// degraded-mode coverage, gated against in-process oracles.
    Chaos,
    /// Open-loop Zipf-skewed mixed workload against one admission-
    /// controlled server at 0.5×/1×/2× measured capacity (`--profile
    /// mix`): per-class accepted latency percentiles, goodput, shed
    /// counts, retry amplification, and Health/Update liveness under
    /// overload.
    Mix,
    /// Kill-−9 crash/recovery harness (`--profile recovery`): a child
    /// `cqe serve --data-dir` process is killed at scripted points —
    /// including hard-killed mid-apply and with a torn WAL tail — and
    /// every restart must rejoin at its exact pre-crash epoch with
    /// byte-identical answer streams against an in-process oracle.
    Recovery,
}

/// Options accepted by `bench` after the positional arguments.
struct BenchOpts {
    seed: u64,
    witness: bool,
    /// `Some(rounds)` to interleave delta application with serving.
    updates: Option<usize>,
    json_path: Option<String>,
    profile: BenchProfile,
    /// Reference register time (ns) an earlier commit measured on this
    /// host, recorded into the build-profile JSON for the speedup-vs-
    /// baseline field (`--baseline-register-ns=<n>`).
    baseline_register_ns: Option<u64>,
    /// The `gen` arguments the recovery profile's child process replays to
    /// rebuild the parent's database on first boot
    /// (`--gen="triangle 400 7"` — must match the parent's own `gen`).
    gen: Option<String>,
}

fn parse_bench_opts(opts: &[String]) -> Result<BenchOpts, String> {
    let mut parsed = BenchOpts {
        seed: 7,
        witness: true,
        updates: None,
        json_path: None,
        profile: BenchProfile::Serve,
        baseline_register_ns: None,
        gen: None,
    };
    let mut positional = 0usize;
    let mut i = 0usize;
    while i < opts.len() {
        let opt = &opts[i];
        i += 1;
        if let Some(flag) = opt.strip_prefix("--") {
            let (key, mut val) = match flag.split_once('=') {
                Some((k, v)) => (k, Some(v.to_string())),
                None => (flag, None),
            };
            // `--profile enum` (space-separated) is accepted alongside
            // `--profile=enum`.
            if key == "profile" && val.is_none() {
                if let Some(next) = opts.get(i).filter(|n| !n.starts_with("--")) {
                    val = Some(next.clone());
                    i += 1;
                }
            }
            match key {
                "with-updates" => {
                    let rounds = match val.as_deref() {
                        None => 6,
                        Some(v) => v
                            .parse::<usize>()
                            .ok()
                            .filter(|&r| r >= 2)
                            .ok_or_else(|| format!("bad round count `{v}` (need ≥ 2)"))?,
                    };
                    parsed.updates = Some(rounds);
                }
                "json" => {
                    let Some(path) = val else {
                        return Err("--json needs a path (--json=<path>)".into());
                    };
                    parsed.json_path = Some(path);
                }
                "profile" => match val.as_deref() {
                    Some("enum") => parsed.profile = BenchProfile::Enum,
                    Some("shard") => parsed.profile = BenchProfile::Shard,
                    Some("build") => parsed.profile = BenchProfile::Build,
                    Some("net") => parsed.profile = BenchProfile::Net,
                    Some("chaos") => parsed.profile = BenchProfile::Chaos,
                    Some("mix") => parsed.profile = BenchProfile::Mix,
                    Some("recovery") => parsed.profile = BenchProfile::Recovery,
                    other => {
                        return Err(format!(
                            "unknown bench profile `{}` (`enum`, `shard`, `build`, `net`, \
                             `chaos`, `mix` and `recovery` exist)",
                            other.unwrap_or("")
                        ));
                    }
                },
                "gen" => {
                    let Some(v) = val else {
                        return Err("--gen needs a value (--gen=\"triangle 400 7\")".into());
                    };
                    parsed.gen = Some(v);
                }
                "baseline-register-ns" => {
                    let Some(v) = val else {
                        return Err("--baseline-register-ns needs a value".into());
                    };
                    parsed.baseline_register_ns = Some(
                        v.parse::<u64>()
                            .map_err(|_| format!("bad baseline register ns `{v}`"))?,
                    );
                }
                other => return Err(format!("unknown bench flag `--{other}`")),
            }
            continue;
        }
        match positional {
            0 => parsed.seed = opt.parse().map_err(|_| format!("bad seed `{opt}`"))?,
            1 => {
                parsed.witness = match opt.as_str() {
                    "witness" => true,
                    "random" => false,
                    other => return Err(format!("bad sampler `{other}` (witness|random)")),
                }
            }
            _ => return Err(format!("unexpected bench argument `{opt}`")),
        }
        positional += 1;
    }
    if parsed.profile != BenchProfile::Serve && parsed.updates.is_some() {
        return Err("--profile and --with-updates are mutually exclusive".into());
    }
    if parsed.gen.is_some() && parsed.profile != BenchProfile::Recovery {
        return Err("--gen only applies to --profile recovery".into());
    }
    Ok(parsed)
}

/// Cross-checks a few served answers against the naive oracle on the
/// current snapshot; any divergence is a stale-serve violation.
fn stale_serve_violations(
    engine: &Engine,
    rv: &cqc_engine::RegisteredView,
    probes: &[Request],
) -> Result<usize, String> {
    let db = engine.db();
    let mut violations = 0;
    for req in probes {
        let expect = evaluate_view(&rv.view, &db, &req.bound).map_err(|e| e.to_string())?;
        let mut got = engine
            .answer(&rv.name, &req.bound)
            .map_err(|e| e.to_string())?;
        got.sort_unstable();
        got.dedup();
        if got != expect {
            violations += 1;
        }
    }
    Ok(violations)
}

fn bench(engine: &mut Engine, rest: &[String]) -> Result<(), String> {
    let [name, n_req, threads, opts @ ..] = rest else {
        return Err(
            "usage: bench <name> <requests> <threads> [seed] [witness|random] \
                    [--with-updates[=<rounds>]] [--json=<path>]"
                .into(),
        );
    };
    let n_req: usize = n_req.parse().map_err(|_| "bad request count")?;
    let threads: usize = threads.parse().map_err(|_| "bad thread count")?;
    let opts = parse_bench_opts(opts)?;

    let rv = engine.view(name).map_err(|e| e.to_string())?;
    let mut rng = cqc_workload::rng(opts.seed);
    let bounds = if opts.witness {
        witness_requests(&mut rng, &rv.view, &engine.db(), n_req)
    } else {
        random_requests(&mut rng, &rv.view, &engine.db(), n_req)
    };
    match opts.profile {
        BenchProfile::Enum => {
            require_single_threaded("enum", threads)?;
            return bench_enum(engine, name, &bounds, opts.json_path.as_deref());
        }
        BenchProfile::Shard => {
            require_single_threaded("shard", threads)?;
            return bench_shard(engine, &rv, &bounds, opts.json_path.as_deref());
        }
        BenchProfile::Build => {
            require_single_threaded("build", threads)?;
            return bench_build(
                engine,
                &rv,
                opts.json_path.as_deref(),
                opts.baseline_register_ns,
            );
        }
        BenchProfile::Net => {
            require_single_threaded("net", threads)?;
            return bench_net(engine, &rv, &bounds, opts.json_path.as_deref());
        }
        BenchProfile::Chaos => {
            require_single_threaded("chaos", threads)?;
            return bench_chaos(&rv, engine, &bounds, opts.json_path.as_deref());
        }
        BenchProfile::Mix => {
            require_single_threaded("mix", threads)?;
            return bench_mix(&rv, engine, &bounds, opts.seed, opts.json_path.as_deref());
        }
        BenchProfile::Recovery => {
            require_single_threaded("recovery", threads)?;
            return bench_recovery(
                &rv,
                engine,
                &bounds,
                opts.gen.as_deref(),
                opts.json_path.as_deref(),
            );
        }
        BenchProfile::Serve => {}
    }
    let requests: Vec<Request> = bounds
        .into_iter()
        .map(|bound| Request {
            view: name.clone(),
            bound,
        })
        .collect();

    let mut view_relations: Vec<&str> = rv
        .view
        .query()
        .atoms
        .iter()
        .map(|a| a.relation.as_str())
        .collect();
    view_relations.sort_unstable();
    view_relations.dedup();

    let before = engine.catalog_stats();
    let mut updates = UpdateReport::default();
    let mut rounds_applied = 0usize;
    let mut violations = 0usize;
    // Serving-only wall time: delta application and oracle verification
    // stay outside it, so the reported (and JSON-archived) req/s tracks
    // the serve path, not the self-check harness.
    let mut serve_ns = 0u64;
    let mut batch = BatchStats::default();
    let mut served = 0usize;
    let mut measure = |engine: &Engine, reqs: &[Request]| -> Result<(), String> {
        // measure_batch drains without retaining tuples, so the reported
        // gaps are the representation's §2.3 enumeration delay, not Vec
        // reallocs.
        let t0 = std::time::Instant::now();
        let measured = engine
            .measure_batch(reqs, threads)
            .map_err(|e| e.to_string())?;
        serve_ns += t0.elapsed().as_nanos() as u64;
        served += measured.len();
        for d in &measured {
            batch.add(d);
        }
        Ok(())
    };
    match opts.updates {
        None => measure(engine, &requests)?,
        Some(rounds) => {
            let chunk = requests.len().div_ceil(rounds).max(1);
            let mut chunks = requests.chunks(chunk).peekable();
            while let Some(reqs) = chunks.next() {
                measure(engine, reqs)?;
                if chunks.peek().is_some() {
                    let delta = mixed_delta(&mut rng, &engine.db(), &view_relations, 3, 2);
                    let report = engine.update(&delta).map_err(|e| e.to_string())?;
                    rounds_applied += 1;
                    updates.epoch = report.epoch;
                    updates.delta_tuples += report.delta_tuples;
                    updates.maintained += report.maintained;
                    updates.rebuilt += report.rebuilt;
                    updates.restamped += report.restamped;
                    let probes: Vec<Request> =
                        chunks.peek().unwrap().iter().take(3).cloned().collect();
                    violations += stale_serve_violations(engine, &rv, &probes)?;
                }
            }
        }
    }
    let after = engine.catalog_stats();

    let batch = batch.finish();
    // Serving-phase rebuilds only: update-phase rebuilds are reported (and
    // judged) separately below.
    let rebuilds = (after.builds - before.builds) - updates.rebuilt as u64;

    println!(
        "bench `{name}`: {} requests on {threads} threads in {} \
         ({:.0} req/s, {} tuples)",
        served,
        fmt_ns(serve_ns),
        served as f64 / (serve_ns.max(1) as f64 / 1e9),
        batch.tuples
    );
    println!(
        "  delay: max {} | mean p99 {} | trie seeks {}",
        fmt_ns(batch.max_delay_ns),
        fmt_ns(batch.mean_p99_ns),
        batch.trie_seeks
    );
    println!(
        "  catalog: {} representation rebuilds during serving ({}), {} hits",
        rebuilds,
        if rebuilds == 0 {
            "cache-hit request path"
        } else {
            "catalog thrashing — raise the budget"
        },
        after.hits - before.hits
    );
    if opts.updates.is_some() {
        println!(
            "  updates: {rounds_applied} rounds, {} tuples queued, \
             delta-maintained: {}, rebuilt: {}, restamped: {}",
            updates.delta_tuples, updates.maintained, updates.rebuilt, updates.restamped
        );
        println!("  stale-serve violations: {violations}");
    }
    if let Some(path) = &opts.json_path {
        let fields = serve_json_fields(
            name,
            served,
            threads,
            serve_ns,
            &batch,
            rebuilds,
            opts.updates.map(|_| (rounds_applied, &updates, violations)),
        );
        write_json_summary(path, &fields)?;
    }
    if violations > 0 {
        return Err(format!(
            "{violations} stale-serve violation(s): answers diverged from the naive oracle"
        ));
    }
    Ok(())
}

/// The enumeration profile: serves the identical request stream through
/// the legacy per-tuple pull path (`Engine::answer`, one `Vec` per answer)
/// and through the flat-block pipeline (`Engine::with_view_server`), each
/// twice — the first pass warms caches and scratch buffers to their
/// high-water mark, the second is measured for wall time and (thanks to
/// the counting global allocator) exact heap allocation events.
fn bench_enum(
    engine: &Engine,
    name: &str,
    bounds: &[Vec<u64>],
    json_path: Option<&str>,
) -> Result<(), String> {
    // Before: the legacy pull path, materializing Vec<Tuple> per request.
    let legacy_pass = |engine: &Engine| -> Result<usize, String> {
        let mut answers = 0usize;
        for b in bounds {
            answers += engine.answer(name, b).map_err(|e| e.to_string())?.len();
        }
        Ok(answers)
    };
    legacy_pass(engine)?; // warm (builds the representation, touches caches)
    let snap = cqalloc::snapshot();
    let t0 = Instant::now();
    let legacy_answers = legacy_pass(engine)?;
    let legacy_ns = t0.elapsed().as_nanos() as u64;
    let legacy_allocs = cqalloc::snapshot().allocations_since(&snap);

    // After: the flat-block pipeline through one reusable ViewServer.
    // Warm-up and measurement share the server so the measured pass sees
    // steady-state scratch.
    let (flat_answers, flat_ns, flat_allocs) = engine
        .with_view_server(name, |server| -> Result<(usize, u64, u64), String> {
            let mut answers = 0usize;
            for b in bounds {
                server.serve(b).map_err(|e| e.to_string())?; // warm
            }
            let snap = cqalloc::snapshot();
            let t0 = Instant::now();
            for b in bounds {
                answers += server.serve(b).map_err(|e| e.to_string())?.len();
            }
            let ns = t0.elapsed().as_nanos() as u64;
            Ok((answers, ns, cqalloc::snapshot().allocations_since(&snap)))
        })
        .map_err(|e| e.to_string())??;

    if flat_answers != legacy_answers {
        return Err(format!(
            "enum profile self-check failed: flat path produced {flat_answers} answers, \
             legacy path {legacy_answers}"
        ));
    }

    let per_s = |answers: usize, ns: u64| answers as f64 / (ns.max(1) as f64 / 1e9);
    let per_answer = |allocs: u64, answers: usize| allocs as f64 / answers.max(1) as f64;
    let legacy_rate = per_s(legacy_answers, legacy_ns);
    let flat_rate = per_s(flat_answers, flat_ns);
    println!(
        "bench `{name}` [profile enum]: {} requests, {} answers",
        bounds.len(),
        flat_answers
    );
    println!(
        "  legacy pull path: {legacy_rate:.0} answers/s ({}), {legacy_allocs} allocs \
         ({:.3} per answer)",
        fmt_ns(legacy_ns),
        per_answer(legacy_allocs, legacy_answers)
    );
    println!(
        "  flat-block path:  {flat_rate:.0} answers/s ({}), {flat_allocs} allocs \
         ({:.3} per answer)",
        fmt_ns(flat_ns),
        per_answer(flat_allocs, flat_answers)
    );
    println!(
        "  speedup: {:.2}x, allocation events eliminated: {}",
        flat_rate / legacy_rate.max(1e-9),
        legacy_allocs.saturating_sub(flat_allocs)
    );
    if let Some(path) = json_path {
        let fields = vec![
            format!("\"view\": {}", json_string(name)),
            "\"profile\": \"enum\"".to_string(),
            format!("\"requests\": {}", bounds.len()),
            format!("\"answers\": {flat_answers}"),
            format!("\"legacy_wall_ns\": {legacy_ns}"),
            format!("\"legacy_answers_per_s\": {legacy_rate:.1}"),
            format!("\"legacy_allocs\": {legacy_allocs}"),
            format!(
                "\"legacy_allocs_per_answer\": {:.4}",
                per_answer(legacy_allocs, legacy_answers)
            ),
            format!("\"flat_wall_ns\": {flat_ns}"),
            format!("\"flat_answers_per_s\": {flat_rate:.1}"),
            format!("\"flat_allocs\": {flat_allocs}"),
            format!(
                "\"flat_allocs_per_answer\": {:.4}",
                per_answer(flat_allocs, flat_answers)
            ),
            format!("\"speedup\": {:.3}", flat_rate / legacy_rate.max(1e-9)),
        ];
        write_json_summary(path, &fields)?;
    }
    if flat_allocs > 0 {
        eprintln!(
            "warning: flat path performed {flat_allocs} allocation(s) in steady state \
             (expected 0)"
        );
    }
    Ok(())
}

/// The shard profile: builds a [`cqc_engine::ShardedEngine`] over the
/// current database at 1, 2, 4 and 8 shards, and reports the scaling curve
/// of **register** (the S per-shard representations built in parallel
/// under `std::thread::scope`) and of **steady-state serving** (the
/// shard-major flat-block loop, barrier-bracketed so the counting
/// allocator proves 0 allocs/answer per shard). Every shard count's answer
/// total is cross-checked against the unsharded engine. The 4-shard
/// answers/s is compared against 1 shard as a sanity floor (`floor_ok` in
/// the JSON; CI fails on regression — on a single-core host the curve is
/// flat and the floor is reported, not enforced, here).
fn bench_shard(
    engine: &Engine,
    rv: &cqc_engine::RegisteredView,
    bounds: &[Vec<u64>],
    json_path: Option<&str>,
) -> Result<(), String> {
    use cqc_engine::{ShardedBlocks, ShardedEngine, ShardedEngineConfig};

    // Unsharded oracle total (also warms the unsharded representation).
    let mut expected = 0usize;
    for b in bounds {
        expected += engine.answer(&rv.name, b).map_err(|e| e.to_string())?.len();
    }
    let base_db = (*engine.db()).clone();
    let policy = Policy::Fixed(rv.selection.strategy.clone());

    struct Point {
        shards: usize,
        partition_ns: u64,
        register_ns: u64,
        serve_wall_ns: u64,
        answers_per_s: f64,
        alloc_events: u64,
        allocs_per_answer: f64,
    }
    let mut curve: Vec<Point> = Vec::new();
    println!(
        "bench `{}` [profile shard]: {} requests, {} answers (unsharded oracle)",
        rv.name,
        bounds.len(),
        expected
    );
    for shards in [1usize, 2, 4, 8] {
        let spec = cqc_engine::spec_for_view(&rv.view, &base_db);
        let t0 = Instant::now();
        let sharded = ShardedEngine::new(
            base_db.clone(),
            spec,
            ShardedEngineConfig {
                shards,
                ..ShardedEngineConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let partition_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        sharded
            .register(&rv.name, rv.view.clone(), policy.clone())
            .map_err(|e| e.to_string())?;
        let register_ns = t0.elapsed().as_nanos() as u64;
        // Best of three measured passes: on an oversubscribed host (more
        // shards than cores) a single pass is at the mercy of the
        // scheduler; the fastest pass is the one that reflects the serve
        // loop rather than preemption noise. Allocation events are summed
        // — a single allocation in any pass breaks the discipline.
        let mut scratch = ShardedBlocks::new();
        let mut m = sharded
            .measure_steady_state(&rv.name, bounds, &mut scratch)
            .map_err(|e| e.to_string())?;
        for _ in 0..2 {
            let again = sharded
                .measure_steady_state(&rv.name, bounds, &mut scratch)
                .map_err(|e| e.to_string())?;
            m.alloc_events += again.alloc_events;
            m.wall_ns = m.wall_ns.min(again.wall_ns);
        }
        if m.answers != expected {
            return Err(format!(
                "shard profile self-check failed at {shards} shards: \
                 {} answers, unsharded produced {expected}",
                m.answers
            ));
        }
        let answers_per_s = m.answers as f64 / (m.wall_ns.max(1) as f64 / 1e9);
        let allocs_per_answer = m.alloc_events as f64 / m.answers.max(1) as f64;
        println!(
            "  {shards} shard(s): register {} (partition {}), serve {} \
             ({answers_per_s:.0} answers/s), {} allocs ({allocs_per_answer:.4} per answer)",
            fmt_ns(register_ns),
            fmt_ns(partition_ns),
            fmt_ns(m.wall_ns),
            m.alloc_events
        );
        curve.push(Point {
            shards,
            partition_ns,
            register_ns,
            serve_wall_ns: m.wall_ns,
            answers_per_s,
            alloc_events: m.alloc_events,
            allocs_per_answer,
        });
    }
    let one = &curve[0];
    let four = curve.iter().find(|p| p.shards == 4).expect("4 in curve");
    let register_speedup = one.register_ns as f64 / four.register_ns.max(1) as f64;
    let serve_speedup = four.answers_per_s / one.answers_per_s.max(1e-9);
    // The floor — 4-shard answers/s must not fall below 1 shard — is a
    // statement about parallel serving, so it is only enforced where
    // parallelism exists. On a single-core host four shards time-slice one
    // core and the comparison is pure scheduler noise; the raw speedups
    // and the core count are still reported for the record.
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let floor_enforced = host_cores >= 2;
    let floor_ok = !floor_enforced || four.answers_per_s >= one.answers_per_s;
    println!(
        "  4-shard vs 1-shard: register {register_speedup:.2}x, serve {serve_speedup:.2}x \
         (floor {}, {host_cores} host core(s))",
        if !floor_enforced {
            "not enforced on a single core"
        } else if floor_ok {
            "ok"
        } else {
            "REGRESSED"
        }
    );
    if !floor_ok {
        eprintln!(
            "warning: 4-shard serving ({:.0} answers/s) fell below the 1-shard \
             number ({:.0} answers/s)",
            four.answers_per_s, one.answers_per_s
        );
    }
    if let Some(path) = json_path {
        let points: Vec<String> = curve
            .iter()
            .map(|p| {
                format!(
                    "{{\"shards\": {}, \"partition_ns\": {}, \"register_ns\": {}, \
                     \"serve_wall_ns\": {}, \"answers_per_s\": {:.1}, \
                     \"alloc_events\": {}, \"allocs_per_answer\": {:.4}}}",
                    p.shards,
                    p.partition_ns,
                    p.register_ns,
                    p.serve_wall_ns,
                    p.answers_per_s,
                    p.alloc_events,
                    p.allocs_per_answer
                )
            })
            .collect();
        let fields = [
            format!("\"view\": {}", json_string(&rv.name)),
            "\"profile\": \"shard\"".to_string(),
            format!("\"requests\": {}", bounds.len()),
            format!("\"answers\": {expected}"),
            format!("\"curve\": [\n    {}\n  ]", points.join(",\n    ")),
            format!("\"register_speedup_4s_vs_1s\": {register_speedup:.3}"),
            format!("\"serve_speedup_4s_vs_1s\": {serve_speedup:.3}"),
            format!("\"host_cores\": {host_cores}"),
            format!("\"floor_enforced\": {floor_enforced}"),
            format!("\"floor_4s_vs_1s_ok\": {floor_ok}"),
        ];
        write_json_summary(path, &fields)?;
    }
    Ok(())
}

/// The build profile: where does a register go, and what does plan-once
/// sharded registration save?
///
/// 1. **Phase breakdown** — one fresh single-threaded [`Engine`] register
///    with the view's registered strategy, bracketed by the
///    [`cqc_common::metrics`] build-phase timers: permutation-sort time,
///    index gather/emit time, heavy-dictionary time, and LP/width-search
///    time (the §4.3 preprocessing quantities, measured instead of
///    hand-waved).
/// 2. **Headline register** — best-of-3 one-shard
///    [`cqc_engine::ShardedEngine`] registers with the same fixed
///    strategy, comparable number-for-number with `BENCH_shard.json`'s
///    `register_ns`; `--baseline-register-ns` (a number measured by an
///    earlier commit on the same host) turns it into a speedup.
/// 3. **Shared-plan vs plan-per-shard curve** — at 1/2/4/8 shards, the
///    auto-policy register through the plan-once path
///    ([`cqc_engine::ShardedEngine::register`], selection solved exactly
///    once) versus the per-shard path
///    ([`cqc_engine::ShardedEngine::register_planning_per_shard`], S
///    independent selections). CI gates shared ≤ per-shard across the
///    curve.
fn bench_build(
    engine: &Engine,
    rv: &cqc_engine::RegisteredView,
    json_path: Option<&str>,
    baseline_register_ns: Option<u64>,
) -> Result<(), String> {
    use cqc_common::metrics;
    use cqc_engine::{ShardedEngine, ShardedEngineConfig};

    let base_db = (*engine.db()).clone();
    let fixed = Policy::Fixed(rv.selection.strategy.clone());

    // 1. Phase breakdown on this thread (the timers are thread-local).
    let before = metrics::build_phases();
    let t0 = Instant::now();
    let fresh = Engine::new(base_db.clone());
    fresh
        .register(&rv.name, rv.view.clone(), fixed.clone())
        .map_err(|e| e.to_string())?;
    let single_register_ns = t0.elapsed().as_nanos() as u64;
    let phases = metrics::build_phases().delta_since(&before);
    let theorem1 = fresh.theorem1_stats(&rv.name).map_err(|e| e.to_string())?;

    // 2. Headline one-shard sharded register (the BENCH_shard methodology).
    let sharded_config = |shards: usize| ShardedEngineConfig {
        shards,
        ..ShardedEngineConfig::default()
    };
    let one_shard_register_ns = best_of_3_ns(|| {
        let spec = cqc_engine::spec_for_view(&rv.view, &base_db);
        let sharded = ShardedEngine::new(base_db.clone(), spec, sharded_config(1))
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        sharded
            .register(&rv.name, rv.view.clone(), fixed.clone())
            .map_err(|e| e.to_string())?;
        Ok(t0.elapsed().as_nanos() as u64)
    })?;

    println!(
        "bench `{}` [profile build]: single-engine register {} \
         (sort {}, index {}, tree {}, dict {}, lp {}, other {})",
        rv.name,
        fmt_ns(single_register_ns),
        fmt_ns(phases.sort_ns),
        fmt_ns(phases.index_ns),
        fmt_ns(phases.tree_ns),
        fmt_ns(phases.dict_ns),
        fmt_ns(phases.lp_ns),
        fmt_ns(single_register_ns.saturating_sub(phases.total_ns())),
    );
    if let Some(st) = &theorem1 {
        println!(
            "  theorem 1 build work: {} tree count probes; dictionary {} evaluations \
             of {} candidates ({} at leaves), {} probe joins for {} entries",
            st.tree_count_probes,
            st.dict_evaluations,
            st.dict_candidates,
            st.dict_leaf_evaluations,
            st.dict_probes,
            st.dict_entries
        );
    }
    println!(
        "  1-shard sharded register (best of 3): {}",
        fmt_ns(one_shard_register_ns)
    );
    let speedup =
        baseline_register_ns.map(|base| base as f64 / one_shard_register_ns.max(1) as f64);
    if let (Some(base), Some(s)) = (baseline_register_ns, speedup) {
        println!("  vs baseline register {}: {s:.2}x faster", fmt_ns(base));
    }

    // 3. Shared-plan vs plan-per-shard auto-policy register curve.
    struct Point {
        shards: usize,
        shared_register_ns: u64,
        per_shard_register_ns: u64,
    }
    let auto = Policy::default();
    let mut curve: Vec<Point> = Vec::new();
    let mut shared_solves_4s = 0u64;
    let mut per_shard_solves_4s = 0u64;
    for shards in [1usize, 2, 4, 8] {
        // One register; alongside the wall time, the selection-solve delta
        // proves the plan-once property deterministically (1 solve for
        // shared-plan, S for per-shard) — the check wall clocks can't
        // flake on.
        let one_register = |per_shard: bool| -> Result<(u64, u64), String> {
            let solves_before = cqc_engine::policy::selection_solves();
            let spec = cqc_engine::spec_for_view(&rv.view, &base_db);
            let sharded = ShardedEngine::new(base_db.clone(), spec, sharded_config(shards))
                .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            if per_shard {
                sharded
                    .register_planning_per_shard(&rv.name, rv.view.clone(), auto.clone())
                    .map_err(|e| e.to_string())?;
            } else {
                sharded
                    .register(&rv.name, rv.view.clone(), auto.clone())
                    .map_err(|e| e.to_string())?;
            }
            let ns = t0.elapsed().as_nanos() as u64;
            Ok((ns, cqc_engine::policy::selection_solves() - solves_before))
        };
        // Interleave the two sides (3 rounds, best of each) so scheduler
        // drift on a loaded host hits both measurements alike.
        let mut shared_register_ns = u64::MAX;
        let mut per_shard_register_ns = u64::MAX;
        let mut shared_solves = 0u64;
        let mut per_shard_solves = 0u64;
        for _ in 0..3 {
            let (ns, solves) = one_register(false)?;
            shared_register_ns = shared_register_ns.min(ns);
            shared_solves = solves;
            let (ns, solves) = one_register(true)?;
            per_shard_register_ns = per_shard_register_ns.min(ns);
            per_shard_solves = solves;
        }
        if shards == 4 {
            shared_solves_4s = shared_solves;
            per_shard_solves_4s = per_shard_solves;
        }
        println!(
            "  {shards} shard(s), auto policy: shared-plan register {} ({shared_solves} \
             selection solve/register) vs plan-per-shard {} ({per_shard_solves} solves) \
             ({:.2}x)",
            fmt_ns(shared_register_ns),
            fmt_ns(per_shard_register_ns),
            per_shard_register_ns as f64 / shared_register_ns.max(1) as f64
        );
        curve.push(Point {
            shards,
            shared_register_ns,
            per_shard_register_ns,
        });
    }
    // Shared-plan must not cost more than plan-per-shard: structurally it
    // does strictly less work (one selection instead of S per register).
    // The comparison sums the whole curve (8 best-of-3 points) and allows
    // 10% for scheduler noise — a single-point wall-clock inequality flakes
    // on loaded hosts where selection is a small fraction of the build; the
    // noise-immune form of the property is `plan_once_ok`.
    let shared_sum: u64 = curve.iter().map(|p| p.shared_register_ns).sum();
    let per_shard_sum: u64 = curve.iter().map(|p| p.per_shard_register_ns).sum();
    let shared_ok = shared_sum as f64 <= per_shard_sum as f64 * 1.10;
    let plan_once_ok = shared_solves_4s == 1 && per_shard_solves_4s == 4;
    println!(
        "  curve total: shared-plan {} ≤ plan-per-shard {}: {}; selection solved once: {}",
        fmt_ns(shared_sum),
        fmt_ns(per_shard_sum),
        if shared_ok { "ok" } else { "REGRESSED" },
        if plan_once_ok { "ok" } else { "VIOLATED" }
    );
    if !shared_ok {
        eprintln!(
            "warning: shared-plan registers ({}) slower than plan-per-shard ({}) across the curve",
            fmt_ns(shared_sum),
            fmt_ns(per_shard_sum)
        );
    }

    if let Some(path) = json_path {
        let points: Vec<String> = curve
            .iter()
            .map(|p| {
                format!(
                    "{{\"shards\": {}, \"shared_register_ns\": {}, \
                     \"per_shard_register_ns\": {}}}",
                    p.shards, p.shared_register_ns, p.per_shard_register_ns
                )
            })
            .collect();
        let mut fields = vec![
            format!("\"view\": {}", json_string(&rv.name)),
            "\"profile\": \"build\"".to_string(),
            format!("\"strategy\": {}", json_string(&rv.selection.tag)),
            format!("\"db_tuples\": {}", base_db.size()),
            format!("\"register_ns\": {single_register_ns}"),
            format!("\"sort_ns\": {}", phases.sort_ns),
            format!("\"index_ns\": {}", phases.index_ns),
            format!("\"tree_ns\": {}", phases.tree_ns),
            format!("\"dict_ns\": {}", phases.dict_ns),
            format!("\"lp_ns\": {}", phases.lp_ns),
            format!("\"one_shard_register_ns\": {one_shard_register_ns}"),
        ];
        if let Some(st) = &theorem1 {
            // Work counts, not timings: the same on every host.
            fields.push(format!("\"tree_nodes\": {}", st.tree_nodes));
            // The tree's layout: one µ-rank split point and one child id
            // per node, 4 B each (docs/ARCHITECTURE.md, "Theorem 1 memory
            // layout"), with 4 B/node of headroom.
            let mu = rv.view.mu();
            fields.push(format!("\"mu\": {mu}"));
            fields.push(format!("\"tree_bytes\": {}", st.tree_bytes));
            fields.push(format!(
                "\"tree_layout_ok\": {}",
                st.tree_bytes <= (4 * mu + 8) * st.tree_nodes
            ));
            fields.push(format!("\"tree_count_probes\": {}", st.tree_count_probes));
            fields.push(format!("\"dict_candidates\": {}", st.dict_candidates));
            fields.push(format!("\"dict_entries\": {}", st.dict_entries));
            fields.push(format!("\"dict_evaluations\": {}", st.dict_evaluations));
            fields.push(format!(
                "\"leaf_evaluations\": {}",
                st.dict_leaf_evaluations
            ));
            fields.push(format!("\"dict_probes\": {}", st.dict_probes));
            fields.push(format!(
                "\"dict_probes_le_entries_ok\": {}",
                st.dict_probes <= st.dict_entries as u64
            ));
        }
        if let (Some(base), Some(s)) = (baseline_register_ns, speedup) {
            fields.push(format!("\"baseline_register_ns\": {base}"));
            fields.push(format!("\"register_speedup_vs_baseline\": {s:.3}"));
        }
        fields.push(format!(
            "\"plan_curve\": [\n    {}\n  ]",
            points.join(",\n    ")
        ));
        fields.push(format!("\"shared_register_ns_total\": {shared_sum}"));
        fields.push(format!("\"per_shard_register_ns_total\": {per_shard_sum}"));
        fields.push(format!(
            "\"shared_plan_speedup_total\": {:.3}",
            per_shard_sum as f64 / shared_sum.max(1) as f64
        ));
        fields.push(format!(
            "\"selection_solves_shared_4s\": {shared_solves_4s}"
        ));
        fields.push(format!(
            "\"selection_solves_per_shard_4s\": {per_shard_solves_4s}"
        ));
        fields.push(format!("\"plan_once_ok\": {plan_once_ok}"));
        fields.push(format!("\"shared_plan_le_per_shard_ok\": {shared_ok}"));
        write_json_summary(path, &fields)?;
    }
    Ok(())
}

/// The net profile: how much does the wire cost, and is the remote stream
/// *exactly* the local stream?
///
/// Stands up four shard servers on 127.0.0.1 — each a fresh [`Engine`]
/// over one slice of the current database, split under the partition spec
/// derived for the benched view — fronts them with a [`Router`], and
/// serves the identical request stream twice: through an in-process
/// 4-shard [`cqc_engine::ShardedEngine`] under the same spec, and through
/// the router over TCP. Both paths are warmed, then measured, and the
/// merged streams are compared tuple-for-tuple (the order contract is
/// exact lexicographic on both sides, so equality is `==`, not set
/// equality). One mixed insert/delete delta is then applied through both
/// update paths and the full stream is re-compared, so the gate also
/// covers the split-delta/epoch machinery in both directions. Wire bytes come from the router's
/// per-connection counters around the measured pass.
fn bench_net(
    engine: &Engine,
    rv: &cqc_engine::RegisteredView,
    bounds: &[Vec<u64>],
    json_path: Option<&str>,
) -> Result<(), String> {
    use cqc_engine::{ShardedBlocks, ShardedEngine, ShardedEngineConfig};
    const SHARDS: usize = 4;

    let base_db = (*engine.db()).clone();
    let query_text = rv.view.query().to_string();
    let pattern = rv.view.pattern();
    let spec = cqc_engine::spec_for_view(&rv.view, &base_db);

    // In-process baseline: a 4-shard engine under the same spec. Both
    // sides register with the `auto` policy so neither gets a hand-tuned
    // advantage.
    let sharded = ShardedEngine::new(
        base_db.clone(),
        spec.clone(),
        ShardedEngineConfig {
            shards: SHARDS,
            ..ShardedEngineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    sharded
        .register(&rv.name, rv.view.clone(), parse_strategy("auto")?)
        .map_err(|e| e.to_string())?;

    // The loopback fleet: one server per database slice, OS-chosen ports.
    let part = Partitioning::new(spec.clone(), SHARDS).map_err(|e| e.to_string())?;
    let slices = part.split_database(&base_db).map_err(|e| e.to_string())?;
    let mut servers = Vec::with_capacity(SHARDS);
    let mut addrs = Vec::with_capacity(SHARDS);
    for slice in slices {
        let handle = NetServer::spawn(
            Arc::new(Engine::new(slice)),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        addrs.push(handle.addr().to_string());
        servers.push(handle);
    }
    let router =
        Router::connect(&addrs, spec, ClientConfig::default()).map_err(|e| e.to_string())?;
    router
        .register_view(&rv.name, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;

    // One measured pass per side; `collect` toggles the tuple capture so
    // the warm pass costs no Vec growth inside the measurement.
    let mut scratch = ShardedBlocks::new();
    let mut local_pass = |collect: bool| -> Result<(Vec<Vec<u64>>, usize, u64), String> {
        let mut tuples: Vec<Vec<u64>> = vec![Vec::new(); bounds.len()];
        let t0 = Instant::now();
        let answers = sharded
            .serve_stream_with(&rv.name, bounds, &mut scratch, |i, block| {
                if collect {
                    tuples[i].extend_from_slice(block.values());
                }
            })
            .map_err(|e| e.to_string())?;
        Ok((tuples, answers, t0.elapsed().as_nanos() as u64))
    };
    let remote_pass = |collect: bool| -> Result<(Vec<Vec<u64>>, usize, u64), String> {
        let mut tuples: Vec<Vec<u64>> = vec![Vec::new(); bounds.len()];
        let mut block = AnswerBlock::new();
        let mut answers = 0usize;
        let t0 = Instant::now();
        for (i, bound) in bounds.iter().enumerate() {
            block.reset();
            answers += router
                .serve_merged(&rv.name, bound, &mut block)
                .map_err(|e| e.to_string())?;
            if collect {
                tuples[i].extend_from_slice(block.values());
            }
        }
        Ok((tuples, answers, t0.elapsed().as_nanos() as u64))
    };

    local_pass(false)?; // warm: builds per-shard scratch high-water marks
    let (local_tuples, local_answers, local_ns) = local_pass(true)?;
    remote_pass(false)?; // warm: server-side scratch + connection buffers
    let (rx0, tx0) = router.wire_bytes();
    let (remote_tuples, remote_answers, remote_ns) = remote_pass(true)?;
    let (rx1, tx1) = router.wire_bytes();
    let stream_equal = local_tuples == remote_tuples && local_answers == remote_answers;

    // One delta through both update paths, then the full stream again:
    // catches split-delta or maintenance divergence the static pass can't.
    let mut view_relations: Vec<&str> = rv
        .view
        .query()
        .atoms
        .iter()
        .map(|a| a.relation.as_str())
        .collect();
    view_relations.sort_unstable();
    view_relations.dedup();
    let mut rng = cqc_workload::rng(13);
    let delta = mixed_delta(&mut rng, &base_db, &view_relations, 3, 2);
    sharded.apply_update(&delta).map_err(|e| e.to_string())?;
    router.apply_update(&delta).map_err(|e| e.to_string())?;
    let (local_after, local_answers_after, _) = local_pass(true)?;
    let (remote_after, remote_answers_after, _) = remote_pass(true)?;
    let update_equal = local_after == remote_after && local_answers_after == remote_answers_after;
    let epochs_equal = sharded.version() == router.version();

    let per_s = |answers: usize, ns: u64| answers as f64 / (ns.max(1) as f64 / 1e9);
    let local_rate = per_s(local_answers, local_ns);
    let remote_rate = per_s(remote_answers, remote_ns);
    let wire_in = rx1 - rx0;
    let wire_out = tx1 - tx0;
    let bytes_per_answer = wire_in as f64 / remote_answers.max(1) as f64;
    println!(
        "bench `{}` [profile net]: {} requests, {} answers, {SHARDS} loopback shard(s), \
         protocol v{}",
        rv.name,
        bounds.len(),
        local_answers,
        cqc_common::frame::PROTOCOL_VERSION
    );
    println!(
        "  in-process sharded: {local_rate:.0} answers/s ({})",
        fmt_ns(local_ns)
    );
    println!(
        "  loopback fleet:     {remote_rate:.0} answers/s ({}), {} down / {} up \
         ({bytes_per_answer:.1} bytes/answer)",
        fmt_ns(remote_ns),
        fmt_bytes(wire_in as usize),
        fmt_bytes(wire_out as usize)
    );
    println!(
        "  remote/local: {:.2}x; streams identical: {}; after update: {}; epochs aligned: {}",
        remote_rate / local_rate.max(1e-9),
        stream_equal,
        update_equal,
        epochs_equal
    );

    let all_equal = stream_equal && update_equal;
    if let Some(path) = json_path {
        let fields = [
            format!("\"view\": {}", json_string(&rv.name)),
            "\"profile\": \"net\"".to_string(),
            format!(
                "\"protocol_version\": {}",
                cqc_common::frame::PROTOCOL_VERSION
            ),
            format!("\"shards\": {SHARDS}"),
            format!("\"requests\": {}", bounds.len()),
            format!("\"answers\": {local_answers}"),
            format!("\"local_wall_ns\": {local_ns}"),
            format!("\"local_answers_per_s\": {local_rate:.1}"),
            format!("\"net_wall_ns\": {remote_ns}"),
            format!("\"net_answers_per_s\": {remote_rate:.1}"),
            format!(
                "\"net_vs_local\": {:.4}",
                remote_rate / local_rate.max(1e-9)
            ),
            format!("\"wire_bytes_down\": {wire_in}"),
            format!("\"wire_bytes_up\": {wire_out}"),
            format!("\"bytes_per_answer\": {bytes_per_answer:.2}"),
            format!("\"epochs_equal\": {epochs_equal}"),
            format!("\"stream_equal\": {all_equal}"),
        ];
        write_json_summary(path, &fields)?;
    }
    for server in &mut servers {
        server.shutdown();
    }
    if !all_equal {
        return Err(format!(
            "net profile self-check failed: remote stream diverged from the in-process \
             stream (pre-update equal: {stream_equal}, post-update equal: {update_equal})"
        ));
    }
    Ok(())
}

/// One chaos phase's ledger: how many requests ran, how many came back
/// exact (tuple-for-tuple equal to the oracle), and their latencies.
#[derive(Debug, Default)]
struct ChaosPhase {
    attempted: u64,
    exact: u64,
    lat_ns: Vec<u64>,
    last_miss: Option<String>,
}

impl ChaosPhase {
    fn absorb(&mut self, other: ChaosPhase) {
        self.attempted += other.attempted;
        self.exact += other.exact;
        self.lat_ns.extend(other.lat_ns);
        if other.last_miss.is_some() {
            self.last_miss = other.last_miss;
        }
    }
}

/// Serves `n` requests (cycling through `bounds` from `*cursor`) through
/// the router and compares every merged stream tuple-for-tuple against
/// the in-process oracle. Router failures and divergent streams count as
/// availability misses, not hard errors — the chaos gate judges the
/// totals.
fn chaos_exact_phase(
    router: &Router,
    oracle: &dyn BlockService,
    view: &str,
    bounds: &[Vec<u64>],
    cursor: &mut usize,
    n: usize,
) -> Result<ChaosPhase, String> {
    let mut phase = ChaosPhase::default();
    let mut want = AnswerBlock::new();
    let mut got = AnswerBlock::new();
    for _ in 0..n {
        let bound = &bounds[*cursor % bounds.len()];
        *cursor += 1;
        want.reset();
        oracle
            .serve_into(view, bound, &mut want)
            .map_err(|e| format!("chaos oracle serve: {e}"))?;
        got.reset();
        let t0 = Instant::now();
        let outcome = router.serve_merged(view, bound, &mut got);
        phase.lat_ns.push(t0.elapsed().as_nanos() as u64);
        phase.attempted += 1;
        match outcome {
            Ok(_) if got.values() == want.values() => phase.exact += 1,
            Ok(n) => {
                phase.last_miss = Some(format!(
                    "stream diverged from the oracle ({n} answers served, {} expected)",
                    want.len()
                ));
            }
            Err(e) => phase.last_miss = Some(format!("serve failed: {e}")),
        }
    }
    Ok(phase)
}

/// Respawns a killed shard server on its original address (bounded
/// retries — the OS may need a moment to release the port).
fn respawn(
    service: Arc<dyn BlockService>,
    addr: &str,
    config: NetServerConfig,
) -> Result<ServerHandle, String> {
    let mut last = String::new();
    for _ in 0..40 {
        match NetServer::spawn(Arc::clone(&service), addr, config) {
            Ok(handle) => return Ok(handle),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(format!("could not respawn shard server on {addr}: {last}"))
}

/// `lat[q]`-th percentile of a latency sample (ns); 0 when empty.
fn percentile_ns(lat: &mut [u64], q: u64) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    lat[((lat.len() as u64 - 1) * q / 100) as usize]
}

/// The chaos profile: a 2-shard × 2-replica loopback fleet driven through
/// a scripted fault schedule, with every answer stream checked against
/// in-process oracles.
///
/// The schedule, in order:
///
/// 1. **baseline** — no faults; every serve must be exact.
/// 2. **soft faults** — each fault type in turn on replica 0 of *every*
///    shard (stall past the socket timeout, typed refusal, an epoch lie,
///    death mid-stream after a flushed chunk): the failover machinery
///    must keep every serve exact via replica 1, exercising hedged
///    requests, breaker trips, stale skips, and verified prefix resumes.
/// 3. **hard kill** — replica 0 of every shard is really shut down:
///    serves stay exact, and the dead replicas' breakers open so later
///    requests stop paying for dead connects.
/// 4. **update under failure** — one mixed insert/delete delta goes
///    through the router while replica 0 is down: it lands on the
///    surviving replicas (preconditioned on the epoch vector), and the
///    oracles apply the same delta.
/// 5. **whole-group outage** — shard 1's last replica is killed too:
///    strict serves fail with a *typed* error, and
///    [`ServeMode::DegradedOk`] serves return exactly shard 0's slice of
///    the answers with a `1/2` coverage bitmap and a typed
///    [`cqc_common::frame::code::DEGRADED`] indication.
/// 6. **revival** — dead replicas are re-synced (the delta they missed is
///    applied directly — the operator-resync path), their servers respawn
///    on the original ports, `health_check` re-admits them, their
///    breakers close through the half-open probe, and serves are exact
///    again on the updated database.
///
/// Availability over the exact phases (1–4, 6) must be 100% — each shard
/// always kept one live replica. No request may ever exceed the retry
/// policy's deadline by more than scheduling noise.
fn bench_chaos(
    rv: &cqc_engine::RegisteredView,
    engine: &Engine,
    bounds: &[Vec<u64>],
    json_path: Option<&str>,
) -> Result<(), String> {
    const SHARDS: usize = 2;
    const REPLICAS: usize = 2;

    let base_db = (*engine.db()).clone();
    let query_text = rv.view.query().to_string();
    let pattern = rv.view.pattern();
    let spec = cqc_engine::spec_for_view(&rv.view, &base_db);
    let part = Partitioning::new(spec.clone(), SHARDS).map_err(|e| e.to_string())?;
    let slices = part.split_database(&base_db).map_err(|e| e.to_string())?;

    // In-process oracles: the full database (exact phases) and shard 0's
    // slice alone (the degraded phase's expected answer stream).
    let oracle = Engine::new(base_db.clone());
    (&oracle as &dyn BlockService)
        .register_view(&rv.name, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;
    let shard0_oracle = Engine::new(slices[0].clone());
    (&shard0_oracle as &dyn BlockService)
        .register_view(&rv.name, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;

    // The fleet: per shard, R chaos-wrapped engines over identical copies
    // of that shard's slice. Small chunks so a mid-stream death leaves a
    // flushed prefix on the wire (the resume path needs one).
    let server_config = NetServerConfig {
        chunk_tuples: 8,
        ..NetServerConfig::default()
    };
    let mut services: Vec<Vec<Arc<ChaosService>>> = Vec::with_capacity(SHARDS);
    let mut servers: Vec<Vec<Option<ServerHandle>>> = Vec::with_capacity(SHARDS);
    let mut group_addrs: Vec<Vec<String>> = Vec::with_capacity(SHARDS);
    for slice in &slices {
        let mut row_services = Vec::with_capacity(REPLICAS);
        let mut row_servers = Vec::with_capacity(REPLICAS);
        let mut row_addrs = Vec::with_capacity(REPLICAS);
        for _ in 0..REPLICAS {
            let service = Arc::new(ChaosService::new(Arc::new(Engine::new(slice.clone()))));
            let handle = NetServer::spawn(
                Arc::clone(&service) as Arc<dyn BlockService>,
                "127.0.0.1:0",
                server_config,
            )
            .map_err(|e| e.to_string())?;
            row_addrs.push(handle.addr().to_string());
            row_services.push(service);
            row_servers.push(Some(handle));
        }
        services.push(row_services);
        servers.push(row_servers);
        group_addrs.push(row_addrs);
    }

    // Fail-fast timings so the schedule runs in seconds: a stalled
    // replica burns one 300 ms socket timeout, not a 30 s default.
    let client_config = ClientConfig {
        connect_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        io_timeout: Some(Duration::from_millis(300)),
        refused_retries: 0,
        jitter_seed: 42,
    };
    let breaker_config = BreakerConfig {
        consecutive_failures: 3,
        window: 8,
        error_rate_pct: 50,
        cooldown: Duration::from_millis(300),
        half_open_successes: 1,
    };
    let policy = RetryPolicy {
        attempts: 4,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        request_deadline: Some(Duration::from_secs(2)),
        hedge_after: Some(Duration::from_millis(150)),
        retry_budget: RetryBudgetConfig {
            earn_pct: 20,
            burst: 32,
        },
    };
    let router =
        Router::connect_replicated(&group_addrs, spec, client_config, breaker_config, policy)
            .map_err(|e| e.to_string())?;
    router
        .register_view(&rv.name, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;

    let mut cursor = 0usize;
    let mut exact_total = ChaosPhase::default();
    let mut failover_lat: Vec<u64> = Vec::new();
    let mut all_lat: Vec<u64> = Vec::new();

    // Phase 1: baseline — the healthy fleet serves exactly.
    let baseline = chaos_exact_phase(&router, &oracle, &rv.name, bounds, &mut cursor, 10)?;
    all_lat.extend(&baseline.lat_ns);
    exact_total.absorb(baseline);

    // Phase 2: soft faults on replica 0 of every shard, one type at a
    // time; a cooldown-length pause between types lets the breakers
    // half-open so the next fault type is actually probed.
    let soft_faults = [
        Fault::Stall(Duration::from_millis(600)),
        Fault::Refuse,
        Fault::WrongEpoch(3),
        Fault::DieMidStream(10),
    ];
    for fault in soft_faults {
        for row in &services {
            row[0].set_fault(fault);
        }
        let phase = chaos_exact_phase(&router, &oracle, &rv.name, bounds, &mut cursor, 5)?;
        failover_lat.extend(&phase.lat_ns);
        all_lat.extend(&phase.lat_ns);
        exact_total.absorb(phase);
        for row in &services {
            row[0].set_fault(Fault::None);
        }
        std::thread::sleep(breaker_config.cooldown + Duration::from_millis(50));
    }

    // Phase 2b: a slow-but-alive replica. Replica 0 of every shard
    // serves correctly but 250 ms late — past hedge_after (150 ms) yet
    // inside the 300 ms socket timeout, so nothing errors and breakers
    // never open. Only budget-funded hedges keep the fleet's tail under
    // the slow replica's latency.
    let before_slow = router.fleet_stats();
    for row in &services {
        row[0].set_fault(Fault::Slowdown(25));
    }
    let slow = chaos_exact_phase(&router, &oracle, &rv.name, bounds, &mut cursor, 8)?;
    for row in &services {
        row[0].set_fault(Fault::None);
    }
    let after_slow = router.fleet_stats();
    let mut slow_lat = slow.lat_ns.clone();
    all_lat.extend(&slow.lat_ns);
    exact_total.absorb(slow);
    let slow_p99_ns = percentile_ns(&mut slow_lat, 99);
    let slow_hedges = after_slow.groups.hedges - before_slow.groups.hedges;
    let slow_budget_spent = after_slow.groups.budget_spent - before_slow.groups.budget_spent;
    // Bounded tail: hedges fire at 150 ms and the healthy sibling
    // answers in microseconds, so p99 must land well under the 250 ms
    // the slow replica would have cost — and every hedge was a budget
    // token, so spends must cover the hedge count.
    let slow_replica_ok =
        slow_p99_ns < 200_000_000 && slow_hedges > 0 && slow_budget_spent >= slow_hedges;
    std::thread::sleep(breaker_config.cooldown + Duration::from_millis(50));

    // Phase 3: really kill replica 0 of every shard.
    for row in &mut servers {
        if let Some(mut handle) = row[0].take() {
            handle.shutdown();
        }
    }
    let killed = chaos_exact_phase(&router, &oracle, &rv.name, bounds, &mut cursor, 10)?;
    failover_lat.extend(&killed.lat_ns);
    all_lat.extend(&killed.lat_ns);
    exact_total.absorb(killed);

    // Phase 4: one mixed delta through the router while replica 0 is
    // down — it lands on the survivors under the epoch precondition; the
    // dead replicas will need the operator re-sync below.
    let mut view_relations: Vec<&str> = rv
        .view
        .query()
        .atoms
        .iter()
        .map(|a| a.relation.as_str())
        .collect();
    view_relations.sort_unstable();
    view_relations.dedup();
    let mut rng = cqc_workload::rng(23);
    let delta = mixed_delta(&mut rng, &base_db, &view_relations, 3, 2);
    let sub = part.split_delta(&delta).map_err(|e| e.to_string())?;
    router.apply_update(&delta).map_err(|e| e.to_string())?;
    (&oracle as &dyn BlockService)
        .apply_update(&delta)
        .map_err(|e| e.to_string())?;
    if !sub[0].is_empty() {
        (&shard0_oracle as &dyn BlockService)
            .apply_update(&sub[0])
            .map_err(|e| e.to_string())?;
    }
    let updated = chaos_exact_phase(&router, &oracle, &rv.name, bounds, &mut cursor, 6)?;
    all_lat.extend(&updated.lat_ns);
    exact_total.absorb(updated);

    // Phase 5: whole-group outage — shard 1 loses its last replica.
    if let Some(mut handle) = servers[1][1].take() {
        handle.shutdown();
    }
    let mut strict_block = AnswerBlock::new();
    let strict_bound = &bounds[cursor % bounds.len()];
    let t0 = Instant::now();
    let strict_outcome = router.serve_merged(&rv.name, strict_bound, &mut strict_block);
    all_lat.push(t0.elapsed().as_nanos() as u64);
    let strict_typed = match strict_outcome {
        Err(cqc_common::CqcError::Protocol { .. }) => true,
        Err(_) | Ok(_) => false,
    };
    let mut degraded_attempted = 0u64;
    let mut degraded_exact = 0u64;
    let mut want = AnswerBlock::new();
    let mut got = AnswerBlock::new();
    for _ in 0..5 {
        let bound = &bounds[cursor % bounds.len()];
        cursor += 1;
        want.reset();
        (&shard0_oracle as &dyn BlockService)
            .serve_into(&rv.name, bound, &mut want)
            .map_err(|e| e.to_string())?;
        got.reset();
        let t0 = Instant::now();
        let report = router
            .serve_with_mode(&rv.name, bound, &mut got, ServeMode::DegradedOk)
            .map_err(|e| e.to_string())?;
        all_lat.push(t0.elapsed().as_nanos() as u64);
        degraded_attempted += 1;
        let degraded_error_typed = report.degraded_error().is_some_and(|e| {
            matches!(
                e,
                cqc_common::CqcError::Protocol {
                    code: cqc_common::frame::code::DEGRADED,
                    ..
                }
            )
        });
        if report.is_degraded()
            && report.coverage.missing() == vec![1]
            && degraded_error_typed
            && got.values() == want.values()
        {
            degraded_exact += 1;
        }
    }
    let degraded_ok =
        strict_typed && degraded_attempted > 0 && degraded_exact == degraded_attempted;

    // Phase 6: revival — re-sync the delta the dead replicas missed (the
    // operator path: directly into their engines), respawn on the
    // original ports, re-admit via health_check, serve exactly again.
    let dead = [(0usize, 0usize), (1, 0), (1, 1)];
    for &(s, r) in &dead {
        if !sub[s].is_empty() && (s, r) != (1, 1) {
            // (1,1) was alive for the update; re-applying would fork it.
            services[s][r]
                .apply_update(&sub[s])
                .map_err(|e| e.to_string())?;
        }
        let service = Arc::clone(&services[s][r]) as Arc<dyn BlockService>;
        servers[s][r] = Some(respawn(service, &group_addrs[s][r], server_config)?);
    }
    std::thread::sleep(breaker_config.cooldown + Duration::from_millis(50));
    router.health_check().map_err(|e| e.to_string())?;
    let revived = chaos_exact_phase(&router, &oracle, &rv.name, bounds, &mut cursor, 10)?;
    all_lat.extend(&revived.lat_ns);
    exact_total.absorb(revived);

    // The verdicts.
    let availability_pct = exact_total.exact as f64 * 100.0 / exact_total.attempted.max(1) as f64;
    let availability_ok = exact_total.attempted > 0 && exact_total.exact == exact_total.attempted;
    // Deadline is 2 s; anything past 3 s means a wait escaped the
    // deadline accounting (1 s of grace for scheduling noise).
    let max_request_ns = all_lat.iter().copied().max().unwrap_or(0);
    let no_hung_requests = max_request_ns < 3_000_000_000;
    let fleet = router.fleet_stats();
    let breaker_cycled = fleet.breakers.opened >= 2 && fleet.breakers.closed >= 2;
    let failover_p50 = percentile_ns(&mut failover_lat, 50);
    let failover_p99 = percentile_ns(&mut failover_lat, 99);

    println!(
        "bench `{}` [profile chaos]: {SHARDS} shards x {REPLICAS} replicas, {} exact-phase \
         requests, protocol v{}",
        rv.name,
        exact_total.attempted,
        cqc_common::frame::PROTOCOL_VERSION
    );
    println!(
        "  availability: {availability_pct:.1}% ({} / {} exact){}",
        exact_total.exact,
        exact_total.attempted,
        exact_total
            .last_miss
            .as_deref()
            .map(|m| format!(" — last miss: {m}"))
            .unwrap_or_default()
    );
    println!(
        "  failover latency: p50 {} | p99 {} | max request {}",
        fmt_ns(failover_p50),
        fmt_ns(failover_p99),
        fmt_ns(max_request_ns)
    );
    println!(
        "  fleet: {} failovers, {} stale skips, {} prefix resumes, {} hedges ({} won), \
         {} update failures, retry budget {} spent / {} denied",
        fleet.groups.failovers,
        fleet.groups.stale_skips,
        fleet.groups.prefix_resumes,
        fleet.groups.hedges,
        fleet.groups.hedge_wins,
        fleet.groups.update_failures,
        fleet.groups.budget_spent,
        fleet.groups.budget_denied
    );
    println!(
        "  slow replica: p99 {} with {slow_hedges} hedges ({slow_budget_spent} budget-funded) \
         against a 250 ms slowdown (ok: {slow_replica_ok})",
        fmt_ns(slow_p99_ns)
    );
    println!(
        "  breakers: {} opened, {} half-opened, {} closed (cycled: {breaker_cycled})",
        fleet.breakers.opened, fleet.breakers.half_opened, fleet.breakers.closed
    );
    println!(
        "  degraded: strict outage typed: {strict_typed}; {degraded_exact}/{degraded_attempted} \
         degraded serves matched shard 0's slice with a 1/2 coverage bitmap"
    );

    if let Some(path) = json_path {
        let fields = [
            format!("\"view\": {}", json_string(&rv.name)),
            "\"profile\": \"chaos\"".to_string(),
            format!(
                "\"protocol_version\": {}",
                cqc_common::frame::PROTOCOL_VERSION
            ),
            format!("\"shards\": {SHARDS}"),
            format!("\"replicas\": {REPLICAS}"),
            format!("\"exact_requests\": {}", exact_total.attempted),
            format!("\"exact_served\": {}", exact_total.exact),
            format!("\"availability_pct\": {availability_pct:.2}"),
            format!("\"availability_ok\": {availability_ok}"),
            format!("\"failover_p50_ns\": {failover_p50}"),
            format!("\"failover_p99_ns\": {failover_p99}"),
            format!("\"max_request_ns\": {max_request_ns}"),
            format!("\"no_hung_requests\": {no_hung_requests}"),
            format!("\"failovers\": {}", fleet.groups.failovers),
            format!("\"stale_skips\": {}", fleet.groups.stale_skips),
            format!("\"prefix_resumes\": {}", fleet.groups.prefix_resumes),
            format!("\"hedges\": {}", fleet.groups.hedges),
            format!("\"hedge_wins\": {}", fleet.groups.hedge_wins),
            format!("\"update_failures\": {}", fleet.groups.update_failures),
            format!("\"budget_spent\": {}", fleet.groups.budget_spent),
            format!("\"budget_denied\": {}", fleet.groups.budget_denied),
            format!("\"slow_p99_ns\": {slow_p99_ns}"),
            format!("\"slow_hedges\": {slow_hedges}"),
            format!("\"slow_replica_ok\": {slow_replica_ok}"),
            format!("\"breaker_opened\": {}", fleet.breakers.opened),
            format!("\"breaker_half_opened\": {}", fleet.breakers.half_opened),
            format!("\"breaker_closed\": {}", fleet.breakers.closed),
            format!("\"breaker_cycled\": {breaker_cycled}"),
            format!("\"strict_outage_typed\": {strict_typed}"),
            format!("\"degraded_serves\": {degraded_attempted}"),
            format!("\"degraded_exact\": {degraded_exact}"),
            format!("\"degraded_ok\": {degraded_ok}"),
        ];
        write_json_summary(path, &fields)?;
    }

    for row in &mut servers {
        for slot in row.iter_mut() {
            if let Some(mut handle) = slot.take() {
                handle.shutdown();
            }
        }
    }
    if !availability_ok {
        return Err(format!(
            "chaos profile self-check failed: availability {availability_pct:.1}% \
             (every shard kept a live replica; 100% exact serves were required){}",
            exact_total
                .last_miss
                .map(|m| format!(" — last miss: {m}"))
                .unwrap_or_default()
        ));
    }
    if !degraded_ok {
        return Err(format!(
            "chaos profile self-check failed: degraded mode (strict typed: {strict_typed}, \
             exact degraded serves: {degraded_exact}/{degraded_attempted})"
        ));
    }
    if !no_hung_requests {
        return Err(format!(
            "chaos profile self-check failed: a request ran {} — past the deadline budget",
            fmt_ns(max_request_ns)
        ));
    }
    if !slow_replica_ok {
        return Err(format!(
            "chaos profile self-check failed: slow-replica phase p99 {} with {slow_hedges} \
             hedges ({slow_budget_spent} budget-funded) — hedging under a retry budget must \
             keep the tail below the 250 ms slowdown",
            fmt_ns(slow_p99_ns)
        ));
    }
    Ok(())
}

/// One scheduled arrival in the mixed-workload harness: when it fires
/// relative to the phase start, which bound it asks (Zipf-skewed), and
/// the priority class and deadline budget it carries on the wire.
struct MixArrival {
    offset: Duration,
    bound_idx: usize,
    priority: ServePriority,
    budget: Duration,
}

/// How one open-loop arrival ended (latency in ns). `Refused` and
/// `Expired` are the *typed* shed outcomes the admission controller
/// promises; anything else is `Other` and fails the bench.
#[derive(Clone, Copy)]
enum MixOutcome {
    Accepted(u64),
    Refused(u64),
    Expired(u64),
    Other(u64),
}

/// One phase's per-class ledgers (index: Interactive 0, Batch 1,
/// Internal 2).
#[derive(Default)]
struct MixPhase {
    offered: [u64; 3],
    accepted: [u64; 3],
    refused: [u64; 3],
    expired: [u64; 3],
    other: u64,
    accepted_lat: Vec<u64>,
    interactive_lat: Vec<u64>,
    max_ns: u64,
    elapsed_ns: u64,
}

impl MixPhase {
    fn accepted_total(&self) -> u64 {
        self.accepted.iter().sum()
    }

    fn shed(&self, class: usize) -> u64 {
        self.refused[class] + self.expired[class]
    }
}

fn mix_class(priority: ServePriority) -> usize {
    match priority {
        ServePriority::Interactive => 0,
        ServePriority::Batch => 1,
        ServePriority::Internal => 2,
    }
}

fn mix_client_config(jitter_seed: u64) -> ClientConfig {
    ClientConfig {
        connect_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        io_timeout: Some(Duration::from_secs(2)),
        refused_retries: 3,
        jitter_seed,
    }
}

/// `lat`'s q-per-mille percentile (ns); 0 when empty.
fn permille_ns(lat: &mut [u64], q: u64) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    lat[(lat.len() - 1) * q as usize / 1000]
}

/// Replays `arrivals` open-loop against `addr`: `workers` threads pull
/// the next arrival from a shared cursor, sleep until its offset, and
/// fire it with its class and deadline budget on the wire, all sharing
/// one retry budget. Typed sheds return in microseconds, so the pool
/// stays on schedule — the offered load really is open-loop.
fn mix_phase(
    addr: &str,
    view: &str,
    bounds: &[Vec<u64>],
    arrivals: &[MixArrival],
    workers: usize,
    budget: &Arc<RetryBudget>,
) -> Result<MixPhase, String> {
    let next = AtomicUsize::new(0);
    // Workers pre-connect (a health probe) before the clock starts, so
    // connection setup never skews the schedule.
    let start = Instant::now() + Duration::from_millis(60);
    let mut phase = MixPhase::default();
    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let budget = Arc::clone(budget);
            let next = &next;
            handles.push(
                s.spawn(move || -> Result<Vec<(usize, MixOutcome)>, String> {
                    let mut client = ShardClient::new(addr, mix_client_config(100 + w as u64));
                    client.set_retry_budget(Some(budget));
                    client
                        .health()
                        .map_err(|e| format!("mix worker pre-connect: {e}"))?;
                    let mut out = Vec::new();
                    let mut block = AnswerBlock::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(a) = arrivals.get(i) else { break };
                        std::thread::sleep(
                            (start + a.offset).saturating_duration_since(Instant::now()),
                        );
                        block.reset();
                        let t0 = Instant::now();
                        let outcome = match client.serve_with_sink_opts(
                            view,
                            &bounds[a.bound_idx],
                            &mut block,
                            a.priority,
                            Deadline::within(Some(a.budget)),
                        ) {
                            Ok(_) => MixOutcome::Accepted(t0.elapsed().as_nanos() as u64),
                            Err(cqc_common::CqcError::Protocol { code: c, .. })
                                if c == code::REFUSED =>
                            {
                                MixOutcome::Refused(t0.elapsed().as_nanos() as u64)
                            }
                            Err(cqc_common::CqcError::Protocol { code: c, .. })
                                if c == code::DEADLINE =>
                            {
                                MixOutcome::Expired(t0.elapsed().as_nanos() as u64)
                            }
                            Err(_) => MixOutcome::Other(t0.elapsed().as_nanos() as u64),
                        };
                        out.push((i, outcome));
                    }
                    Ok(out)
                }),
            );
        }
        for handle in handles {
            let outcomes = handle
                .join()
                .map_err(|_| "mix worker panicked".to_string())??;
            for (i, outcome) in outcomes {
                let class = mix_class(arrivals[i].priority);
                phase.offered[class] += 1;
                let lat = match outcome {
                    MixOutcome::Accepted(ns) => {
                        phase.accepted[class] += 1;
                        phase.accepted_lat.push(ns);
                        if class == 0 {
                            phase.interactive_lat.push(ns);
                        }
                        ns
                    }
                    MixOutcome::Refused(ns) => {
                        phase.refused[class] += 1;
                        ns
                    }
                    MixOutcome::Expired(ns) => {
                        phase.expired[class] += 1;
                        ns
                    }
                    MixOutcome::Other(ns) => {
                        phase.other += 1;
                        ns
                    }
                };
                phase.max_ns = phase.max_ns.max(lat);
            }
        }
        Ok(())
    })?;
    phase.elapsed_ns = start.elapsed().as_nanos() as u64;
    Ok(phase)
}

/// The mix profile: overload robustness, measured.
///
/// One admission-controlled shard server (2 serve slots, a 2-deep
/// priority queue, 300 ms brownout) has every serve padded to a fixed
/// 10 ms by [`Fault::Slowdown`], so measured capacity is ≈ 200 req/s on
/// any host and the open-loop schedule stays generatable by a small
/// worker pool. Capacity is then measured closed-loop through the
/// tail-less v1 wire path, and three open-loop phases replay a
/// Zipf-skewed (s = 1.1) bound distribution at 0.5×/1×/2× that rate
/// with a fixed 70/25/5 Interactive/Batch/Internal class mix, each
/// class carrying its deadline budget (400/1200/800 ms) on the wire.
/// Every worker shares one token-bucket retry budget, and an updater
/// (every 100 ms) plus a health prober (every 20 ms) run throughout —
/// control traffic must never queue behind serves.
///
/// Gates: nothing hangs and every failure is typed; accepted
/// Interactive p99 at 2× meets its 450 ms SLO; goodput at 2× holds ≥
/// 35% of capacity (no congestion collapse); Batch sheds at least as
/// often as Interactive under overload; retry amplification stays
/// under 2×; and Update/Health see zero failures.
fn bench_mix(
    rv: &cqc_engine::RegisteredView,
    engine: &Engine,
    bounds: &[Vec<u64>],
    seed: u64,
    json_path: Option<&str>,
) -> Result<(), String> {
    const WORKERS: usize = 16;
    const PHASE_SPAN: Duration = Duration::from_millis(1200);
    const INTERACTIVE_SLO_NS: u64 = 450_000_000;

    if bounds.is_empty() {
        return Err("mix profile needs at least one request".into());
    }

    let base_db = (*engine.db()).clone();
    let query_text = rv.view.query().to_string();
    let pattern = rv.view.pattern();

    let inner = Engine::new(base_db.clone());
    (&inner as &dyn BlockService)
        .register_view(&rv.name, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;
    let service = Arc::new(ChaosService::new(Arc::new(inner)));
    service.set_fault(Fault::Slowdown(1));
    let server_config = NetServerConfig {
        max_inflight: 2,
        queue_depth: 2,
        brownout_after: Duration::from_millis(300),
        ..NetServerConfig::default()
    };
    let mut handle = NetServer::spawn(
        Arc::clone(&service) as Arc<dyn BlockService>,
        "127.0.0.1:0",
        server_config,
    )
    .map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();

    // Update stream: deltas precomputed against a shadow database so
    // each one is valid against the state its predecessors left behind.
    let mut view_relations: Vec<&str> = rv
        .view
        .query()
        .atoms
        .iter()
        .map(|a| a.relation.as_str())
        .collect();
    view_relations.sort_unstable();
    view_relations.dedup();
    let mut sim = base_db.clone();
    let mut drng = cqc_workload::rng(seed.wrapping_add(101));
    let mut deltas = Vec::with_capacity(64);
    for _ in 0..64 {
        let delta = mixed_delta(&mut drng, &sim, &view_relations, 2, 1);
        sim.apply(&delta).map_err(|e| e.to_string())?;
        deltas.push(delta);
    }

    let shared_budget = Arc::new(RetryBudget::new(RetryBudgetConfig {
        earn_pct: 20,
        burst: 20,
    }));
    let stop = AtomicBool::new(false);
    let update_rounds = AtomicU64::new(0);
    let update_failures = AtomicU64::new(0);
    let health_probes = AtomicU64::new(0);
    let health_failures = AtomicU64::new(0);

    type PhaseRow = (&'static str, f64, MixPhase, AdmissionStats, AdmissionStats);
    let measured: Result<(f64, Vec<PhaseRow>), String> = std::thread::scope(|s| {
        // Liveness side traffic across the whole run: updates and health
        // probes bypass admission, so queued serves must never starve
        // or fail them.
        let updater = s.spawn(|| {
            let mut client = ShardClient::new(addr.as_str(), mix_client_config(9));
            let mut k = 0usize;
            while !stop.load(Ordering::SeqCst) {
                match client.update(&deltas[k % deltas.len()]) {
                    Ok(_) => update_rounds.fetch_add(1, Ordering::Relaxed),
                    Err(_) => update_failures.fetch_add(1, Ordering::Relaxed),
                };
                k += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let prober = s.spawn(|| {
            let mut client = ShardClient::new(addr.as_str(), mix_client_config(11));
            while !stop.load(Ordering::SeqCst) {
                match client.health() {
                    Ok(_) => health_probes.fetch_add(1, Ordering::Relaxed),
                    Err(_) => health_failures.fetch_add(1, Ordering::Relaxed),
                };
                std::thread::sleep(Duration::from_millis(20));
            }
        });

        let work = (|| -> Result<(f64, Vec<PhaseRow>), String> {
            // Capacity: closed-loop through the tail-less v1 wire path
            // (3 workers > 2 slots saturates the server without
            // overflowing its 2-deep queue).
            let completions = AtomicU64::new(0);
            let t0 = Instant::now();
            let span = Duration::from_millis(600);
            std::thread::scope(|cs| -> Result<(), String> {
                let mut hs = Vec::new();
                for w in 0..3usize {
                    let completions = &completions;
                    let addr = addr.as_str();
                    hs.push(cs.spawn(move || -> Result<(), String> {
                        let mut client = ShardClient::new(addr, mix_client_config(50 + w as u64));
                        let mut block = AnswerBlock::new();
                        let mut i = w;
                        while t0.elapsed() < span {
                            block.reset();
                            client
                                .serve_with_sink(&rv.name, &bounds[i % bounds.len()], &mut block)
                                .map_err(|e| format!("capacity serve: {e}"))?;
                            completions.fetch_add(1, Ordering::Relaxed);
                            i += 3;
                        }
                        Ok(())
                    }));
                }
                for h in hs {
                    h.join()
                        .map_err(|_| "capacity worker panicked".to_string())??;
                }
                Ok(())
            })?;
            let capacity = completions.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64();
            if capacity < 10.0 {
                return Err(format!("implausible measured capacity {capacity:.1} req/s"));
            }

            // The open-loop schedules: Zipf-skewed bounds, deterministic
            // 70/25/5 class mix with per-class deadline budgets.
            let zipf = Zipf::new(bounds.len(), 1.1);
            let mut zrng = cqc_workload::rng(seed.wrapping_add(7));
            let mut schedule = |rate_per_s: f64| -> Vec<MixArrival> {
                let n = ((rate_per_s * PHASE_SPAN.as_secs_f64()) as usize).max(24);
                let spacing = PHASE_SPAN.as_secs_f64() / n as f64;
                (0..n)
                    .map(|i| {
                        let (priority, budget) = match i % 20 {
                            0..=13 => (ServePriority::Interactive, Duration::from_millis(400)),
                            14..=18 => (ServePriority::Batch, Duration::from_millis(1200)),
                            _ => (ServePriority::Internal, Duration::from_millis(800)),
                        };
                        MixArrival {
                            offset: Duration::from_secs_f64(i as f64 * spacing),
                            bound_idx: zipf.sample(&mut zrng) as usize,
                            priority,
                            budget,
                        }
                    })
                    .collect()
            };

            let mut rows: Vec<PhaseRow> = Vec::new();
            for (tag, mult) in [("half", 0.5f64), ("one", 1.0), ("two", 2.0)] {
                let rate = capacity * mult;
                let arrivals = schedule(rate);
                let before = handle.admission_stats();
                let phase = mix_phase(&addr, &rv.name, bounds, &arrivals, WORKERS, &shared_budget)?;
                let after = handle.admission_stats();
                rows.push((tag, rate, phase, before, after));
                // Drain the queue and unlatch any brownout before the
                // next phase changes the offered rate.
                std::thread::sleep(Duration::from_millis(150));
            }
            Ok((capacity, rows))
        })();
        stop.store(true, Ordering::SeqCst);
        let _ = updater.join();
        let _ = prober.join();
        work
    });
    let (capacity, rows) = measured?;

    // The verdicts.
    let offered_total: u64 = rows.iter().map(|r| r.2.offered.iter().sum::<u64>()).sum();
    let other_total: u64 = rows.iter().map(|r| r.2.other).sum();
    let max_request_ns = rows.iter().map(|r| r.2.max_ns).max().unwrap_or(0);
    let spent = shared_budget.spent();
    let denied = shared_budget.denied();
    let amplification = (offered_total + spent) as f64 / offered_total.max(1) as f64;
    let amplification_ok = amplification < 2.0;
    // Every shed is a typed REFUSED/DEADLINE in microseconds; a request
    // past 5 s (budgets top out at 1.2 s) escaped deadline accounting.
    let no_hung_requests = max_request_ns < 5_000_000_000 && other_total == 0;

    let two = &rows[2].2;
    let mut two_interactive = two.interactive_lat.clone();
    let two_interactive_p99 = percentile_ns(&mut two_interactive, 99);
    let interactive_p99_ok = two.accepted[0] > 0 && two_interactive_p99 <= INTERACTIVE_SLO_NS;
    let two_goodput = two.accepted_total() as f64 / (two.elapsed_ns.max(1) as f64 / 1e9);
    let goodput_ok = two_goodput >= 0.35 * capacity;
    let interactive_shed_frac = two.shed(0) as f64 / two.offered[0].max(1) as f64;
    let batch_shed_frac = two.shed(1) as f64 / two.offered[1].max(1) as f64;
    let shed_fairness_ok = batch_shed_frac + 1e-9 >= interactive_shed_frac;
    let rounds = update_rounds.load(Ordering::Relaxed);
    let probes = health_probes.load(Ordering::Relaxed);
    let upd_failures = update_failures.load(Ordering::Relaxed);
    let hp_failures = health_failures.load(Ordering::Relaxed);
    let liveness_ok = upd_failures == 0 && hp_failures == 0 && rounds > 0 && probes > 0;
    let admission = handle.admission_stats();

    println!(
        "bench `{}` [profile mix]: capacity {capacity:.0} req/s (closed-loop, 10 ms padded \
         serves), protocol v{}",
        rv.name,
        cqc_common::frame::PROTOCOL_VERSION
    );
    for (tag, rate, phase, before, after) in &rows {
        let mut lat = phase.accepted_lat.clone();
        let p50 = percentile_ns(&mut lat, 50);
        let p99 = percentile_ns(&mut lat, 99);
        let offered: u64 = phase.offered.iter().sum();
        println!(
            "  {tag}x ({rate:.0}/s): {}/{} accepted ({:.0}/s goodput), p50 {} p99 {}, shed \
             I/B/N {}+{}+{} (server: {} queue-full, {} brownout, {} expired)",
            phase.accepted_total(),
            offered,
            phase.accepted_total() as f64 / (phase.elapsed_ns.max(1) as f64 / 1e9),
            fmt_ns(p50),
            fmt_ns(p99),
            phase.shed(0),
            phase.shed(1),
            phase.shed(2),
            after.shed_queue_full - before.shed_queue_full,
            after.shed_brownout - before.shed_brownout,
            after.shed_expired - before.shed_expired,
        );
    }
    println!(
        "  2x SLO: accepted Interactive p99 {} (≤ 450 ms: {interactive_p99_ok}), goodput \
         {two_goodput:.0}/s (≥ 35% of capacity: {goodput_ok}), shed fraction I {:.2} vs B {:.2} \
         (fair: {shed_fairness_ok})",
        fmt_ns(two_interactive_p99),
        interactive_shed_frac,
        batch_shed_frac
    );
    println!(
        "  retry budget: {spent} spent / {denied} denied — amplification {amplification:.2}x \
         (< 2x: {amplification_ok})"
    );
    println!(
        "  liveness: {rounds} updates ({upd_failures} failed), {probes} health probes \
         ({hp_failures} failed), {} brownouts, max request {}",
        admission.brownouts,
        fmt_ns(max_request_ns)
    );

    if let Some(path) = json_path {
        let mut fields = vec![
            format!("\"view\": {}", json_string(&rv.name)),
            "\"profile\": \"mix\"".to_string(),
            format!(
                "\"protocol_version\": {}",
                cqc_common::frame::PROTOCOL_VERSION
            ),
            format!("\"capacity_per_s\": {capacity:.2}"),
            format!("\"workers\": {WORKERS}"),
            format!("\"offered_total\": {offered_total}"),
        ];
        for (tag, rate, phase, before, after) in &rows {
            let mut lat = phase.accepted_lat.clone();
            let p50 = percentile_ns(&mut lat, 50);
            let p99 = percentile_ns(&mut lat, 99);
            let p999 = permille_ns(&mut lat, 999);
            let goodput = phase.accepted_total() as f64 / (phase.elapsed_ns.max(1) as f64 / 1e9);
            fields.extend([
                format!("\"{tag}_rate_per_s\": {rate:.2}"),
                format!("\"{tag}_offered\": {}", phase.offered.iter().sum::<u64>()),
                format!("\"{tag}_goodput_per_s\": {goodput:.2}"),
                format!("\"{tag}_accepted_p50_ns\": {p50}"),
                format!("\"{tag}_accepted_p99_ns\": {p99}"),
                format!("\"{tag}_accepted_p999_ns\": {p999}"),
                format!("\"{tag}_accepted_interactive\": {}", phase.accepted[0]),
                format!("\"{tag}_accepted_batch\": {}", phase.accepted[1]),
                format!("\"{tag}_accepted_internal\": {}", phase.accepted[2]),
                format!("\"{tag}_shed_interactive\": {}", phase.shed(0)),
                format!("\"{tag}_shed_batch\": {}", phase.shed(1)),
                format!("\"{tag}_shed_internal\": {}", phase.shed(2)),
                format!(
                    "\"{tag}_server_shed_queue_full\": {}",
                    after.shed_queue_full - before.shed_queue_full
                ),
                format!(
                    "\"{tag}_server_shed_brownout\": {}",
                    after.shed_brownout - before.shed_brownout
                ),
                format!(
                    "\"{tag}_server_shed_expired\": {}",
                    after.shed_expired - before.shed_expired
                ),
            ]);
        }
        fields.extend([
            format!("\"server_admitted\": {}", admission.admitted),
            format!(
                "\"server_shed_interactive\": {}",
                admission.shed_interactive
            ),
            format!("\"server_shed_batch\": {}", admission.shed_batch),
            format!("\"server_shed_internal\": {}", admission.shed_internal),
            format!("\"server_brownouts\": {}", admission.brownouts),
            format!("\"budget_spent\": {spent}"),
            format!("\"budget_denied\": {denied}"),
            format!("\"amplification\": {amplification:.3}"),
            format!("\"two_interactive_p99_ns\": {two_interactive_p99}"),
            format!("\"max_request_ns\": {max_request_ns}"),
            format!("\"update_rounds\": {rounds}"),
            format!("\"update_failures\": {upd_failures}"),
            format!("\"health_probes\": {probes}"),
            format!("\"health_failures\": {hp_failures}"),
            format!("\"no_hung_requests\": {no_hung_requests}"),
            format!("\"interactive_p99_ok\": {interactive_p99_ok}"),
            format!("\"goodput_ok\": {goodput_ok}"),
            format!("\"shed_fairness_ok\": {shed_fairness_ok}"),
            format!("\"amplification_ok\": {amplification_ok}"),
            format!("\"liveness_ok\": {liveness_ok}"),
        ]);
        write_json_summary(path, &fields)?;
    }

    handle.shutdown();

    if !no_hung_requests {
        return Err(format!(
            "mix profile self-check failed: max request {} with {other_total} untyped \
             failures — every outcome must be fast or a typed shed",
            fmt_ns(max_request_ns)
        ));
    }
    if !interactive_p99_ok {
        return Err(format!(
            "mix profile self-check failed: accepted Interactive p99 {} at 2x capacity \
             blew the 450 ms SLO",
            fmt_ns(two_interactive_p99)
        ));
    }
    if !goodput_ok {
        return Err(format!(
            "mix profile self-check failed: goodput {two_goodput:.0}/s at 2x offered load \
             fell below 35% of the {capacity:.0}/s capacity (congestion collapse)"
        ));
    }
    if !shed_fairness_ok {
        return Err(format!(
            "mix profile self-check failed: Interactive shed fraction \
             {interactive_shed_frac:.2} exceeded Batch's {batch_shed_frac:.2} under overload"
        ));
    }
    if !amplification_ok {
        return Err(format!(
            "mix profile self-check failed: retry amplification {amplification:.2}x \
             (≥ 2x) — the retry budget failed to bound retry traffic"
        ));
    }
    if !liveness_ok {
        return Err(format!(
            "mix profile self-check failed: control-plane liveness ({rounds} updates, \
             {upd_failures} failed; {probes} health probes, {hp_failures} failed)"
        ));
    }
    Ok(())
}

/// Spawns a child `cqe` that regenerates the dataset and serves it on
/// `addr` backed by `data_dir`; with `crash_after`, the durability layer
/// aborts the process (simulated power cut) right after the n-th WAL
/// append — durable on disk, never acknowledged to the client.
fn spawn_serve_child(
    addr: &str,
    data_dir: &std::path::Path,
    gen: &str,
    crash_after: Option<u64>,
) -> Result<std::process::Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("-e")
        .arg(format!("gen {gen}"))
        .arg("-e")
        .arg(format!("serve {addr} --data-dir={}", data_dir.display()))
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if let Some(n) = crash_after {
        cmd.env(cqc_durable::CRASH_AFTER_APPENDS_ENV, n.to_string());
    }
    cmd.spawn().map_err(|e| format!("spawn child cqe: {e}"))
}

/// Hard-kills a child (SIGKILL — no destructors, no flush) and reaps it.
fn kill_child(child: &mut Option<std::process::Child>) {
    if let Some(mut c) = child.take() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Connects a fresh client to `addr`, polling `health` until the server
/// answers (a respawned child needs a moment to recover and bind);
/// returns the client and the first healthy epoch vector.
fn connect_healthy(addr: &str, budget: Duration) -> Result<(ShardClient, Vec<u64>), String> {
    let config = ClientConfig {
        connect_attempts: 1,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        io_timeout: Some(Duration::from_secs(2)),
        refused_retries: 3,
        jitter_seed: 9,
    };
    let start = Instant::now();
    loop {
        let mut client = ShardClient::new(addr, config);
        match client.health() {
            Ok(epochs) => return Ok((client, epochs)),
            Err(e) if start.elapsed() > budget => {
                return Err(format!("server on {addr} never became healthy: {e}"));
            }
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One byte-for-byte stream comparison pass: `count` requests served both
/// by the child (over the wire) and the in-process oracle; returns
/// `(requests, exact, last miss)`.
fn recovery_serve_check(
    client: &mut ShardClient,
    oracle: &Engine,
    view: &str,
    bounds: &[Vec<u64>],
    cursor: &mut usize,
    count: usize,
) -> Result<(u64, u64, Option<String>), String> {
    let oracle_service: &dyn BlockService = oracle;
    let mut want = AnswerBlock::new();
    let mut got = AnswerBlock::new();
    let (mut attempted, mut exact) = (0u64, 0u64);
    let mut last_miss = None;
    for _ in 0..count.min(bounds.len().max(1)) {
        let bound = &bounds[*cursor % bounds.len()];
        *cursor += 1;
        want.reset();
        oracle_service
            .serve_into(view, bound, &mut want)
            .map_err(|e| format!("recovery oracle serve: {e}"))?;
        got.reset();
        attempted += 1;
        match client.serve_block(view, bound, &mut got) {
            Ok((_, epochs)) if epochs != vec![oracle.epoch()] => {
                last_miss = Some(format!(
                    "serve observed epoch vector {epochs:?}, oracle at {}",
                    oracle.epoch()
                ));
            }
            Ok(_) if got.values() == want.values() => exact += 1,
            Ok((n, _)) => {
                last_miss = Some(format!(
                    "stream diverged from the oracle ({n} answers served, {} expected)",
                    want.len()
                ));
            }
            Err(e) => last_miss = Some(format!("serve failed: {e}")),
        }
    }
    Ok((attempted, exact, last_miss))
}

/// The newest WAL file inside a data directory (the one appends go to).
fn newest_wal(dir: &std::path::Path) -> Result<std::path::PathBuf, String> {
    let mut wals: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    wals.sort();
    wals.pop()
        .ok_or_else(|| format!("no wal-*.log in {}", dir.display()))
}

/// The recovery profile: a child `cqe serve --data-dir` process driven
/// through scripted kill points, each restart gated on rejoining at the
/// exact pre-crash epoch with answer streams byte-identical to an
/// uninterrupted in-process oracle.
///
/// The schedule, in order:
///
/// 1. **first boot** — the child regenerates the dataset (`--gen`, same
///    seed as the parent), attaches a fresh data dir, and must come up at
///    the oracle's epoch; baseline serves must be exact.
/// 2. **kill −9 between updates** — one mixed delta lands durably, then
///    the process is hard-killed and respawned: it must rejoin at the
///    post-delta epoch and serve exactly (views re-registered — they are
///    not persisted, by design).
/// 3. **kill −9 mid-apply** — the respawned child aborts *inside* the
///    update, after the WAL fsync but before acknowledging (the
///    worst-case power cut): the client sees an I/O error, yet the next
///    restart must surface the delta — durable means durable, acked or
///    not (the epoch probe is how a real client disambiguates, exactly as
///    with preconditioned updates).
/// 4. **torn tail** — garbage is appended to the WAL while the child is
///    dead (a torn final write): recovery must truncate it cleanly —
///    same epoch, same answers, WAL physically back to its valid length.
/// 5. **idempotent restart** — one final kill/restart with nothing new:
///    recovery of a recovered directory must be a fixed point.
fn bench_recovery(
    rv: &cqc_engine::RegisteredView,
    engine: &Engine,
    bounds: &[Vec<u64>],
    gen: Option<&str>,
    json_path: Option<&str>,
) -> Result<(), String> {
    let Some(gen) = gen else {
        return Err(
            "--profile recovery needs --gen=\"<gen args>\" matching the script's own `gen` \
             (the child process replays it to rebuild the dataset on first boot)"
                .into(),
        );
    };
    let query_text = rv.view.query().to_string();
    let pattern = rv.view.pattern();

    // The uninterrupted oracle: same database, same view, updated in
    // lockstep with what the child durably applied.
    let oracle = Engine::new((*engine.db()).clone());
    (&oracle as &dyn BlockService)
        .register_view(&rv.name, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;

    let mut view_relations: Vec<&str> = rv
        .view
        .query()
        .atoms
        .iter()
        .map(|a| a.relation.as_str())
        .collect();
    view_relations.sort_unstable();
    view_relations.dedup();

    // A free loopback port (bind, read, release) and a scratch data dir.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("pick port: {e}"))?
        .port();
    let addr = format!("127.0.0.1:{port}");
    let data_dir = std::env::temp_dir().join(format!("cqc-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut child: Option<std::process::Child> = None;
    let outcome = (|| -> Result<(Vec<String>, Vec<String>), String> {
        let health_budget = Duration::from_secs(20);
        let register = |client: &mut ShardClient| -> Result<(), String> {
            client
                .register(&cqc_net::protocol::RegisterReq {
                    name: rv.name.clone(),
                    query: query_text.clone(),
                    pattern: pattern.clone(),
                    strategy: "auto".into(),
                })
                .map(|_| ())
                .map_err(|e| format!("remote register: {e}"))
        };
        let mut cursor = 0usize;
        let mut gates: Vec<(&str, bool, String)> = Vec::new();
        let mut gate = |name: &'static str, ok: bool, detail: String| {
            println!("  [{}] {name}: {detail}", if ok { "ok" } else { "FAIL" });
            gates.push((name, ok, detail));
        };
        let mut kills = 0u32;
        let mut compared = 0u64;

        // Phase 1: first boot — fresh data dir, oracle-equal epoch.
        child = Some(spawn_serve_child(&addr, &data_dir, gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        gate(
            "first_boot_epoch",
            epochs == vec![oracle.epoch()],
            format!("child at {epochs:?}, oracle at {}", oracle.epoch()),
        );
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, &rv.name, bounds, &mut cursor, 8)?;
        compared += a;
        gate(
            "baseline_exact",
            a > 0 && a == e,
            miss.unwrap_or_else(|| format!("{e}/{a} exact")),
        );

        // Phase 2: a durable update, then kill −9 between updates.
        let mut rng = cqc_workload::rng(31);
        let delta = mixed_delta(&mut rng, &oracle.db(), &view_relations, 4, 2);
        client
            .update(&delta)
            .map_err(|e| format!("update before kill: {e}"))?;
        (&oracle as &dyn BlockService)
            .apply_update(&delta)
            .map_err(|e| e.to_string())?;
        kill_child(&mut child);
        kills += 1;
        child = Some(spawn_serve_child(&addr, &data_dir, gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        gate(
            "kill9_rejoins_at_pre_crash_epoch",
            epochs == vec![oracle.epoch()],
            format!("child at {epochs:?}, oracle at {}", oracle.epoch()),
        );
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, &rv.name, bounds, &mut cursor, 8)?;
        compared += a;
        gate(
            "kill9_streams_exact",
            a > 0 && a == e,
            miss.unwrap_or_else(|| format!("{e}/{a} exact")),
        );

        // Phase 3: kill −9 *mid-apply* — the child aborts after the WAL
        // fsync, before replying. The delta is durable but unacknowledged;
        // the restart must surface it anyway.
        kill_child(&mut child);
        kills += 1;
        child = Some(spawn_serve_child(&addr, &data_dir, gen, Some(1))?);
        let (mut client, _) = connect_healthy(&addr, health_budget)?;
        let delta = mixed_delta(&mut rng, &oracle.db(), &view_relations, 3, 1);
        let update_errored = client.update(&delta).is_err();
        gate(
            "mid_apply_update_unacknowledged",
            update_errored,
            "the aborting child must never acknowledge".into(),
        );
        // The append preceded the abort, so the delta IS on disk: the
        // oracle applies it too. (A real client would probe `health` — an
        // epoch one past the precondition means the update landed.)
        (&oracle as &dyn BlockService)
            .apply_update(&delta)
            .map_err(|e| e.to_string())?;
        kill_child(&mut child); // reap the aborted process
        kills += 1;
        child = Some(spawn_serve_child(&addr, &data_dir, gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        gate(
            "mid_apply_delta_survives",
            epochs == vec![oracle.epoch()],
            format!("child at {epochs:?}, oracle at {}", oracle.epoch()),
        );
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, &rv.name, bounds, &mut cursor, 8)?;
        compared += a;
        gate(
            "mid_apply_streams_exact",
            a > 0 && a == e,
            miss.unwrap_or_else(|| format!("{e}/{a} exact")),
        );

        // Phase 4: torn tail — garbage lands after the last record while
        // the process is dead; recovery truncates it, losing nothing.
        kill_child(&mut child);
        kills += 1;
        let wal = newest_wal(&data_dir)?;
        let valid_len = std::fs::metadata(&wal).map_err(|e| e.to_string())?.len();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&wal)
                .map_err(|e| e.to_string())?;
            f.write_all(&[0xA5u8; 13]).map_err(|e| e.to_string())?;
        }
        child = Some(spawn_serve_child(&addr, &data_dir, gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        let truncated_len = std::fs::metadata(&wal).map_err(|e| e.to_string())?.len();
        gate(
            "torn_tail_truncated",
            truncated_len == valid_len,
            format!("wal {truncated_len} bytes after recovery (valid prefix {valid_len})"),
        );
        gate(
            "torn_tail_epoch_intact",
            epochs == vec![oracle.epoch()],
            format!("child at {epochs:?}, oracle at {}", oracle.epoch()),
        );
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, &rv.name, bounds, &mut cursor, 8)?;
        compared += a;
        gate(
            "torn_tail_streams_exact",
            a > 0 && a == e,
            miss.unwrap_or_else(|| format!("{e}/{a} exact")),
        );

        // Phase 5: recovery is a fixed point — one more restart with
        // nothing new must change nothing.
        kill_child(&mut child);
        kills += 1;
        child = Some(spawn_serve_child(&addr, &data_dir, gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, &rv.name, bounds, &mut cursor, 8)?;
        compared += a;
        gate(
            "restart_idempotent",
            epochs == vec![oracle.epoch()] && a > 0 && a == e,
            miss.unwrap_or_else(|| format!("epoch {epochs:?}, {e}/{a} exact")),
        );

        let failed: Vec<String> = gates
            .iter()
            .filter(|(_, ok, _)| !ok)
            .map(|(name, _, _)| name.to_string())
            .collect();
        println!(
            "bench `{}` [profile recovery]: {kills} kill(-9)s, {compared} answer streams \
             compared, final epoch {}",
            rv.name,
            oracle.epoch()
        );
        let mut fields = vec![
            format!("\"view\": {}", json_string(&rv.name)),
            "\"profile\": \"recovery\"".to_string(),
            format!("\"gen\": {}", json_string(gen)),
            format!("\"kills\": {kills}"),
            format!("\"streams_compared\": {compared}"),
            format!("\"final_epoch\": {}", oracle.epoch()),
        ];
        for (name, ok, _) in &gates {
            fields.push(format!("\"{name}\": {ok}"));
        }
        fields.push(format!("\"recovery_ok\": {}", failed.is_empty()));
        Ok((fields, failed))
    })();

    kill_child(&mut child);
    let _ = std::fs::remove_dir_all(&data_dir);
    let (fields, failed) = outcome?;
    if let Some(path) = json_path {
        write_json_summary(path, &fields)?;
    }
    if !failed.is_empty() {
        return Err(format!(
            "recovery profile self-check failed: {}",
            failed.join(", ")
        ));
    }
    Ok(())
}

/// `threads` must be 1 for profiles that manage their own threading.
fn require_single_threaded(profile: &str, threads: usize) -> Result<(), String> {
    if threads != 1 {
        return Err(format!(
            "--profile {profile} manages its own measurement loop; \
             pass 1 thread, not {threads}"
        ));
    }
    Ok(())
}

/// Best wall time of three runs of `f` — on an oversubscribed host a single
/// measurement is at the mercy of the scheduler; the fastest run reflects
/// the work itself.
fn best_of_3_ns(mut f: impl FnMut() -> Result<u64, String>) -> Result<u64, String> {
    let mut best = u64::MAX;
    for _ in 0..3 {
        best = best.min(f()?);
    }
    Ok(best)
}

/// Assembles `fields` into the flat JSON object every profile writes, and
/// reports the path — the shared tail of all `--json` flows.
fn write_json_summary(path: &str, fields: &[String]) -> Result<(), String> {
    let json = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
    std::fs::write(path, json).map_err(|e| format!("write `{path}`: {e}"))?;
    println!("  wrote JSON summary to {path}");
    Ok(())
}

/// Escapes a string per RFC 8259 (Rust's `{:?}` is close but emits the
/// non-JSON `\u{…}` brace syntax for non-ASCII characters).
fn json_string(s: &str) -> String {
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

/// Hand-rolled JSON fields (the environment has no serde): flat summary
/// for per-commit perf tracking. `wall_ns` is serving-only wall time.
fn serve_json_fields(
    name: &str,
    requests: usize,
    threads: usize,
    wall_ns: u64,
    batch: &BatchStats,
    rebuilds: u64,
    updates: Option<(usize, &UpdateReport, usize)>,
) -> Vec<String> {
    let mut fields = vec![
        format!("\"view\": {}", json_string(name)),
        format!("\"requests\": {requests}"),
        format!("\"threads\": {threads}"),
        format!("\"wall_ns\": {wall_ns}"),
        format!(
            "\"req_per_s\": {:.1}",
            requests as f64 / (wall_ns.max(1) as f64 / 1e9)
        ),
        format!("\"tuples\": {}", batch.tuples),
        format!("\"max_delay_ns\": {}", batch.max_delay_ns),
        format!("\"mean_p99_ns\": {}", batch.mean_p99_ns),
        format!("\"trie_seeks\": {}", batch.trie_seeks),
        format!("\"serve_rebuilds\": {rebuilds}"),
    ];
    if let Some((rounds, u, violations)) = updates {
        fields.push(format!("\"update_rounds\": {rounds}"));
        fields.push(format!("\"delta_tuples\": {}", u.delta_tuples));
        fields.push(format!("\"delta_maintained\": {}", u.maintained));
        fields.push(format!("\"update_rebuilt\": {}", u.rebuilt));
        fields.push(format!("\"update_restamped\": {}", u.restamped));
        fields.push(format!("\"stale_serve_violations\": {violations}"));
        fields.push(format!("\"final_epoch\": {}", u.epoch));
    }
    fields
}
