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
//! Measuring lives elsewhere: `benchmark/run.sh` is the repo's one
//! benchmark, and the fault-tolerance, overload and durability verdict
//! harnesses are the `chaos`, `mix` and `recovery` binaries of `cqc-bench`
//! (the last one drives this binary as its `serve --data-dir` child).

use cqc_common::measure::{
    fmt_bytes, fmt_ns, json_string, write_json_summary, BatchStats, DelayProbe,
};
use cqc_common::{AnswerBlock, ExistsSink, FnSink, Value};
use cqc_engine::{stripe_requests, BlockService, Engine, Policy, UpdateReport};
use cqc_join::naive::evaluate_view;
use cqc_net::{ClientConfig, NetServer, NetServerConfig, Router};
use cqc_query::parser::parse_adorned;
use cqc_storage::csv::CsvOptions;
use cqc_storage::{Delta, Partitioning};
use cqc_workload::{
    graphs, mixed_delta, random_requests, triangle_relations, uniform_relation, view_relations,
    witness_requests,
};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

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
    println!("        [--with-updates[=<rounds>]] [--json=<path>]");
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
                let mut probe = ExistsSink::default();
                engine
                    .serve_into(name, &bound, &mut probe)
                    .map_err(|e| e.to_string())?;
                println!("{}", probe.found);
            } else {
                let mut probe = DelayProbe::start();
                let mut rows = FnSink(|t: &[Value]| {
                    let row: Vec<String> = t.iter().map(|&v| engine.display_value(v)).collect();
                    println!("{}", row.join(", "));
                    probe.tick();
                    true
                });
                engine
                    .serve_into(name, &bound, &mut rows)
                    .map_err(|e| e.to_string())?;
                let delay = probe.finish();
                println!(
                    "-- {} tuples in {} (max delay {})",
                    delay.tuples,
                    fmt_ns(delay.total_ns),
                    fmt_ns(delay.max_ns)
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
                "index store: {} indexes, {} resident (each once), {} hits, {} builds, \
                 {} merges",
                s.index_store_indexes,
                fmt_bytes(s.index_store_bytes),
                s.index_store_hits,
                s.index_store_builds,
                s.index_store_merges
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
            let (relations, domain) = triangle_relations(seed, rows);
            for r in relations {
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

/// Options accepted by `bench` after the positional arguments.
struct BenchOpts {
    seed: u64,
    witness: bool,
    /// `Some(rounds)` to interleave delta application with serving.
    updates: Option<usize>,
    json_path: Option<String>,
}

fn parse_bench_opts(opts: &[String]) -> Result<BenchOpts, String> {
    let mut parsed = BenchOpts {
        seed: 7,
        witness: true,
        updates: None,
        json_path: None,
    };
    let mut positional = 0usize;
    for opt in opts {
        if let Some(flag) = opt.strip_prefix("--") {
            let (key, val) = match flag.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (flag, None),
            };
            match key {
                "with-updates" => {
                    let rounds = match val {
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
                    parsed.json_path = Some(path.to_string());
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
    Ok(parsed)
}

/// Cross-checks a few served streams against the naive oracle on the
/// current snapshot; any divergence — a missing, a stale or a repeated
/// answer — is a stale-serve violation. The stream is sorted, because a
/// Theorem 2 view serves in pre-order of its bags, and never deduplicated.
fn stale_serve_violations(
    engine: &Engine,
    rv: &cqc_engine::RegisteredView,
    probes: &[Vec<Value>],
) -> Result<usize, String> {
    let db = engine.db();
    let mut violations = 0;
    let mut served = AnswerBlock::new();
    for bound in probes {
        let expect = evaluate_view(&rv.view, &db, bound).map_err(|e| e.to_string())?;
        served.clear();
        engine
            .serve_into(&rv.name, bound, &mut served)
            .map_err(|e| e.to_string())?;
        let mut got = served.to_tuples();
        got.sort_unstable();
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
    let requests = if opts.witness {
        witness_requests(&mut rng, &rv.view, &engine.db(), n_req)
    } else {
        random_requests(&mut rng, &rv.view, &engine.db(), n_req)
    };

    let view_relations = view_relations(&rv.view);

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
    let mut measure = |engine: &Engine, reqs: &[Vec<Value>]| -> Result<(), String> {
        // A probe at the sink retains no tuples, so the reported gaps are
        // the §2.3 delay between answers as served, not Vec reallocs.
        let t0 = std::time::Instant::now();
        let measured = stripe_requests(reqs.len(), threads, |i| {
            let mut probe = DelayProbe::start();
            engine.serve_into(name, &reqs[i], &mut probe)?;
            Ok(probe.finish())
        })
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
                    let next = chunks.peek().unwrap();
                    violations += stale_serve_violations(engine, &rv, &next[..next.len().min(3)])?;
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
