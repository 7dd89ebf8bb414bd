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
//! ask <name> <v1> <v2> ...             answer one access request (prints
//!                                      each answer, then the count and
//!                                      the counted work)
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
//! stats                                catalog + update counters
//! stats <addr>                         a running server's counters and
//!                                      one row per registered view (the
//!                                      `Stats` frame)
//! demo                                 canned end-to-end tour
//! help | quit
//! ```
//!
//! Strategies: `auto`, `auto:<budget>`, `materialize`, `direct`,
//! `factorized`, `tau:<τ>`, `budget:<exp>`, `decomposed:<exp>`.
//!
//! Measuring lives elsewhere and this binary reads no clock: `ask` reports
//! the work a request counted ([`cqc_common::metrics`]), not its wall time.
//! `benchmark/run.sh` is the repo's one benchmark, and the
//! fault-tolerance, overload and durability verdict harnesses are the
//! `chaos`, `mix` and `recovery` binaries of `cqc-bench` (the last one
//! drives this binary as its `serve --data-dir` child).

use cqc_common::measure::fmt_bytes;
use cqc_common::{metrics, ExistsSink, FnSink, Value};
use cqc_engine::{BlockService, Engine, Policy};
use cqc_net::{ClientConfig, NetServer, NetServerConfig, Router, ShardClient};
use cqc_query::parser::parse_adorned;
use cqc_storage::csv::CsvOptions;
use cqc_storage::{Delta, Partitioning};
use cqc_workload::{graphs, triangle_relations, uniform_relation};
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
    println!("  stats [<addr>]   a running server's counters and view rows, given its address");
    println!("  demo   help   quit");
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
                let before = metrics::snapshot();
                let mut rows = FnSink(|t: &[Value]| {
                    let row: Vec<String> = t.iter().map(|&v| engine.display_value(v)).collect();
                    println!("{}", row.join(", "));
                    true
                });
                let tuples = engine
                    .serve_into(name, &bound, &mut rows)
                    .map_err(|e| e.to_string())?;
                let work = metrics::snapshot().delta_since(&before);
                println!(
                    "-- {tuples} tuples, work {} ({} trie seeks, {} count probes, \
                     {} dict lookups)",
                    work.work(),
                    work.trie_seeks,
                    work.count_probes,
                    work.dict_lookups
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
        "stats" if !rest.is_empty() => {
            let [addr] = rest else {
                return Err("usage: stats [<addr>]".into());
            };
            remote_stats(addr)?;
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
        "demo" => {
            for cmd in [
                "gen social 400 4000 7",
                "register mutual bfb auto \"V(x,y,z) :- R(x,y), R(y,z), R(z,x)\"",
                "explain mutual",
                "ask mutual 9 27",
                "exists mutual 9 27",
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

/// Prints what the server at `addr` answers a `Stats` probe with: one
/// `name value` line per counter, then one line per registered view.
fn remote_stats(addr: &str) -> Result<(), String> {
    let stats = ShardClient::new(addr, ClientConfig::default())
        .stats()
        .map_err(|e| e.to_string())?;
    for (name, value) in &stats.counters {
        println!("{name} {value}");
    }
    for row in &stats.views {
        let epoch = row
            .epoch
            .map_or_else(|| "not resident".to_string(), |e| format!("epoch {e}"));
        println!(
            "view {} ({}): tree {}, dictionary {}, base {}, build work {}, {epoch}",
            row.name,
            row.recipe,
            fmt_bytes(row.tree_bytes as usize),
            fmt_bytes(row.dict_bytes as usize),
            fmt_bytes(row.base_bytes as usize),
            row.build_work
        );
    }
    Ok(())
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
