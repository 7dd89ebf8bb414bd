//! `recovery` — the durability gate: a child `cqe serve --data-dir` process
//! (the `cqe` binary next to this one) driven through scripted kill
//! points, each restart gated on rejoining at the exact pre-crash epoch
//! with answer streams byte-identical to an uninterrupted in-process
//! oracle.
//!
//! The schedule, in order:
//!
//! 1. **first boot** — the child regenerates the dataset
//!    ([`Fixture::gen`]), attaches a fresh data dir, and must come up at
//!    the oracle's epoch; baseline serves must be exact.
//! 2. **kill −9 between updates** — one mixed delta lands durably, then
//!    the process is hard-killed and respawned: it must rejoin at the
//!    post-delta epoch and serve exactly (views re-registered — they are
//!    not persisted, by design).
//! 3. **kill −9 mid-apply** — the respawned child aborts *inside* the
//!    update, after the WAL fsync but before acknowledging (the
//!    worst-case power cut): the client sees an I/O error, yet the next
//!    restart must surface the delta — durable means durable, acked or
//!    not (the epoch probe is how a real client disambiguates, exactly as
//!    with preconditioned updates).
//! 4. **torn tail** — garbage is appended to the WAL while the child is
//!    dead (a torn final write): recovery must truncate it cleanly —
//!    same epoch, same answers, WAL physically back to its valid length.
//! 5. **idempotent restart** — one final kill/restart with nothing new:
//!    recovery of a recovered directory must be a fixed point.
//!
//! The dataset, view and requests are the ones CI has always used
//! (`gen triangle 300 7`, `V(x,y,z) :- R(x,y), S(y,z)` under `bff`, 12
//! witness requests); the only argument is `--json=<path>`.

use cqc_bench::{harness_main, Fixture};
use cqc_common::measure::{json_string, write_json_summary};
use cqc_common::AnswerBlock;
use cqc_engine::{BlockService, Engine};
use cqc_net::{ClientConfig, ShardClient};
use cqc_workload::{mixed_delta, view_relations};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The registered name of the view under test.
const VIEW: &str = "V";

fn main() {
    harness_main(|json_path| {
        let fixture = Fixture::triangle(300, "V(x,y,z) :- R(x,y), S(y,z)", "bff", 12)?;
        recovery(&fixture, json_path)
    });
}

/// Spawns a child `cqe` that regenerates the dataset and serves it on
/// `addr` backed by `data_dir`; with `crash_after`, the durability layer
/// aborts the process (simulated power cut) right after the n-th WAL
/// append — durable on disk, never acknowledged to the client.
fn spawn_serve_child(
    addr: &str,
    data_dir: &Path,
    gen: &str,
    crash_after: Option<u64>,
) -> Result<Child, String> {
    let cqe = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name(format!("cqe{}", std::env::consts::EXE_SUFFIX));
    let mut cmd = Command::new(&cqe);
    cmd.arg("-e")
        .arg(format!("gen {gen}"))
        .arg("-e")
        .arg(format!("serve {addr} --data-dir={}", data_dir.display()))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(n) = crash_after {
        cmd.env(cqc_durable::CRASH_AFTER_APPENDS_ENV, n.to_string());
    }
    cmd.spawn().map_err(|e| {
        format!(
            "spawn child {}: {e} (build it into the same directory first: \
             cargo build --release -p cqc-net --bin cqe)",
            cqe.display()
        )
    })
}

/// Hard-kills a child (SIGKILL — no destructors, no flush) and reaps it.
fn kill_child(child: &mut Option<Child>) {
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
        match client.serve_with_sink(view, bound, &mut got) {
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
fn newest_wal(dir: &Path) -> Result<PathBuf, String> {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
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

fn recovery(fixture: &Fixture, json_path: Option<&str>) -> Result<(), String> {
    let bounds = &fixture.bounds[..];
    let query_text = fixture.view.query().to_string();
    let pattern = fixture.view.pattern();

    // The uninterrupted oracle: same database, same view, updated in
    // lockstep with what the child durably applied.
    let oracle = Engine::new(fixture.db.clone());
    (&oracle as &dyn BlockService)
        .register_view(VIEW, &query_text, &pattern, "auto")
        .map_err(|e| e.to_string())?;

    let view_relations = view_relations(&fixture.view);

    // A free loopback port (bind, read, release) and a scratch data dir.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("pick port: {e}"))?
        .port();
    let addr = format!("127.0.0.1:{port}");
    let data_dir = std::env::temp_dir().join(format!("cqc-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut child: Option<Child> = None;
    let outcome = (|| -> Result<(Vec<String>, Vec<String>), String> {
        let health_budget = Duration::from_secs(20);
        let register = |client: &mut ShardClient| -> Result<(), String> {
            client
                .register(&cqc_net::protocol::RegisterReq {
                    name: VIEW.into(),
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
        child = Some(spawn_serve_child(&addr, &data_dir, &fixture.gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        gate(
            "first_boot_epoch",
            epochs == vec![oracle.epoch()],
            format!("child at {epochs:?}, oracle at {}", oracle.epoch()),
        );
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, VIEW, bounds, &mut cursor, 8)?;
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
            .update(&delta, None)
            .map_err(|e| format!("update before kill: {e}"))?;
        (&oracle as &dyn BlockService)
            .apply_update(&delta)
            .map_err(|e| e.to_string())?;
        kill_child(&mut child);
        kills += 1;
        child = Some(spawn_serve_child(&addr, &data_dir, &fixture.gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        gate(
            "kill9_rejoins_at_pre_crash_epoch",
            epochs == vec![oracle.epoch()],
            format!("child at {epochs:?}, oracle at {}", oracle.epoch()),
        );
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, VIEW, bounds, &mut cursor, 8)?;
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
        child = Some(spawn_serve_child(&addr, &data_dir, &fixture.gen, Some(1))?);
        let (mut client, _) = connect_healthy(&addr, health_budget)?;
        let delta = mixed_delta(&mut rng, &oracle.db(), &view_relations, 3, 1);
        let update_errored = client.update(&delta, None).is_err();
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
        child = Some(spawn_serve_child(&addr, &data_dir, &fixture.gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        gate(
            "mid_apply_delta_survives",
            epochs == vec![oracle.epoch()],
            format!("child at {epochs:?}, oracle at {}", oracle.epoch()),
        );
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, VIEW, bounds, &mut cursor, 8)?;
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
        child = Some(spawn_serve_child(&addr, &data_dir, &fixture.gen, None)?);
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
            recovery_serve_check(&mut client, &oracle, VIEW, bounds, &mut cursor, 8)?;
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
        child = Some(spawn_serve_child(&addr, &data_dir, &fixture.gen, None)?);
        let (mut client, epochs) = connect_healthy(&addr, health_budget)?;
        register(&mut client)?;
        let (a, e, miss) =
            recovery_serve_check(&mut client, &oracle, VIEW, bounds, &mut cursor, 8)?;
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
            "recovery `{VIEW}`: {kills} kill(-9)s, {compared} answer streams compared, \
             final epoch {}",
            oracle.epoch()
        );
        let mut fields = vec![
            format!("\"view\": {}", json_string(VIEW)),
            "\"profile\": \"recovery\"".to_string(),
            format!("\"gen\": {}", json_string(&fixture.gen)),
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
        return Err(format!("recovery self-check failed: {}", failed.join(", ")));
    }
    Ok(())
}
