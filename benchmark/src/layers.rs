//! The traced run: per-layer readings taken by peeling the stack.
//!
//! Each depth replays the request list through that depth's public entry
//! point, in the client thread, and records one span per request (and per
//! shard, where the depth is per shard). See [`crate::trace`] for how the
//! spans turn into self times.

use crate::client::{self, nanos, ChurnOp, Expected, Pass, TimingSink};
use crate::deploy::{shard_count, Deployment, Topology};
use crate::metrics::Values;
use crate::scenario::{partition_spec, DeltaPair, Request, Scenario, VIEWS};
use crate::stats;
use crate::trace::Trace;
use cqc_common::error::Result;
use cqc_common::frame::{decode_chunk_into, encode_chunk, PayloadWriter};
use cqc_common::{metrics as work, AnswerBlock, AnswerSink, BlockMerger, HeapSize, Value};
use cqc_core::{CompressedView, MaintainOutcome};
use cqc_durable::DurableStore;
use cqc_engine::{policy, BlockService, Engine, Policy, ShardedBlocks, ShardedEngine};
use cqc_net::{ClientConfig, Router, ServerHandle, ShardClient};
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::{IndexPool, Partitioning, SortedIndex};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Requests with no answers, for the fixed cost of a request.
const OVERHEAD_PROBES: usize = 200;
/// A node id outside every relation's domain.
const ABSENT: Value = u64::MAX - 7;
/// Answers per chunk frame, as `NetServerConfig::default()` sends them.
const CHUNK_TUPLES: usize = 1024;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn p50_us(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    stats::percentile(samples, 0.5) as f64 / 1e3
}

/// A view built outside any engine, for the layers that take one.
pub struct Built {
    pub view: AdornedView,
    pub representation: CompressedView,
}

/// The build stack, peeled on the unsharded database: index sort,
/// partitioning, strategy selection, representation build, and a whole
/// `Engine::register` to hold them against.
pub fn build_peel(
    s: &Scenario,
    views: &[usize],
    topology: Topology,
    v: &mut Values,
) -> Result<Vec<Built>> {
    v.set("workload.gen_ms", s.gen_ms);

    let t = Instant::now();
    for relation in s.db.relations() {
        black_box(SortedIndex::build(relation, &[0, 1]));
    }
    v.set("storage.index_build_ms", ms(t));

    if topology != Topology::Durable {
        let t = Instant::now();
        black_box(Partitioning::new(partition_spec(), shard_count())?.split_database(&s.db)?);
        v.set("storage.partition_ms", ms(t));
    }

    let phases_before = work::build_phases();
    let solves_before = policy::selection_solves();
    let (mut select_ms, mut build_ms) = (0.0, 0.0);
    let mut built = Vec::new();
    for &view_index in views {
        let def = &VIEWS[view_index];
        let view = parse_adorned(def.query, def.pattern)?;
        let mut pool = IndexPool::new();
        let t = Instant::now();
        let selection =
            policy::select_pooled(&view, &s.db, &Policy::parse(def.strategy)?, &mut pool)?;
        select_ms += ms(t);
        let t = Instant::now();
        let representation =
            CompressedView::build_pooled(&view, &s.db, selection.strategy, &mut pool)?;
        build_ms += ms(t);

        let bytes = representation.heap_bytes() as f64;
        match (def.name, &representation) {
            ("tri_lo" | "tri_hi", CompressedView::Tradeoff(t1)) => {
                let stats = t1.stats();
                v.set(&format!("core.rep_bytes.{}", def.name), bytes);
                v.set(
                    &format!("core.dict_entries.{}", def.name),
                    stats.dict_entries as f64,
                );
                v.set(
                    &format!("core.tree_nodes.{}", def.name),
                    stats.tree_nodes as f64,
                );
            }
            ("p3", _) => v.set("core.rep_bytes.p3", bytes),
            ("p2", _) => v.set("factorized.rep_bytes", bytes),
            _ => {}
        }
        built.push(Built {
            view,
            representation,
        });
    }
    let phases = work::build_phases().delta_since(&phases_before);
    v.set("engine.select_ms", select_ms);
    v.set(
        "engine.select_solves",
        (policy::selection_solves() - solves_before) as f64,
    );
    v.set("lp.solve_ms", phases.lp_ns as f64 / 1e6);
    v.set("core.build_ms", build_ms);
    v.set("core.build.sort_ms", phases.sort_ns as f64 / 1e6);
    v.set("core.build.index_ms", phases.index_ns as f64 / 1e6);
    v.set("core.build.dict_ms", phases.dict_ns as f64 / 1e6);

    let engine = Engine::new(s.db.clone());
    let t = Instant::now();
    for &view_index in views {
        let def = &VIEWS[view_index];
        engine.register_view(def.name, def.query, def.pattern, def.strategy)?;
    }
    let register_ms = ms(t);
    v.set("engine.register_ms", register_ms);
    v.set(
        "engine.register.overhead_ms",
        (register_ms - select_ms - build_ms).max(0.0),
    );
    Ok(built)
}

/// One timed interval of a replay.
type Interval = (Instant, Instant);

/// Replays per depth. Parent and child spans come from different
/// replays, so a single stall in either would read as time the peel
/// cannot place; each depth is therefore replayed three times over the
/// whole list and the span kept for a request is its second-fastest.
pub const DEPTH_REPLAYS: usize = 3;

/// Replays one depth over every `(request, lane)` pair, whole list at a
/// time, and keeps each pair's second-fastest interval.
fn replay_depth(
    requests: usize,
    lanes: usize,
    mut call: impl FnMut(usize, usize) -> Result<Interval>,
) -> Result<Vec<Vec<Interval>>> {
    let mut replays: Vec<Vec<Vec<Interval>>> = Vec::with_capacity(DEPTH_REPLAYS);
    for _ in 0..DEPTH_REPLAYS {
        let mut one = Vec::with_capacity(requests);
        for r in 0..requests {
            one.push((0..lanes).map(|s| call(r, s)).collect::<Result<Vec<_>>>()?);
        }
        replays.push(one);
    }
    Ok((0..requests)
        .map(|r| {
            (0..lanes)
                .map(|s| {
                    let mut candidates: Vec<Interval> =
                        replays.iter().map(|replay| replay[r][s]).collect();
                    candidates.sort_unstable_by_key(|&i| nanos(i));
                    candidates[1.min(candidates.len() - 1)]
                })
                .collect()
        })
        .collect())
}

/// Records one span per kept interval; returns the ids, `[request][lane]`.
fn record_depth(
    trace: &mut Trace,
    name: &'static str,
    kept: &[Vec<Interval>],
    parent: impl Fn(usize, usize) -> Option<u32>,
) -> Vec<Vec<u32>> {
    kept.iter()
        .enumerate()
        .map(|(r, lanes)| {
            lanes
                .iter()
                .enumerate()
                .map(|(s, &(start, end))| trace.record(name, start, end, parent(r, s), r as u32))
                .collect()
        })
        .collect()
}

/// The top depth: the service call the client makes, replayed like every
/// other depth. Returns the traced passes (for the tracing overhead) and
/// the root span ids.
pub fn root_depth(
    service: &dyn BlockService,
    requests: &[Request],
    expected: &Expected,
    root_name: &'static str,
    trace: &mut Trace,
) -> Result<(Vec<Pass>, Vec<u32>)> {
    let mut passes: Vec<Pass> = (0..DEPTH_REPLAYS).map(|_| Pass::default()).collect();
    let mut issued = 0;
    let kept = replay_depth(requests.len(), 1, |r, _| {
        let pass = &mut passes[issued / requests.len()];
        issued += 1;
        Ok(client::timed_request(
            service,
            &requests[r],
            expected.answers[r],
            pass,
        ))
    })?;
    let roots = record_depth(trace, root_name, &kept, |_, _| None);
    Ok((passes, roots.into_iter().map(|lanes| lanes[0]).collect()))
}

/// Tracks the largest amount of work between two consecutive answers —
/// the host-independent reading of the delay τ bounds.
struct DelayWorkSink {
    last: u64,
    max_gap: u64,
}

impl AnswerSink for DelayWorkSink {
    #[inline]
    fn push(&mut self, _tuple: &[Value]) -> bool {
        let now = work::snapshot().work();
        self.max_gap = self.max_gap.max(now - self.last);
        self.last = now;
        true
    }
}

/// The two depths every deployment ends in. `engine.serve` is
/// `Engine::serve_into` on each shard engine into a reused block;
/// `core.enumerate` is the bare enumerator, timed from inside
/// `with_view_enumerator` so catalog lookup stays in the depth above. An
/// untimed replay then reads the work counters.
fn engine_depths(
    shards: &[&Engine],
    requests: &[Request],
    expected: &Expected,
    parent: impl Fn(usize, usize) -> Option<u32>,
    trace: &mut Trace,
    v: &mut Values,
) -> Result<()> {
    let answers = expected.total_answers().max(1) as f64;
    let mut block = AnswerBlock::new();
    let served = replay_depth(requests.len(), shards.len(), |r, s| {
        block.reset();
        let start = Instant::now();
        shards[s].serve_into(VIEWS[requests[r].view].name, &requests[r].bound, &mut block)?;
        Ok((start, Instant::now()))
    })?;
    let serve_spans = record_depth(trace, "engine.serve", &served, parent);

    let mut first_ns = Vec::with_capacity(DEPTH_REPLAYS * requests.len() * shards.len());
    let allocs_before = cqc_common::alloc::snapshot();
    let enumerated = replay_depth(requests.len(), shards.len(), |r, s| {
        let mut sink = TimingSink::default();
        let interval = shards[s].with_view_enumerator(VIEWS[requests[r].view].name, |e| {
            let start = Instant::now();
            e.answer_into(&requests[r].bound, &mut sink)
                .map(|()| (start, Instant::now()))
        })??;
        first_ns.push(sink.first.map_or(nanos(interval), |f| {
            f.duration_since(interval.0).as_nanos() as u64
        }));
        Ok(interval)
    })?;
    let allocs = cqc_common::alloc::snapshot().allocations_since(&allocs_before);
    record_depth(trace, "core.enumerate", &enumerated, |r, s| {
        Some(serve_spans[r][s])
    });
    v.set(
        "core.enum.allocs_per_answer",
        allocs as f64 / (DEPTH_REPLAYS as f64 * answers),
    );
    v.set("core.enum.first_answer_us_p50", p50_us(&mut first_ns));
    let (mut p2_ns, mut p2_answers) = (0u64, 0usize);
    for (r, request) in requests.iter().enumerate() {
        if VIEWS[request.view].name == "p2" {
            p2_ns += enumerated[r].iter().map(|&i| nanos(i)).max().unwrap_or(0);
            p2_answers += expected.answers[r];
        }
    }
    v.set(
        "factorized.enum.ns_per_answer",
        p2_ns as f64 / p2_answers.max(1) as f64,
    );

    let before = work::snapshot();
    let mut delay_max = [0u64; VIEWS.len()];
    for request in requests {
        for engine in shards {
            let gap = engine.with_view_enumerator(VIEWS[request.view].name, |e| {
                let mut sink = DelayWorkSink {
                    last: work::snapshot().work(),
                    max_gap: 0,
                };
                e.answer_into(&request.bound, &mut sink)
                    .map(|()| sink.max_gap)
            })??;
            delay_max[request.view] = delay_max[request.view].max(gap);
        }
    }
    let done = work::snapshot().delta_since(&before);
    v.set("core.enum.work_per_answer", done.work() as f64 / answers);
    v.set("join.seeks_per_answer", done.trie_seeks as f64 / answers);
    v.set("core.enum.delay_work_max.tri_lo", delay_max[0] as f64);
    v.set("core.enum.delay_work_max.tri_hi", delay_max[1] as f64);
    engine_request_overhead(shards[0], requests[0].view, v)
}

/// The fixed cost of a request at the engine: one that binds a value no
/// relation holds, so nothing is enumerated.
fn engine_request_overhead(engine: &Engine, view: usize, v: &mut Values) -> Result<()> {
    let bound = vec![ABSENT; VIEWS[view].pattern.matches('b').count()];
    let mut block = AnswerBlock::new();
    let mut samples = Vec::with_capacity(OVERHEAD_PROBES);
    for _ in 0..OVERHEAD_PROBES {
        let t = Instant::now();
        engine.serve_into(VIEWS[view].name, &bound, &mut block)?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    v.set("engine.serve.request_overhead_us_p50", p50_us(&mut samples));
    Ok(())
}

/// Fills `blocks` with what each shard engine enumerates for `request`,
/// off the clock: the input of a merge or codec replay.
fn fill_blocks(shards: &[&Engine], request: &Request, blocks: &mut [AnswerBlock]) -> Result<()> {
    for (engine, block) in shards.iter().zip(blocks) {
        block.reset();
        engine.serve_into(VIEWS[request.view].name, &request.bound, block)?;
    }
    Ok(())
}

/// `common.merge` depth: the k-way merge of the per-shard blocks alone.
fn merge_depth(
    shards: &[&Engine],
    requests: &[Request],
    roots: &[u32],
    trace: &mut Trace,
) -> Result<()> {
    let mut blocks: Vec<AnswerBlock> = shards.iter().map(|_| AnswerBlock::new()).collect();
    let mut merger = BlockMerger::new();
    let merged = replay_depth(requests.len(), 1, |r, _| {
        fill_blocks(shards, &requests[r], &mut blocks)?;
        let refs: Vec<&AnswerBlock> = blocks.iter().collect();
        let mut sink = TimingSink::default();
        let start = Instant::now();
        merger.merge_into(&refs, &mut sink);
        Ok((start, Instant::now()))
    })?;
    record_depth(trace, "common.merge", &merged, |r, _| Some(roots[r]));
    Ok(())
}

/// Peels `scan-local`: service → fan-out + merge → engine → enumerator.
pub fn peel_local(
    sharded: &ShardedEngine,
    requests: &[Request],
    expected: &Expected,
    roots: &[u32],
    trace: &mut Trace,
    v: &mut Values,
) -> Result<()> {
    let shards: Vec<&Engine> = (0..sharded.num_shards())
        .map(|s| sharded.shard(s))
        .collect();
    let mut scratch = ShardedBlocks::new();
    let fanned = replay_depth(requests.len(), 1, |r, _| {
        let bounds = [requests[r].bound.clone()];
        let start = Instant::now();
        sharded.serve_blocks_into(VIEWS[requests[r].view].name, &bounds, &mut scratch)?;
        Ok((start, Instant::now()))
    })?;
    let fan_outs = record_depth(trace, "sharded.fan_out", &fanned, |r, _| Some(roots[r]));
    merge_depth(&shards, requests, roots, trace)?;
    engine_depths(
        &shards,
        requests,
        expected,
        |r, _| Some(fan_outs[r][0]),
        trace,
        v,
    )
}

/// The fleet's parts, borrowed from its deployment.
pub struct Fleet<'a> {
    pub router: &'a Router,
    pub servers: &'a [ServerHandle],
    pub engines: Vec<&'a Engine>,
}

/// Peels a fleet workload: router → per-shard wire serve + merge →
/// chunk encode / decode / engine → enumerator.
pub fn peel_fleet(
    fleet: &Fleet<'_>,
    requests: &[Request],
    expected: &Expected,
    roots: &[u32],
    trace: &mut Trace,
    v: &mut Values,
) -> Result<()> {
    let shards = &fleet.engines;
    let mut clients: Vec<ShardClient> = fleet
        .servers
        .iter()
        .map(|s| ShardClient::new(s.addr().to_string(), ClientConfig::default()))
        .collect();
    let mut block = AnswerBlock::new();
    let wired = replay_depth(requests.len(), shards.len(), |r, s| {
        block.reset();
        let start = Instant::now();
        clients[s].serve_with_sink(VIEWS[requests[r].view].name, &requests[r].bound, &mut block)?;
        Ok((start, Instant::now()))
    })?;
    let shard_spans = record_depth(trace, "net.shard_serve", &wired, |r, _| Some(roots[r]));

    // The chunk codec alone, on what crosses the wire: each shard's
    // block, cut into chunks the size the server sends.
    let mut payload = PayloadWriter::new();
    let mut decoded = AnswerBlock::new();
    let (mut chunk_bytes, mut chunk_answers) = (0u64, 0u64);
    let mut codec = |decode: bool| {
        replay_depth(requests.len(), shards.len(), |r, s| {
            block.reset();
            shards[s].serve_into(VIEWS[requests[r].view].name, &requests[r].bound, &mut block)?;
            decoded.reset();
            let started = Instant::now();
            let mut timed_ns = 0u64;
            for from in (0..block.len()).step_by(CHUNK_TUPLES) {
                let count = CHUNK_TUPLES.min(block.len() - from);
                let t = Instant::now();
                encode_chunk(payload.start(), &block, from, count);
                if !decode {
                    timed_ns += t.elapsed().as_nanos() as u64;
                    chunk_bytes += payload.bytes().len() as u64;
                }
                let t = Instant::now();
                decode_chunk_into(payload.bytes(), &mut decoded)?;
                if decode {
                    timed_ns += t.elapsed().as_nanos() as u64;
                }
            }
            if !decode {
                chunk_answers += block.len() as u64;
            }
            // The timed calls interleave with untimed ones; the span is
            // their total, laid down from where the replay began.
            Ok((started, started + std::time::Duration::from_nanos(timed_ns)))
        })
    };
    let encoded = codec(false)?;
    let decoded_spans = codec(true)?;
    record_depth(trace, "frame.encode", &encoded, |r, s| {
        Some(shard_spans[r][s])
    });
    record_depth(trace, "frame.decode", &decoded_spans, |r, s| {
        Some(shard_spans[r][s])
    });
    v.set(
        "common.frame.bytes_per_answer",
        chunk_bytes as f64 / chunk_answers.max(1) as f64,
    );

    merge_depth(shards, requests, roots, trace)?;
    engine_depths(
        shards,
        requests,
        expected,
        |r, s| Some(shard_spans[r][s]),
        trace,
        v,
    )?;

    // Fixed costs of the wire: a health round trip, and an empty request
    // through the router with the bytes it moved both ways.
    let mut rtt = Vec::with_capacity(OVERHEAD_PROBES);
    for _ in 0..OVERHEAD_PROBES {
        let t = Instant::now();
        clients[0].health()?;
        rtt.push(t.elapsed().as_nanos() as u64);
    }
    v.set("net.rtt_us_p50", p50_us(&mut rtt));
    let view = requests[0].view;
    let bound = vec![ABSENT; VIEWS[view].pattern.matches('b').count()];
    let (rx0, tx0) = fleet.router.wire_bytes();
    let mut empty = Vec::with_capacity(OVERHEAD_PROBES);
    for _ in 0..OVERHEAD_PROBES {
        let mut sink = TimingSink::default();
        let t = Instant::now();
        fleet
            .router
            .serve_into(VIEWS[view].name, &bound, &mut sink)?;
        empty.push(t.elapsed().as_nanos() as u64);
    }
    let (rx1, tx1) = fleet.router.wire_bytes();
    v.set("net.request.overhead_us_p50", p50_us(&mut empty));
    v.set(
        "net.wire_bytes_per_request",
        ((rx1 - rx0) + (tx1 - tx0)) as f64 / OVERHEAD_PROBES as f64,
    );
    Ok(())
}

/// Fleet counters that should read zero on these workloads: sheds,
/// retries and failovers.
pub fn fleet_counters(fleet: &Fleet<'_>, v: &mut Values) {
    let (mut shed, mut attempts) = (0u64, 0u64);
    for server in fleet.servers {
        let a = server.admission_stats();
        shed += a.shed_total();
        attempts += a.attempts();
    }
    v.set(
        "net.admission.shed_share",
        shed as f64 / attempts.max(1) as f64,
    );
    let stats = fleet.router.fleet_stats().groups;
    v.set("net.retries", (stats.budget_spent + stats.hedges) as f64);
    v.set("net.failovers", stats.failovers as f64);
}

/// One traced churn pass, peeled as it goes: before each real update its
/// stages are replayed on copies (database apply, a WAL append to a
/// scratch store, maintenance of every representation), and each read is
/// replayed through the bare enumerator.
#[allow(clippy::too_many_arguments)]
pub fn peel_churn(
    engine: &Engine,
    deltas: &[DeltaPair],
    reads: &[Request],
    expected: &Expected,
    built: &[Built],
    scratch_dir: &Path,
    trace: &mut Trace,
    v: &mut Values,
) -> Result<Pass> {
    let store = DurableStore::create(scratch_dir)?;
    store.checkpoint(&engine.db())?;
    let (mut apply_ns, mut log_ns, mut maintain_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wal_bytes, mut wal_tuples) = (0u64, 0u64);
    let mut pass = Pass::default();
    let mut first_ns = Vec::with_capacity(reads.len());
    let (mut enum_work, mut enum_seeks, mut enum_allocs) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for op in client::churn_ops(deltas, reads) {
        let (i, request, follows_update) = match op {
            ChurnOp::Read {
                index,
                request,
                follows_update,
            } => (index, request, follows_update),
            ChurnOp::Update { step, delta } => {
                let request_id = (reads.len() + step) as u32;
                // Stage replays, on copies, before the update they mirror.
                let before = engine.db();
                let start = Instant::now();
                let mut after = (*before).clone();
                let epoch = after.apply(delta)?;
                let applied = Instant::now();
                let offset = store.wal_offset();
                let log_start = Instant::now();
                store.log(epoch, delta)?;
                let logged = Instant::now();
                wal_bytes += store.wal_offset() - offset;
                wal_tuples += delta.total_tuples() as u64;
                // Forward steps maintain the base representations; an
                // inverse step would need the maintained ones, which the
                // forward replay just produced.
                let forward = step % 2 == 0;
                let maintain_start = Instant::now();
                let mut maintained: Vec<Option<Box<CompressedView>>> = Vec::new();
                if forward {
                    for b in built {
                        maintained.push(
                            match b.representation.maintain(&b.view, &after, delta)? {
                                MaintainOutcome::Maintained { view, .. } => Some(view),
                                _ => None,
                            },
                        );
                    }
                }
                let maintained_at = Instant::now();

                let (u0, u1) = client::timed_update(engine, delta, &mut pass);
                let root = trace.record("engine.update", u0, u1, None, request_id);
                trace.record("storage.apply", start, applied, Some(root), request_id);
                trace.record("durable.log", log_start, logged, Some(root), request_id);
                apply_ns.push(nanos((start, applied)));
                log_ns.push(nanos((log_start, logged)));
                if forward {
                    trace.record(
                        "core.maintain",
                        maintain_start,
                        maintained_at,
                        Some(root),
                        request_id,
                    );
                    maintain_ns.push(nanos((maintain_start, maintained_at)));
                }
                continue;
            }
        };
        let name = VIEWS[request.view].name;
        let (start, end) = client::timed_request(engine, request, expected.answers[i], &mut pass);
        let root = trace.record("engine.serve", start, end, None, i as u32);
        if follows_update {
            pass.read_after_update_ns.push(nanos((start, end)));
        }
        let mut replay = TimingSink::default();
        let (work_before, allocs_before) = (work::snapshot(), cqc_common::alloc::snapshot());
        let (start, end) = engine.with_view_enumerator(name, |e| {
            let start = Instant::now();
            e.answer_into(&request.bound, &mut replay)
                .map(|()| (start, Instant::now()))
        })??;
        enum_allocs += cqc_common::alloc::snapshot().allocations_since(&allocs_before);
        let done = work::snapshot().delta_since(&work_before);
        enum_work += done.work();
        enum_seeks += done.trie_seeks;
        trace.record("core.enumerate", start, end, Some(root), i as u32);
        first_ns.push(replay.first.map_or(nanos((start, end)), |f| {
            f.duration_since(start).as_nanos() as u64
        }));
    }
    client::timed_checkpoint(engine, &mut pass);
    pass.wall_s = t0.elapsed().as_secs_f64();

    let answers = pass.answers.max(1) as f64;
    v.set("core.enum.first_answer_us_p50", p50_us(&mut first_ns));
    v.set("core.enum.work_per_answer", enum_work as f64 / answers);
    v.set("join.seeks_per_answer", enum_seeks as f64 / answers);
    v.set("core.enum.allocs_per_answer", enum_allocs as f64 / answers);
    v.set("storage.apply_us_p50", p50_us(&mut apply_ns));
    v.set("durable.log_us_p50", p50_us(&mut log_ns));
    v.set("core.maintain.us_p50", p50_us(&mut maintain_ns));
    v.set(
        "durable.wal_bytes_per_delta_tuple",
        wal_bytes as f64 / wal_tuples.max(1) as f64,
    );
    engine_request_overhead(engine, reads[0].view, v)?;
    Ok(pass)
}

/// Update latencies, pooled over every pass of the run: one pass has too
/// few updates for a tail.
pub fn update_metrics(passes: &[Pass], v: &mut Values) {
    let pooled = |series: fn(&Pass) -> &Vec<u64>| {
        let mut all: Vec<u64> = passes
            .iter()
            .flat_map(|p| series(p).iter().copied())
            .collect();
        all.sort_unstable();
        all
    };
    let updates = pooled(|p| &p.update_ns);
    if updates.is_empty() {
        return;
    }
    let us = |sorted: &[u64], q| stats::percentile(sorted, q) as f64 / 1e3;
    v.set("update_p50_us", us(&updates, 0.5));
    if stats::supports(updates.len(), 0.9) {
        v.set("update_p90_us", us(&updates, 0.9));
    }
    v.set(
        "engine.read_after_update_us_p50",
        us(&pooled(|p| &p.read_after_update_ns), 0.5),
    );
    let checkpoints_ms: Vec<f64> = pooled(|p| &p.checkpoint_ns)
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    v.set("durable.checkpoint_ms", stats::median(&checkpoints_ms));
}

/// Catalog counters of every shard engine, and what updates did to the
/// catalog where there were updates.
pub fn engine_counters(deployment: &Deployment, v: &mut Values) {
    let (mut hits, mut misses, mut builds) = (0u64, 0u64, 0u64);
    for engine in deployment.shard_engines() {
        let c = engine.catalog_stats();
        hits += c.hits;
        misses += c.misses;
        builds += c.builds;
    }
    v.set(
        "engine.catalog.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set("engine.catalog.builds", builds as f64);
    if let Deployment::Durable { engine, .. } = deployment {
        let u = engine.update_stats();
        let reconciled = (u.maintained + u.rebuilt + u.restamped).max(1) as f64;
        v.set(
            "engine.update.maintained_share",
            u.maintained as f64 / reconciled,
        );
        v.set("engine.update.rebuilt_share", u.rebuilt as f64 / reconciled);
        v.set(
            "engine.update.restamped_share",
            u.restamped as f64 / reconciled,
        );
    }
}

/// Turns the waterfall's per-layer self times into the per-answer
/// metrics of whichever layers the workload has.
pub fn waterfall_metrics(trace: &Trace, answers: u64, v: &mut Values) {
    let w = trace.waterfall();
    let per_answer = |ns: u64| ns as f64 / answers.max(1) as f64;
    v.set("trace.unattributed_share", w.unattributed_share());
    v.set(
        "core.enum.ns_per_answer",
        per_answer(w.layer_ns("core.enumerate")),
    );
    v.set(
        "engine.serve.ns_per_answer",
        per_answer(w.layer_ns("core.enumerate") + w.layer_ns("engine.serve")),
    );
    v.set(
        "engine.serve.self_ns_per_answer",
        per_answer(w.layer_ns("engine.serve")),
    );
    v.set(
        "engine.sharded.self_ns_per_answer",
        per_answer(w.layer_ns("sharded.fan_out")),
    );
    v.set(
        "common.merge.ns_per_answer",
        per_answer(w.layer_ns("common.merge")),
    );
    v.set(
        "common.frame.encode_ns_per_answer",
        per_answer(w.layer_ns("frame.encode")),
    );
    v.set(
        "common.frame.decode_ns_per_answer",
        per_answer(w.layer_ns("frame.decode")),
    );
    if w.layer_ns("net.shard_serve") > 0 {
        // The whole per-shard wire serve: its own time and all it covers.
        v.set(
            "net.shard.ns_per_answer",
            per_answer(
                [
                    "net.shard_serve",
                    "frame.encode",
                    "frame.decode",
                    "engine.serve",
                    "core.enumerate",
                ]
                .iter()
                .map(|l| w.layer_ns(l))
                .sum(),
            ),
        );
    }
    v.set(
        "net.router.self_ns_per_answer",
        per_answer(w.layer_ns("router.serve")),
    );
}
