//! Correctness checks that run inside every benchmark run, off the clock.

use crate::client::HashSink;
use crate::scenario::{Request, Scenario, Shape, NODES, VIEWS};
use cqc_common::{AnswerBlock, BlockMerger};
use cqc_engine::{BlockService, Engine};
use cqc_query::parser::parse_adorned;
use rand::Rng;

/// Samples per view checked against the naive join.
const ORACLE_SAMPLES_PER_VIEW: usize = 4;
/// The nested-loop oracle rescans a relation once per partial valuation,
/// so only requests it can finish in milliseconds are sampled: the
/// degrees that decide its fan-out must sum to at most this.
const ORACLE_FANOUT_CAP: usize = 64;
const ORACLE_DRAWS_PER_VIEW: usize = 400;

/// How many partial valuations the naive join carries for `request`.
fn oracle_fanout(s: &Scenario, request: &Request) -> usize {
    let deg = |n: u64| s.adjacency[n as usize].len();
    let view = &VIEWS[request.view];
    let last = *request.bound.last().expect("every view binds a variable");
    match (view.shape, request.bound.len()) {
        // x bound: every y after R, every (y, z) after S.
        (Shape::Tri, 1) => {
            deg(last)
                + s.adjacency[last as usize]
                    .iter()
                    .map(|&y| deg(y))
                    .sum::<usize>()
        }
        // The last bound node fans out once.
        (Shape::Tri, 2) | (Shape::P3, 2) | (Shape::P2, 1) => deg(last),
        _ => 1,
    }
}

/// Requests for `views` that the naive join can afford: uniformly drawn
/// start nodes (mostly small ones, unlike the Zipf-bound traffic) walked
/// along random edges.
fn oracle_sample(s: &Scenario, views: &[usize]) -> Vec<Request> {
    let mut rng = cqc_workload::rng(s.seed ^ 0x0A_C1E);
    let mut out = Vec::new();
    for &view in views {
        let mut taken = 0;
        for _ in 0..ORACLE_DRAWS_PER_VIEW {
            if taken == ORACLE_SAMPLES_PER_VIEW {
                break;
            }
            let first = rng.gen_range(0..NODES);
            let request = Request {
                view,
                bound: s.walk(&mut rng, view, first),
            };
            if oracle_fanout(s, &request) <= ORACLE_FANOUT_CAP && !out.contains(&request) {
                out.push(request);
                taken += 1;
            }
        }
    }
    out
}

/// Compares a seeded sample of streams, tuple for tuple and in order,
/// with `cqc_join`'s naive join. Returns `(checked, mismatched)`.
pub fn oracle_check(
    s: &Scenario,
    service: &dyn BlockService,
    views: &[usize],
) -> cqc_common::Result<(usize, usize)> {
    let sample = oracle_sample(s, views);
    let mut mismatched = 0;
    // A view nobody could sample is a view nobody checked.
    for &v in views {
        if !sample.iter().any(|r| r.view == v) {
            mismatched += 1;
        }
    }
    for request in &sample {
        let def = &VIEWS[request.view];
        let view = parse_adorned(def.query, def.pattern)?;
        let want = cqc_join::naive::evaluate_view(&view, &s.db, &request.bound)?;
        let mut got = AnswerBlock::new();
        service.serve_into(def.name, &request.bound, &mut got)?;
        let same = got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| g == &w[..]);
        if !same {
            mismatched += 1;
        }
    }
    Ok((sample.len(), mismatched))
}

/// The stream fingerprint of `requests` served in process: every shard
/// engine enumerates into a block and the blocks are merged. A fleet's
/// streams must hash to the same value after their trip over the wire,
/// and it is the value `scan-local` prints for the same seed.
pub fn in_process_stream_hash(shards: &[&Engine], requests: &[Request]) -> cqc_common::Result<u64> {
    let mut sink = HashSink::default();
    let mut blocks: Vec<AnswerBlock> = shards.iter().map(|_| AnswerBlock::new()).collect();
    for r in requests {
        for (engine, block) in shards.iter().zip(&mut blocks) {
            block.reset();
            engine.serve_into(VIEWS[r.view].name, &r.bound, block)?;
        }
        let refs: Vec<&AnswerBlock> = blocks.iter().collect();
        BlockMerger::new().merge_into(&refs, &mut sink);
    }
    Ok(sink.hash.0)
}
