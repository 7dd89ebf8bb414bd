//! Frame reading under a fixed fuzz budget: seeded, structure-aware
//! mutations of byte streams of valid frames ([`frame::write_frame`]) of
//! every [`FrameKind`] — bit flips, truncations, extensions and rewritten
//! length-prefix, version and kind bytes — each read with a
//! [`FrameReader`] capped at [`CAP`] bytes, frame after frame, until the
//! first error.
//!
//! The reader's contract: it never panics, every `Ok` consumes exactly
//! `4 + len` bytes (so the loop ends), a length prefix outside
//! `[2, CAP]` is [`code::BAD_FRAME`] with only the 4 prefix bytes
//! consumed, and every other error is [`code::BAD_FRAME`],
//! [`code::VERSION_MISMATCH`] or [`CqcError::Io`]. Each `Ok` payload then
//! goes to the parser of its kind, which returns `Ok` or
//! [`code::BAD_FRAME`] and never panics.
//!
//! The seed set holds one frame of every kind, the arity-change chunk
//! pair and the desynchronizing chunk stream the fault suite provokes by
//! hand, and every strict prefix of a v2 serve and update request (the
//! inputs of `protocol::tests::hostile_prefixes_of_requests_are_bad_frames`),
//! each framed. No input has broken the contract yet; one that does is to
//! be committed here as a named regression test.

use cqc_common::frame::{
    self, code, FrameKind, FrameLimits, FrameReader, PayloadWriter, ServePriority, ServeTail,
};
use cqc_common::{AnswerBlock, CqcError, Result};
use cqc_engine::{ServiceStats, ViewRow};
use cqc_net::protocol::{self, RegisterReq};
use cqc_storage::Delta;
use rand::{Rng, RngCore};

/// Mutations per run: a few thousand, a fraction of a second.
const BUDGET: usize = 4096;

/// The reader's frame cap (version + kind + payload bytes).
const CAP: usize = 4096;

/// A byte stream of frames and the offset each frame starts at.
struct Stream {
    bytes: Vec<u8>,
    starts: Vec<usize>,
}

fn stream(frames: &[(FrameKind, Vec<u8>)]) -> Stream {
    let mut bytes = Vec::new();
    let mut starts = Vec::new();
    for (kind, payload) in frames {
        starts.push(bytes.len());
        frame::write_frame(&mut bytes, *kind, payload).unwrap();
    }
    Stream { bytes, starts }
}

fn payload(encode: impl FnOnce(&mut PayloadWriter)) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    encode(&mut w);
    w.bytes().to_vec()
}

/// A chunk payload written field by field, its count unchecked.
fn raw_chunk(arity: u16, count: u32, values: &[u64]) -> Vec<u8> {
    payload(|w| {
        w.start().put_u16(arity).put_u32(count).put_values(values);
    })
}

fn serve_done(total: u64) -> Vec<u8> {
    payload(|w| protocol::encode_serve_done(w, total, &[7]))
}

/// The serve and update requests whose strict prefixes are all
/// `BAD_FRAME` (but one update prefix, which ends with the insert section).
fn hostile_requests() -> (Vec<u8>, Vec<u8>) {
    let tail = ServeTail {
        priority: ServePriority::Batch,
        budget_ns: Some(5_000_000),
    };
    let serve = payload(|w| protocol::encode_serve(w, "tri", &[7, 11], &tail));
    let mut delta = Delta::new();
    delta.insert("R", vec![1, 2]);
    delta.insert("S", vec![3, 4]);
    delta.remove("R", vec![5, 6]);
    let update = payload(|w| protocol::encode_update(w, &delta, Some(&[2, 9])));
    (serve, update)
}

/// A `StatsOk` payload: two counters, a resident view's row and an
/// evicted one's.
fn stats_ok() -> Vec<u8> {
    let row = |name: &str, epoch| ViewRow {
        name: name.into(),
        recipe: "theorem-1 τ=8".into(),
        tree_bytes: 120,
        dict_bytes: 368,
        base_bytes: 2400,
        build_work: 3,
        epoch,
    };
    let stats = ServiceStats {
        counters: vec![("catalog.hits".into(), 7), ("admission.admitted".into(), 2)],
        views: vec![row("lo", Some(0)), row("gone", None)],
    };
    payload(|w| protocol::encode_stats(w, &stats))
}

/// The valid streams every mutation starts from.
fn seeds() -> Vec<Stream> {
    let register = RegisterReq {
        name: "tri".into(),
        query: "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)".into(),
        pattern: "bff".into(),
        strategy: "tau:2".into(),
    };
    let (serve, update) = hostile_requests();
    let epochs = payload(|w| protocol::encode_epoch_reply(w, &[3, 1, 4]));
    let error = payload(|w| protocol::encode_error(w, &CqcError::UnknownView("ghost".into())));
    let mut seeds: Vec<Stream> = [
        (
            FrameKind::Register,
            payload(|w| protocol::encode_register(w, &register)),
        ),
        (FrameKind::Serve, serve.clone()),
        (FrameKind::Update, update.clone()),
        (FrameKind::Health, Vec::new()),
        (FrameKind::RegisterOk, epochs.clone()),
        (
            FrameKind::Chunk,
            raw_chunk(3, 2, &[1, 2, 3, 4, 5, u64::MAX]),
        ),
        (FrameKind::ServeDone, serve_done(2)),
        (FrameKind::UpdateOk, epochs.clone()),
        (FrameKind::HealthOk, epochs),
        (FrameKind::Error, error),
        (FrameKind::Stats, Vec::new()),
        (FrameKind::StatsOk, stats_ok()),
    ]
    .into_iter()
    .map(|f| stream(&[f]))
    .collect();
    // The arity-change stream: a chunk of arity 2, then one of arity 1.
    seeds.push(stream(&[
        (FrameKind::Chunk, raw_chunk(2, 1, &[1, 2])),
        (FrameKind::Chunk, raw_chunk(1, 1, &[3])),
        (FrameKind::ServeDone, serve_done(2)),
    ]));
    // The desync stream: a chunk claiming one answer of arity 2 that
    // carries one value, then the rest of the reply.
    seeds.push(stream(&[
        (FrameKind::Chunk, raw_chunk(2, 1, &[9])),
        (FrameKind::Chunk, raw_chunk(2, 1, &[111, 222])),
        (FrameKind::ServeDone, serve_done(2)),
    ]));
    // Every strict prefix of each request, plus the request and one byte.
    for (kind, request) in [(FrameKind::Serve, serve), (FrameKind::Update, update)] {
        let mut frames: Vec<_> = (0..request.len())
            .map(|cut| (kind, request[..cut].to_vec()))
            .collect();
        let mut longer = request;
        longer.push(0);
        frames.push((kind, longer));
        seeds.push(stream(&frames));
    }
    seeds
}

/// A field value near `old` or at an edge: what a confused or hostile
/// peer is likeliest to send.
fn near(rng: &mut impl Rng, old: u64, max: u64) -> u64 {
    match rng.gen_range(0..6u32) {
        0 => 0,
        1 => max,
        2 => old.saturating_add(1).min(max),
        3 => old.saturating_sub(1),
        4 => rng.gen_range(0..=max.min(64)),
        _ => rng.gen_range(0..=max),
    }
}

/// One to three structure-aware mutations of `seed`.
fn mutate(rng: &mut rand::rngs::StdRng, seed: &Stream) -> Vec<u8> {
    let mut p = seed.bytes.clone();
    for _ in 0..rng.gen_range(1..=3u32) {
        // The frame whose header a field rewrite targets.
        let at = seed.starts[rng.gen_range(0..seed.starts.len())];
        match rng.gen_range(0..6u32) {
            // Bit flips anywhere.
            0 if !p.is_empty() => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let i = rng.gen_range(0..p.len());
                    p[i] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            // Truncation.
            1 if !p.is_empty() => p.truncate(rng.gen_range(0..p.len())),
            // Extension by random bytes (a partial or whole frame header).
            2 => {
                for _ in 0..rng.gen_range(1..=24u32) {
                    p.push(rng.next_u64() as u8);
                }
            }
            // A rewritten length prefix, where the stream still holds it.
            3 => {
                if let Some(field) = p.get_mut(at..at + 4) {
                    let old = u32::from_le_bytes(field.try_into().unwrap());
                    let new = near(rng, u64::from(old), u64::from(u32::MAX)) as u32;
                    field.copy_from_slice(&new.to_le_bytes());
                }
            }
            // A rewritten version (byte 4) or kind (byte 5) byte.
            kind => {
                if let Some(b) = p.get_mut(at + if kind == 4 { 4 } else { 5 }) {
                    *b = near(rng, u64::from(*b), 0xFF) as u8;
                }
            }
        }
    }
    p
}

/// Runs the parser of `kind` over `payload`, discarding what it parsed.
fn parse(kind: FrameKind, payload: &[u8]) -> Result<()> {
    match kind {
        FrameKind::Register => protocol::parse_register(payload).map(drop),
        FrameKind::Serve => protocol::parse_serve(payload).map(drop),
        FrameKind::Update => protocol::parse_update(payload).map(drop),
        // A health or stats probe's payload is never read.
        FrameKind::Health | FrameKind::Stats => Ok(()),
        FrameKind::StatsOk => protocol::parse_stats(payload).map(drop),
        FrameKind::RegisterOk | FrameKind::UpdateOk | FrameKind::HealthOk => {
            protocol::parse_epoch_reply(payload).map(drop)
        }
        FrameKind::Chunk => frame::decode_chunk_into(payload, &mut AnswerBlock::new()).map(drop),
        FrameKind::ServeDone => protocol::parse_serve_done(payload).map(drop),
        FrameKind::Error => protocol::parse_error(payload).map(drop),
    }
}

fn is_code(e: &CqcError, want: u16) -> bool {
    matches!(e, CqcError::Protocol { code, .. } if *code == want)
}

/// The first error of a stream: the end of its bytes or a frame cut short
/// (`Io`), or a typed refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Io,
    BadFrame,
    VersionMismatch,
}

/// What reading one stream came to: frames read, how many of their
/// payloads parsed, and how the loop ended.
#[derive(Debug)]
struct Outcome {
    frames: usize,
    parsed: usize,
    end: End,
}

/// Reads `bytes` frame by frame until the first error and checks the
/// contract at every step.
fn check(bytes: &[u8]) -> std::result::Result<Outcome, String> {
    let mut reader = FrameReader::with_limits(FrameLimits::with_max_frame(CAP));
    let (mut frames, mut parsed) = (0, 0);
    let mut pos = 0;
    loop {
        let mut rest = &bytes[pos..];
        let prefix = rest
            .get(..4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize);
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reader
                .read_frame(&mut rest)
                .map(|(kind, payload)| (kind, payload.to_vec()))
        }))
        .map_err(|_| format!("read_frame panicked at byte {pos}"))?;
        let consumed = bytes.len() - pos - rest.len();
        let out_of_range = prefix.is_some_and(|len| !(2..=CAP).contains(&len));
        match read {
            Ok((kind, payload)) => {
                let len = prefix.expect("a frame read past its length prefix");
                if out_of_range || consumed != 4 + len || payload != bytes[pos + 6..pos + 4 + len] {
                    return Err(format!(
                        "Ok at byte {pos} with length prefix {len} consumed {consumed} bytes"
                    ));
                }
                pos += consumed;
                frames += 1;
                let outcome = std::panic::catch_unwind(|| parse(kind, &payload))
                    .map_err(|_| format!("{kind:?} parser panicked on {payload:02x?}"))?;
                match outcome {
                    Ok(()) => parsed += 1,
                    Err(e) if is_code(&e, code::BAD_FRAME) => {}
                    Err(e) => return Err(format!("{kind:?} parser: not BAD_FRAME: {e}")),
                }
            }
            Err(e) => {
                let end = match &e {
                    _ if out_of_range && (!is_code(&e, code::BAD_FRAME) || consumed != 4) => {
                        return Err(format!(
                            "length prefix {} at byte {pos}: {e}, {consumed} bytes consumed",
                            prefix.unwrap_or_default()
                        ));
                    }
                    CqcError::Io(_) => End::Io,
                    _ if is_code(&e, code::BAD_FRAME) => End::BadFrame,
                    _ if is_code(&e, code::VERSION_MISMATCH) => End::VersionMismatch,
                    _ => {
                        return Err(format!(
                            "at byte {pos}: not BAD_FRAME, VERSION_MISMATCH or Io: {e}"
                        ))
                    }
                };
                return Ok(Outcome {
                    frames,
                    parsed,
                    end,
                });
            }
        }
    }
}

#[test]
fn every_seed_reads_frame_by_frame_to_the_end() {
    let seeds = seeds();
    let (serve, update) = hostile_requests();
    for (i, seed) in seeds.iter().enumerate() {
        let out = check(&seed.bytes).unwrap();
        assert_eq!(out.frames, seed.starts.len(), "seed {i}");
        assert_eq!(
            out.end,
            End::Io,
            "seed {i} must end at the end of its bytes"
        );
    }
    // The valid frames and the arity-change pair all parse (each chunk
    // is well formed on its own); the desync stream's first chunk does
    // not; of the request prefixes only the insert-only update does.
    for seed in &seeds[..13] {
        assert_eq!(check(&seed.bytes).unwrap().parsed, seed.starts.len());
    }
    assert_eq!(check(&seeds[13].bytes).unwrap().parsed, 2);
    assert_eq!(
        check(&seeds[14].bytes).unwrap().parsed,
        0,
        "{} serve prefixes",
        serve.len()
    );
    assert_eq!(
        check(&seeds[15].bytes).unwrap().parsed,
        1,
        "{} update prefixes",
        update.len()
    );
}

#[test]
fn mutated_frame_streams_read_or_fail_typed() {
    let seeds = seeds();
    let mut rng = cqc_workload::rng(0x0f_4a_3e_42);
    let (mut frames, mut parsed) = (0usize, 0usize);
    let (mut io, mut bad, mut version) = (0usize, 0usize, 0usize);
    for i in 0..BUDGET {
        let seed = &seeds[i % seeds.len()];
        let bytes = mutate(&mut rng, seed);
        let out = check(&bytes).unwrap_or_else(|broke| {
            panic!("mutation {i}: {broke}; stream {bytes:02x?}");
        });
        frames += out.frames;
        parsed += out.parsed;
        match out.end {
            End::Io => io += 1,
            End::BadFrame => bad += 1,
            End::VersionMismatch => version += 1,
        }
    }
    // The budget reaches every side of the contract.
    let refused = frames - parsed;
    assert!(
        parsed > BUDGET / 8 && refused > BUDGET / 4,
        "{parsed} of {frames} payloads parsed"
    );
    assert!(
        io > BUDGET / 10 && bad > BUDGET / 20 && version > BUDGET / 50,
        "{io} ended in Io, {bad} in BAD_FRAME, {version} in VERSION_MISMATCH"
    );
}
