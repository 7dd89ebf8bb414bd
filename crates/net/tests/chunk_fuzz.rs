//! Chunk decoding under a fixed fuzz budget: seeded, structure-aware
//! mutations of valid [`frame::encode_chunk`] payloads — bit flips,
//! truncations, extensions and rewritten `arity` / `count` fields — each
//! decoded into a fresh block, as the client decodes every chunk frame.
//! Decoding must never panic: `Ok(n)` leaves exactly `n` answers in the
//! block and no more value bytes than the payload carries, and every
//! other result is a typed [`code::BAD_FRAME`].
//!
//! The seed set holds the two chunks the fault suite provokes by hand (an
//! arity change between consecutive chunks, and a zero-arity chunk
//! claiming four billion answers) and a few ordinary ones. No input has
//! broken the contract yet; one that does is to be committed here as a
//! named regression test.

use cqc_common::frame::{self, code, PayloadWriter};
use cqc_common::{AnswerBlock, AnswerSink, CqcError};
use rand::{Rng, RngCore};

/// Mutations per run: a few thousand, a fraction of a second.
const BUDGET: usize = 4096;

/// Bytes before the values: `u16 arity | u32 count`.
const HEADER: usize = 6;

/// The chunk payload carrying every answer of `block`.
fn encoded(block: &AnswerBlock) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    frame::encode_chunk(&mut w, block, 0, block.len());
    w.bytes().to_vec()
}

/// A block of `arity`-value answers cut from `values`.
fn block_of(arity: usize, values: &[u64]) -> AnswerBlock {
    let mut block = AnswerBlock::with_capacity(arity, values.len() / arity.max(1));
    for t in values.chunks(arity.max(1)) {
        block.push(&t[..arity]);
    }
    block
}

/// The valid payloads every mutation starts from.
fn seeds() -> Vec<Vec<u8>> {
    // A zero-arity block holding four billion empty answers stores no
    // value: its chunk is the 6-byte header alone.
    let mut many_empty = AnswerBlock::new();
    many_empty.extend_flat(0, 4_000_000_000, &[]);
    vec![
        // The arity-change stream: a chunk of arity 2, then one of arity 1.
        encoded(&block_of(2, &[1, 2])),
        encoded(&block_of(1, &[3])),
        encoded(&many_empty),
        // The one answer of an all-bound view, and an empty chunk.
        encoded(&block_of(0, &[0])),
        encoded(&AnswerBlock::new()),
        encoded(&block_of(3, &[1, 2, 3, 4, 5, 6, 7, 8, u64::MAX])),
        encoded(&block_of(1, &(0..40).collect::<Vec<_>>())),
    ]
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
fn mutate(rng: &mut rand::rngs::StdRng, seed: &[u8]) -> Vec<u8> {
    let mut p = seed.to_vec();
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..5u32) {
            // Bit flips anywhere.
            0 if !p.is_empty() => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let at = rng.gen_range(0..p.len());
                    p[at] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            // Truncation.
            1 if !p.is_empty() => p.truncate(rng.gen_range(0..p.len())),
            // Extension by random bytes (a partial or whole value or two).
            2 => {
                for _ in 0..rng.gen_range(1..=24u32) {
                    p.push(rng.next_u64() as u8);
                }
            }
            // A rewritten arity (bytes 0..2) or count (bytes 2..6) field,
            // where the payload still holds it.
            kind => {
                let (at, width) = if kind == 3 { (0, 2) } else { (2, HEADER - 2) };
                if let Some(field) = p.get_mut(at..at + width) {
                    let old = field.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b));
                    let new = near(rng, old, (1 << (8 * width)) - 1).to_le_bytes();
                    field.copy_from_slice(&new[..width]);
                }
            }
        }
    }
    p
}

/// The decode contract for one payload: whether it was accepted, or what
/// broke.
fn check(payload: &[u8]) -> Result<bool, String> {
    let mut block = AnswerBlock::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        frame::decode_chunk_into(payload, &mut block)
    }))
    .map_err(|_| "decode panicked".to_string())?;
    match outcome {
        Ok(n) if block.len() != n => Err(format!("Ok({n}) but {} answers", block.len())),
        Ok(_) if block.values().len() * 8 > payload.len().saturating_sub(HEADER) => Err(format!(
            "{} value bytes out of a {}-byte payload",
            block.values().len() * 8,
            payload.len()
        )),
        Ok(_) => Ok(true),
        Err(CqcError::Protocol {
            code: code::BAD_FRAME,
            ..
        }) => Ok(false),
        Err(e) => Err(format!("not BAD_FRAME: {e}")),
    }
}

#[test]
fn every_seed_decodes_to_its_own_answers() {
    for seed in seeds() {
        let mut block = AnswerBlock::new();
        let n = frame::decode_chunk_into(&seed, &mut block).unwrap();
        assert_eq!(encoded(&block), seed);
        assert_eq!(block.len(), n);
    }
}

#[test]
fn mutated_chunks_decode_or_fail_typed() {
    let seeds = seeds();
    let mut rng = cqc_workload::rng(0x0c_4a_0f_22);
    let (mut ok, mut refused) = (0usize, 0usize);
    for i in 0..BUDGET {
        let seed = &seeds[i % seeds.len()];
        let payload = mutate(&mut rng, seed);
        match check(&payload) {
            Ok(true) => ok += 1,
            Ok(false) => refused += 1,
            Err(broke) => panic!("mutation {i}: {broke}; payload {payload:02x?}"),
        }
    }
    // The budget reaches both sides of the contract.
    assert!(
        ok > BUDGET / 20 && refused > BUDGET / 2,
        "{ok} ok, {refused} refused"
    );
}
