//! Delta decoding under a fixed fuzz budget: seeded, structure-aware
//! mutations of valid [`wire::put_delta`] payloads — insert-only, mixed,
//! remove-only and empty deltas — with bit flips, truncations, extensions
//! and rewritten group-count, name-length, arity and row-count fields,
//! each decoded by [`wire::read_delta`] as the `Update` parser and the WAL
//! scan decode every delta. Decoding must never panic; `Ok` holds no more
//! values than the payload's bytes carry and no tuple without a value (so
//! it allocates in proportion to the payload, not to a row count it
//! claims); every other result is a typed [`code::BAD_FRAME`].
//!
//! Two inputs broke the contract and are committed as named regression
//! tests: a 15-byte payload claiming twenty million zero-arity rows, and a
//! payload whose removes section withdraws each of its tuples from an
//! insert group of the same relation, which took one pass over that group
//! per removed tuple.

use cqc_common::frame::{code, PayloadReader, PayloadWriter};
use cqc_common::CqcError;
use cqc_storage::{wire, Delta};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Mutations per run: a few thousand, a fraction of a second.
const BUDGET: usize = 4096;

/// A valid payload and where its numeric header fields sit in it, as
/// `(offset, width)` in bytes: each section's group count, and each
/// group's name length, arity and row count.
struct Seed {
    payload: Vec<u8>,
    fields: Vec<(usize, usize)>,
}

/// `delta` encoded, its fields located by walking the layout.
fn seed(delta: &Delta) -> Seed {
    let mut w = PayloadWriter::new();
    w.start();
    wire::put_delta(&mut w, delta);
    let payload = w.bytes().to_vec();
    let read = |at: usize, width: usize| {
        payload[at..at + width]
            .iter()
            .rev()
            .fold(0usize, |v, &b| v << 8 | usize::from(b))
    };
    let (mut fields, mut at) = (Vec::new(), 0);
    while at < payload.len() {
        fields.push((at, 4));
        let groups = read(at, 4);
        at += 4;
        for _ in 0..groups {
            fields.push((at, 4));
            at += 4 + read(at, 4);
            fields.extend([(at, 2), (at + 2, 4)]);
            at += 6 + 8 * read(at, 2) * read(at + 2, 4);
        }
    }
    Seed { payload, fields }
}

/// The valid deltas every mutation starts from.
fn seeds() -> Vec<Seed> {
    let mut insert_only = Delta::new();
    insert_only.insert_all("R", (0..6).map(|i| vec![i, i + 1]));
    insert_only.insert("S", vec![5, 6, 7]);
    let mut mixed = insert_only.clone();
    mixed.remove("R", vec![9, 9]);
    mixed.remove("T", vec![u64::MAX]);
    let mut remove_only = Delta::new();
    remove_only.remove_all("S", (0..4).map(|i| vec![i, 2 * i]));
    [insert_only, mixed, remove_only, Delta::new()]
        .iter()
        .map(seed)
        .collect()
}

/// A field value near `old` or at an edge: what a confused or hostile
/// peer is likeliest to send.
fn near(rng: &mut StdRng, old: u64, max: u64) -> u64 {
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
fn mutate(rng: &mut StdRng, seed: &Seed) -> Vec<u8> {
    let mut p = seed.payload.clone();
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..4u32) {
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
            // A rewritten header field, where the payload still holds it.
            _ => {
                let (at, width) = seed.fields[rng.gen_range(0..seed.fields.len())];
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
    let outcome = std::panic::catch_unwind(|| wire::read_delta(&mut PayloadReader::new(payload)))
        .map_err(|_| "decode panicked".to_string())?;
    match outcome {
        Ok(delta) => {
            let sections = delta.groups().chain(delta.remove_groups());
            let tuples: Vec<_> = sections.flat_map(|(_, ts)| ts).collect();
            let values: usize = tuples.iter().map(|t| t.len()).sum();
            if values * 8 > payload.len() {
                Err(format!(
                    "{values} values out of a {}-byte payload",
                    payload.len()
                ))
            } else if tuples.iter().any(|t| t.is_empty()) {
                Err(format!("{} tuples, some with no value", tuples.len()))
            } else {
                Ok(true)
            }
        }
        Err(CqcError::Protocol {
            code: code::BAD_FRAME,
            ..
        }) => Ok(false),
        Err(e) => Err(format!("not BAD_FRAME: {e}")),
    }
}

#[test]
fn every_seed_decodes_to_its_own_delta() {
    for seed in seeds() {
        let delta = wire::read_delta(&mut PayloadReader::new(&seed.payload)).unwrap();
        let mut w = PayloadWriter::new();
        w.start();
        wire::put_delta(&mut w, &delta);
        assert_eq!(w.bytes(), seed.payload);
        assert_eq!(check(&seed.payload), Ok(true));
    }
}

#[test]
fn mutated_deltas_decode_or_fail_typed() {
    let seeds = seeds();
    let mut rng = StdRng::seed_from_u64(0xde_17a0_f022);
    let (mut ok, mut refused) = (0usize, 0usize);
    for i in 0..BUDGET {
        let payload = mutate(&mut rng, &seeds[i % seeds.len()]);
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

/// Regression: one group, `"R"`, arity 0, twenty million rows — 15 bytes
/// that decoded to twenty million empty tuples (0.6 s, and about 100 GB
/// at `u32::MAX` rows). Zero-arity rows are refused before any is read.
#[test]
fn twenty_million_zero_arity_rows_in_15_bytes_are_refused() {
    let mut w = PayloadWriter::new();
    w.start()
        .put_u32(1)
        .put_str("R")
        .put_u16(0)
        .put_u32(20_000_000);
    let payload = w.bytes().to_vec();
    assert_eq!(payload.len(), 15);
    assert_eq!(check(&payload), Ok(false));
}

/// Regression: 100 000 inserts into `R` and 100 000 removes from it, half
/// of them of inserted tuples. Withdrawing each removed tuple from the
/// insert group with a pass over it took 10¹⁰ tuple comparisons, tens of
/// seconds; withdrawing them once per relation takes milliseconds, and the
/// decode must finish within 5 s. The answer is what queueing the inserts
/// and then the removes gives.
#[test]
fn removes_withdraw_from_inserts_in_linear_time() {
    let n = 100_000u64;
    let mut w = PayloadWriter::new();
    w.start()
        .put_u32(1)
        .put_str("R")
        .put_u16(1)
        .put_u32(n as u32);
    for i in 0..n {
        w.put_values(&[2 * i]);
    }
    w.put_u32(1).put_str("R").put_u16(1).put_u32(n as u32);
    for i in 0..n {
        w.put_values(&[i]);
    }
    let payload = w.bytes().to_vec();
    let (done, decoded) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        let delta = wire::read_delta(&mut PayloadReader::new(&payload));
        done.send(delta).ok();
    });
    let delta = decoded
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("no decode after {:?}", started.elapsed()))
        .unwrap();
    let kept: Vec<u64> = (n / 2..n).map(|i| 2 * i).collect();
    let inserts: Vec<u64> = delta
        .tuples_for("R")
        .unwrap()
        .iter()
        .map(|t| t[0])
        .collect();
    assert_eq!(inserts, kept, "a tuple in both sections leaves the inserts");
    assert_eq!(delta.removes_for("R").unwrap().len(), n as usize);
}
