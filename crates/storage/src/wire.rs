//! The canonical [`Delta`] wire codec.
//!
//! One byte layout, two consumers: the network `Update` message
//! (`cqc-net`'s protocol layer ends its payload with these bytes, after
//! the epoch-vector precondition) and the durable write-ahead log
//! (`cqc-durable` stamps each record with an epoch and appends these same
//! bytes). Keeping the codec next to [`Delta`] itself means a delta that
//! was logged to disk and a delta that arrived over a socket replay
//! through the exact same parser — one set of bound checks, one set of
//! corruption tests.
//!
//! Layout (all integers little endian, `str` is `u32 len | UTF-8 bytes`):
//!
//! ```text
//! insert section:  u32 groups | per group: str rel, u16 arity, u32 rows,
//!                                          rows × arity u64
//! removes section: same shape; present iff the delta carries removals
//! ```
//!
//! The removes section is the layout's one optional part, and it is last:
//! [`read_delta`] reads it iff bytes remain, so a delta must end its
//! payload or record.

use crate::delta::Delta;
use cqc_common::error::{CqcError, Result};
use cqc_common::frame::{code, PayloadReader, PayloadWriter};
use cqc_common::value::Tuple;
use cqc_common::Value;

fn put_section(w: &mut PayloadWriter, groups: &[(&str, &[Vec<Value>])]) {
    w.put_u32(groups.len() as u32);
    for (rel, tuples) in groups {
        w.put_str(rel)
            .put_u16(tuples[0].len() as u16)
            .put_u32(tuples.len() as u32);
        for t in *tuples {
            w.put_values(t);
        }
    }
}

/// Appends `delta` to `w` (which is **not** cleared — callers own the
/// surrounding payload): the insert section, then — when the delta
/// carries removals — an identically shaped removes section. Empty groups
/// are dropped (they carry no information and a zero arity would be
/// ambiguous).
pub fn put_delta(w: &mut PayloadWriter, delta: &Delta) {
    let inserts: Vec<(&str, &[Vec<Value>])> =
        delta.groups().filter(|(_, ts)| !ts.is_empty()).collect();
    let removes: Vec<(&str, &[Vec<Value>])> = delta
        .remove_groups()
        .filter(|(_, ts)| !ts.is_empty())
        .collect();
    put_section(w, &inserts);
    if !removes.is_empty() {
        put_section(w, &removes);
    }
}

/// Reads a [`Delta`] back out of `r`: the insert section always, then a
/// removes section iff bytes remain (insert-only encoders end after the
/// first section). Bytes remaining after the removes section are the
/// caller's to reject.
///
/// Nothing is allocated for a group before its rows are known to be in
/// the payload, so a hostile row count costs no more than the bytes that
/// carry it. A tuple in both sections is withdrawn from the inserts, as
/// [`Delta::remove`] does, once per relation.
///
/// # Errors
///
/// [`cqc_common::frame::code::BAD_FRAME`] on truncation, non-UTF-8
/// relation names, a group whose rows would run past the payload, or a
/// group of zero-arity rows (no encoder writes one: it would carry rows
/// in no bytes).
pub fn read_delta(r: &mut PayloadReader<'_>) -> Result<Delta> {
    let inserts = read_section(r)?;
    let removes = if r.remaining() == 0 {
        Vec::new()
    } else {
        read_section(r)?
    };
    Ok(Delta::from_sections(inserts, removes))
}

/// One section's `(relation, tuples)` groups, in payload order.
fn read_section(r: &mut PayloadReader<'_>) -> Result<Vec<(String, Vec<Tuple>)>> {
    let ngroups = r.get_u32()? as usize;
    let mut groups = Vec::new();
    for _ in 0..ngroups {
        let rel = r.get_str()?.to_string();
        let arity = r.get_u16()? as usize;
        let rows = r.get_u32()? as usize;
        if arity == 0 && rows > 0 {
            return Err(bad_frame(format!("{rows} zero-arity rows for {rel}")));
        }
        if rows.saturating_mul(arity).saturating_mul(8) > r.remaining() {
            return Err(bad_frame(format!(
                "{rows} rows of arity {arity} for {rel} in {} bytes",
                r.remaining()
            )));
        }
        let mut tuples = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut t = Vec::with_capacity(arity);
            r.get_values(arity, &mut t)?;
            tuples.push(t);
        }
        groups.push((rel, tuples));
    }
    Ok(groups)
}

fn bad_frame(detail: String) -> CqcError {
    CqcError::Protocol {
        code: code::BAD_FRAME,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(delta: &Delta) -> Delta {
        let mut w = PayloadWriter::new();
        w.start();
        put_delta(&mut w, delta);
        let mut r = PayloadReader::new(w.bytes());
        let back = read_delta(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "codec must consume what it wrote");
        back
    }

    #[test]
    fn insert_only_and_mixed_deltas_round_trip() {
        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        delta.insert("R", vec![3, 4]);
        delta.insert("S", vec![5, 6, 7]);
        assert_eq!(round_trip(&delta), delta);
        delta.remove("R", vec![9, 9]);
        delta.remove("T", vec![8]);
        assert_eq!(round_trip(&delta), delta);
        // Remove-only: the insert section is present but empty.
        let mut delta = Delta::new();
        delta.remove("S", vec![5, 6]);
        assert_eq!(round_trip(&delta), delta);
        assert_eq!(round_trip(&Delta::new()), Delta::new());
    }

    #[test]
    fn truncated_bytes_are_typed_errors() {
        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        let mut w = PayloadWriter::new();
        w.start();
        put_delta(&mut w, &delta);
        let bytes = w.bytes();
        for cut in 1..bytes.len() {
            let mut r = PayloadReader::new(&bytes[..bytes.len() - cut]);
            // Some prefixes happen to parse as a shorter valid delta (the
            // layout is self-delimiting only per section); what must never
            // happen is a panic or an untyped error.
            if let Err(e) = read_delta(&mut r) {
                assert!(
                    matches!(
                        e,
                        cqc_common::CqcError::Protocol {
                            code: cqc_common::frame::code::BAD_FRAME,
                            ..
                        }
                    ),
                    "{e}"
                );
            }
        }
    }
}
