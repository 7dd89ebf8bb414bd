//! The `cqc-net` wire frame codec.
//!
//! Lives next to [`crate::block`] because an [`AnswerBlock`] already *is*
//! the wire format: one arity-strided run of `u64` values. The protocol
//! adds the minimum around it — a length prefix, a version byte, a frame
//! kind, and little-endian integer payloads — so a shard server can stream
//! answer chunks that decode straight back into a block with a single
//! `extend_from_slice` per chunk ([`decode_chunk_into`]).
//!
//! # Frame layout (protocol version 2)
//!
//! ```text
//! | len: u32 le | version: u8 | kind: u8 | payload: len-2 bytes |
//! ```
//!
//! `len` counts everything after itself (version + kind + payload), so an
//! empty-payload frame has `len == 2`. Frames larger than the reader's
//! [`FrameLimits`] cap ([`MAX_FRAME`] by default, and always for
//! writers) are rejected before any allocation; a version byte other
//! than [`PROTOCOL_VERSION`] is a [`code::VERSION_MISMATCH`] protocol
//! error.
//!
//! Answer chunks ([`FrameKind::Chunk`]) carry
//! `u16 arity | u32 count | count*arity u64` — `count` is explicit so
//! zero-arity answers (all-bound views) survive the trip.
//!
//! Error frames ([`FrameKind::Error`]) carry `u16 code | str detail`,
//! with the code drawn from the [`code`] table; [`error_code`] and
//! [`decode_error`] map [`CqcError`] onto the table and back, so a remote
//! failure surfaces client-side as the same typed error a local call
//! would have produced.

use crate::block::AnswerBlock;
use crate::error::{CqcError, Result};
use crate::value::Value;
use std::io::{Read, Write};

/// The protocol version this build speaks (goes into every frame).
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on `len` (version + kind + payload bytes). Frames above
/// this are refused before any allocation — a corrupted or hostile length
/// prefix must not drive a 4 GiB `Vec` reservation. This is the
/// *default* for [`FrameLimits`]; deployments that know their answer
/// chunks are small can tighten it per reader.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Per-reader framing bounds, so the 64 MiB default cap ([`MAX_FRAME`])
/// can be tightened where a peer is less trusted (or loosened never —
/// the constant stays the hard ceiling for writers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimits {
    max_frame: usize,
}

impl Default for FrameLimits {
    fn default() -> FrameLimits {
        FrameLimits {
            max_frame: MAX_FRAME,
        }
    }
}

impl FrameLimits {
    /// Limits with a custom frame cap (version + kind + payload bytes).
    /// Caps below 2 are raised to 2 — a frame can never be smaller than
    /// its version and kind bytes.
    pub fn with_max_frame(max_frame: usize) -> FrameLimits {
        FrameLimits {
            max_frame: max_frame.max(2),
        }
    }

    /// The largest acceptable `len` value (version + kind + payload).
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }
}

/// Frame kinds. Requests use the low range, responses the high range, so
/// a trace is readable at a glance. The values are wire-stable: changing
/// one is a protocol version bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: register a view (name, query text, pattern,
    /// strategy token).
    Register = 0x01,
    /// Client → server: serve one access request (view name, bound
    /// prefix values).
    Serve = 0x02,
    /// Client → server: apply a delta (relation groups of tuples).
    Update = 0x03,
    /// Client → server: liveness + version probe (empty payload).
    Health = 0x04,
    /// Client → server: statistics probe (empty payload).
    Stats = 0x05,
    /// Server → client: registration succeeded (epoch vector).
    RegisterOk = 0x81,
    /// Server → client: one arity-strided run of answers.
    Chunk = 0x82,
    /// Server → client: answer stream complete (total count + epoch
    /// vector observed at serve time).
    ServeDone = 0x83,
    /// Server → client: update applied (epoch vector after).
    UpdateOk = 0x84,
    /// Server → client: alive (epoch vector).
    HealthOk = 0x85,
    /// Server → client: named counters and one row per registered view.
    StatsOk = 0x86,
    /// Server → client: request failed (`u16 code | str detail`).
    Error = 0xEE,
}

impl FrameKind {
    /// Decodes a wire byte, or a [`code::BAD_FRAME`] protocol error.
    pub fn from_u8(b: u8) -> Result<FrameKind> {
        Ok(match b {
            0x01 => FrameKind::Register,
            0x02 => FrameKind::Serve,
            0x03 => FrameKind::Update,
            0x04 => FrameKind::Health,
            0x05 => FrameKind::Stats,
            0x81 => FrameKind::RegisterOk,
            0x82 => FrameKind::Chunk,
            0x83 => FrameKind::ServeDone,
            0x84 => FrameKind::UpdateOk,
            0x85 => FrameKind::HealthOk,
            0x86 => FrameKind::StatsOk,
            0xEE => FrameKind::Error,
            _ => {
                return Err(CqcError::Protocol {
                    code: code::BAD_FRAME,
                    detail: format!("unknown frame kind byte 0x{b:02x}"),
                })
            }
        })
    }
}

/// Stable numeric error codes carried in [`FrameKind::Error`] frames.
///
/// The low block mirrors the [`CqcError`] variants one-to-one; the
/// 100-block is transport-level conditions that have no local
/// counterpart. Codes are wire-stable: additions only.
pub mod code {
    /// [`CqcError::Parse`](super::CqcError::Parse).
    pub const PARSE: u16 = 1;
    /// [`CqcError::InvalidQuery`](super::CqcError::InvalidQuery).
    pub const INVALID_QUERY: u16 = 2;
    /// [`CqcError::Schema`](super::CqcError::Schema).
    pub const SCHEMA: u16 = 3;
    /// [`CqcError::InvalidDecomposition`](super::CqcError::InvalidDecomposition).
    pub const INVALID_DECOMPOSITION: u16 = 4;
    /// [`CqcError::Lp`](super::CqcError::Lp).
    pub const LP: u16 = 5;
    /// [`CqcError::InvalidAccess`](super::CqcError::InvalidAccess).
    pub const INVALID_ACCESS: u16 = 6;
    /// [`CqcError::Config`](super::CqcError::Config).
    pub const CONFIG: u16 = 7;
    /// [`CqcError::ViewBuild`](super::CqcError::ViewBuild) (flattened to
    /// its display text on the wire).
    pub const VIEW_BUILD: u16 = 8;
    /// [`CqcError::UnknownView`](super::CqcError::UnknownView).
    pub const UNKNOWN_VIEW: u16 = 9;
    /// [`CqcError::Io`](super::CqcError::Io) on the remote side.
    pub const IO: u16 = 10;
    /// Malformed frame: bad kind byte, truncated payload, oversized length.
    pub const BAD_FRAME: u16 = 100;
    /// Peer speaks a different [`PROTOCOL_VERSION`](super::PROTOCOL_VERSION).
    pub const VERSION_MISMATCH: u16 = 101;
    /// Server refused the request: in-flight queue full (backpressure).
    pub const REFUSED: u16 = 102;
    /// The per-request deadline elapsed before the stream completed.
    pub const DEADLINE: u16 = 103;
    /// A fan-out member failed mid-request (partial failure at the router).
    pub const SHARD_FAILED: u16 = 104;
    /// A shard's epoch vector disagreed with the router's expectation.
    pub const EPOCH_MISMATCH: u16 = 105;
    /// A degraded response: one or more replica groups were entirely
    /// unavailable, so the result covers only a subset of the shards.
    /// The detail names the missing shards; carriers attach the
    /// per-shard coverage bitmap (see `cqc_common::Coverage`).
    pub const DEGRADED: u16 = 106;
}

/// `true` for the codes whose cause is the request itself — an
/// unparsable or unknown view, a bound tuple of the wrong arity. The
/// server that returns one answered correctly and every other replica
/// would say the same, so a caller must hand the error back at once:
/// retrying, failing over or penalizing the server is wrong. Every other
/// code is about the server or the path to it (its state, its load, its
/// version, the transport) and another replica may well succeed.
pub fn is_request_error(e: &CqcError) -> bool {
    matches!(
        error_code(e),
        code::PARSE | code::INVALID_QUERY | code::INVALID_ACCESS | code::UNKNOWN_VIEW
    )
}

/// The wire code for an error (the inverse of [`decode_error`]).
pub fn error_code(e: &CqcError) -> u16 {
    match e {
        CqcError::Parse(_) => code::PARSE,
        CqcError::InvalidQuery(_) => code::INVALID_QUERY,
        CqcError::Schema(_) => code::SCHEMA,
        CqcError::InvalidDecomposition(_) => code::INVALID_DECOMPOSITION,
        CqcError::Lp(_) => code::LP,
        CqcError::InvalidAccess(_) => code::INVALID_ACCESS,
        CqcError::Config(_) => code::CONFIG,
        CqcError::ViewBuild { .. } => code::VIEW_BUILD,
        CqcError::UnknownView(_) => code::UNKNOWN_VIEW,
        CqcError::Io(_) => code::IO,
        CqcError::Protocol { code, .. } => *code,
    }
}

/// Reconstructs a [`CqcError`] from an error frame's code + detail.
///
/// Variants whose payload is a plain message round-trip exactly;
/// structured ones ([`CqcError::ViewBuild`]) and the transport codes come
/// back as [`CqcError::Protocol`] carrying the original code, so callers
/// can still match on the condition.
pub fn decode_error(code_: u16, detail: &str) -> CqcError {
    let d = detail.to_string();
    match code_ {
        code::PARSE => CqcError::Parse(d),
        code::INVALID_QUERY => CqcError::InvalidQuery(d),
        code::SCHEMA => CqcError::Schema(d),
        code::INVALID_DECOMPOSITION => CqcError::InvalidDecomposition(d),
        code::LP => CqcError::Lp(d),
        code::INVALID_ACCESS => CqcError::InvalidAccess(d),
        code::CONFIG => CqcError::Config(d),
        code::UNKNOWN_VIEW => CqcError::UnknownView(d),
        code::IO => CqcError::Io(d),
        _ => CqcError::Protocol {
            code: code_,
            detail: d,
        },
    }
}

/// Writes one frame: length prefix, version byte, kind byte, payload.
/// The caller flushes (streams batch several frames per flush).
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<()> {
    let body = payload.len() + 2;
    if body > MAX_FRAME {
        return Err(CqcError::Protocol {
            code: code::BAD_FRAME,
            detail: format!("frame of {body} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        });
    }
    w.write_all(&(body as u32).to_le_bytes())?;
    w.write_all(&[PROTOCOL_VERSION, kind as u8])?;
    w.write_all(payload)?;
    Ok(())
}

/// A reusable frame reader: one buffer, grown to the largest frame seen,
/// zero steady-state allocations per frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    bytes_read: u64,
    limits: FrameLimits,
}

impl FrameReader {
    /// An empty reader with the default [`FrameLimits`].
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// An empty reader that refuses frames beyond `limits`.
    pub fn with_limits(limits: FrameLimits) -> FrameReader {
        FrameReader {
            limits,
            ..FrameReader::default()
        }
    }

    /// The framing bounds this reader enforces.
    pub fn limits(&self) -> FrameLimits {
        self.limits
    }

    /// Total payload-bearing bytes consumed so far (frame headers
    /// included) — the wire-traffic counter behind `wire_bytes()`.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reads one frame, returning its kind and payload (borrowed from the
    /// internal buffer, valid until the next call). Checks the length
    /// bound and the version byte; a clean EOF *before the length prefix*
    /// and a truncated frame both surface as [`CqcError::Io`], which the
    /// serving layers treat as "peer went away".
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<(FrameKind, &[u8])> {
        let mut len4 = [0u8; 4];
        r.read_exact(&mut len4)?;
        let body = u32::from_le_bytes(len4) as usize;
        let cap = self.limits.max_frame();
        if !(2..=cap).contains(&body) {
            return Err(CqcError::Protocol {
                code: code::BAD_FRAME,
                detail: format!("frame length {body} outside [2, {cap}]"),
            });
        }
        self.buf.clear();
        self.buf.resize(body, 0);
        r.read_exact(&mut self.buf)?;
        self.bytes_read += 4 + body as u64;
        if self.buf[0] != PROTOCOL_VERSION {
            return Err(CqcError::Protocol {
                code: code::VERSION_MISMATCH,
                detail: format!(
                    "peer speaks protocol version {}, this build speaks {PROTOCOL_VERSION}",
                    self.buf[0]
                ),
            });
        }
        let kind = FrameKind::from_u8(self.buf[1])?;
        Ok((kind, &self.buf[2..]))
    }
}

/// A reusable little-endian payload builder.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty writer.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// Clears the buffer (capacity kept) and returns `self` for chaining.
    pub fn start(&mut self) -> &mut PayloadWriter {
        self.buf.clear();
        self
    }

    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut PayloadWriter {
        self.buf.push(v);
        self
    }

    /// Appends a `u16` (little endian).
    pub fn put_u16(&mut self, v: u16) -> &mut PayloadWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) -> &mut PayloadWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) -> &mut PayloadWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed UTF-8 string (`u32 len | bytes`).
    pub fn put_str(&mut self, s: &str) -> &mut PayloadWriter {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends a run of values without a count prefix (the caller encodes
    /// the count separately, as the chunk layout does).
    pub fn put_values(&mut self, values: &[Value]) -> &mut PayloadWriter {
        for &v in values {
            self.put_u64(v);
        }
        self
    }
}

/// A cursor over a received payload; every read is bounds-checked into a
/// [`code::BAD_FRAME`] protocol error rather than a panic, so a malformed
/// peer cannot take the server down.
#[derive(Debug)]
pub struct PayloadReader<'p> {
    buf: &'p [u8],
    pos: usize,
}

impl<'p> PayloadReader<'p> {
    /// A cursor at the start of `payload`.
    pub fn new(payload: &'p [u8]) -> PayloadReader<'p> {
        PayloadReader {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'p [u8]> {
        if self.remaining() < n {
            return Err(CqcError::Protocol {
                code: code::BAD_FRAME,
                detail: format!(
                    "payload truncated: wanted {n} bytes, {} left",
                    self.remaining()
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'p str> {
        let n = self.get_u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|e| CqcError::Protocol {
            code: code::BAD_FRAME,
            detail: format!("payload string is not UTF-8: {e}"),
        })
    }

    /// Reads `n` values into `out` (appending).
    pub fn get_values(&mut self, n: usize, out: &mut Vec<Value>) -> Result<()> {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(())
    }
}

/// Encodes a run of answers from `block[start..start + count]` as a
/// [`FrameKind::Chunk`] payload into `w` (cleared first):
/// `u16 arity | u32 count | count*arity u64`.
pub fn encode_chunk(w: &mut PayloadWriter, block: &AnswerBlock, start: usize, count: usize) {
    let arity = block.arity();
    w.start().put_u16(arity as u16).put_u32(count as u32);
    w.put_values(&block.values()[start * arity..(start + count) * arity]);
}

/// Decodes a [`FrameKind::Chunk`] payload, appending its answers to
/// `block`. The values land via one flat `extend` — no per-tuple work
/// beyond the little-endian conversion.
pub fn decode_chunk_into(payload: &[u8], block: &mut AnswerBlock) -> Result<usize> {
    let mut r = PayloadReader::new(payload);
    let arity = r.get_u16()? as usize;
    let count = r.get_u32()? as usize;
    let want = arity * count * 8;
    if r.remaining() != want {
        return Err(CqcError::Protocol {
            code: code::BAD_FRAME,
            detail: format!(
                "chunk claims {count} answers of arity {arity} ({want} value bytes) but carries {}",
                r.remaining()
            ),
        });
    }
    let mut flat: Vec<Value> = Vec::new();
    r.get_values(arity * count, &mut flat)?;
    block.extend_flat(arity, count, &flat);
    Ok(count)
}

/// Encodes an epoch vector (`u32 n | n×u64`) — the versioning handshake
/// attached to every response frame.
pub fn encode_epochs(w: &mut PayloadWriter, epochs: &[u64]) {
    w.put_u32(epochs.len() as u32);
    for &e in epochs {
        w.put_u64(e);
    }
}

/// Decodes an epoch vector written by [`encode_epochs`].
pub fn decode_epochs(r: &mut PayloadReader<'_>) -> Result<Vec<u64>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(r.get_u64()?);
    }
    Ok(out)
}

/// The priority class a serve request declares.
///
/// Classes order admission under overload: when the server's wait queue
/// is full or a sustained brownout is in effect, lower classes are shed
/// first. The wire bytes are stable — additions only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ServePriority {
    /// Latency-sensitive foreground traffic. Shed last. The default.
    #[default]
    Interactive = 0,
    /// Throughput-oriented background traffic. Shed first under
    /// sustained overload (brownout).
    Batch = 1,
    /// Fleet-internal traffic (probes, resyncs). Between the two: it
    /// yields to Interactive but outranks Batch.
    Internal = 2,
}

impl ServePriority {
    /// Decodes a wire byte, or a [`code::BAD_FRAME`] protocol error —
    /// an unknown class from a newer peer must surface as a typed
    /// reject, never a silent default.
    pub fn from_u8(b: u8) -> Result<ServePriority> {
        Ok(match b {
            0 => ServePriority::Interactive,
            1 => ServePriority::Batch,
            2 => ServePriority::Internal,
            _ => {
                return Err(CqcError::Protocol {
                    code: code::BAD_FRAME,
                    detail: format!("unknown serve priority byte 0x{b:02x}"),
                })
            }
        })
    }

    /// How strongly this class resists shedding (higher sheds later).
    /// Interactive outranks Internal outranks Batch.
    pub fn shed_rank(self) -> u8 {
        match self {
            ServePriority::Interactive => 2,
            ServePriority::Internal => 1,
            ServePriority::Batch => 0,
        }
    }
}

/// On-the-wire sentinel for "no deadline" in a serve frame's budget
/// field; any other value is the remaining budget in nanoseconds.
pub const BUDGET_UNBOUNDED: u64 = u64::MAX;

/// The last two fields of every serve frame: a priority class plus the
/// caller's *remaining* deadline budget at send time, in nanoseconds.
///
/// Wire layout (9 bytes, after the bound values):
/// `u8 priority | u64 budget_ns` — with [`BUDGET_UNBOUNDED`] standing
/// for "no deadline". The default is `{ Interactive, unbounded }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeTail {
    /// The declared priority class.
    pub priority: ServePriority,
    /// Remaining deadline budget in nanoseconds, if any.
    pub budget_ns: Option<u64>,
}

/// Encodes a serve frame's priority and budget (the inverse of
/// [`decode_serve_tail`]).
pub fn encode_serve_tail(w: &mut PayloadWriter, tail: &ServeTail) {
    w.put_u8(tail.priority as u8);
    // A real budget of u64::MAX ns (585 years) is indistinguishable
    // from the sentinel; clamp it down one so the sentinel stays
    // unambiguous on the wire.
    w.put_u64(match tail.budget_ns {
        Some(ns) => ns.min(BUDGET_UNBOUNDED - 1),
        None => BUDGET_UNBOUNDED,
    });
}

/// Decodes the priority and budget written by [`encode_serve_tail`].
/// Truncated bytes and unknown priority classes are typed
/// [`code::BAD_FRAME`] errors, not panics or silent defaults.
pub fn decode_serve_tail(r: &mut PayloadReader<'_>) -> Result<ServeTail> {
    let priority = ServePriority::from_u8(r.get_u8()?)?;
    let budget = r.get_u64()?;
    Ok(ServeTail {
        priority,
        budget_ns: (budget != BUDGET_UNBOUNDED).then_some(budget),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::AnswerSink;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Health, &[]).unwrap();
        write_frame(&mut wire, FrameKind::Serve, b"payload").unwrap();
        let mut r = FrameReader::new();
        let mut cursor = &wire[..];
        let (k, p) = r.read_frame(&mut cursor).unwrap();
        assert_eq!(k, FrameKind::Health);
        assert!(p.is_empty());
        let (k, p) = r.read_frame(&mut cursor).unwrap();
        assert_eq!(k, FrameKind::Serve);
        assert_eq!(p, b"payload");
        assert_eq!(r.bytes_read(), wire.len() as u64);
        // EOF surfaces as Io.
        assert!(matches!(r.read_frame(&mut cursor), Err(CqcError::Io(_))));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Health, &[]).unwrap();
        wire[4] = PROTOCOL_VERSION + 1; // corrupt the version byte
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::VERSION_MISMATCH,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn bad_kind_and_bad_length_are_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Health, &[]).unwrap();
        wire[5] = 0x7F; // unknown kind byte
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "{err}"
        );

        let wire = 1u32.to_le_bytes(); // body length 1 < 2
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "{err}"
        );

        let wire = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn hostile_frames_are_typed_not_hung() {
        // A zero-length prefix is rejected before any payload read (body
        // must carry at least version + kind).
        let wire = 0u32.to_le_bytes();
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "zero-length frame: {err}"
        );

        // An oversized length prefix (u32::MAX, far past the 64 MiB cap)
        // is rejected from the 4-byte prefix alone — before any
        // allocation or payload read could be sized by attacker input.
        let wire = u32::MAX.to_le_bytes();
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "oversized frame: {err}"
        );

        // A truncated payload — the prefix promises 100 bytes, the
        // stream ends after 10 — surfaces as a typed Io ("peer went
        // away"), never a hang or a panic.
        let mut wire = Vec::new();
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(&[PROTOCOL_VERSION, FrameKind::Health as u8]);
        wire.extend_from_slice(&[0u8; 8]);
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(matches!(err, CqcError::Io(_)), "truncated payload: {err}");

        // An unknown kind byte in an otherwise well-formed frame is a
        // typed BAD_FRAME naming the byte.
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Health, &[]).unwrap();
        wire[5] = 0x42;
        let err = FrameReader::new().read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "unknown kind: {err}"
        );
    }

    #[test]
    fn frame_limits_default_to_the_wire_constant() {
        assert_eq!(FrameLimits::default().max_frame(), MAX_FRAME);
        assert_eq!(FrameReader::new().limits(), FrameLimits::default());
        // A cap below the version + kind floor is raised to the floor.
        assert_eq!(FrameLimits::with_max_frame(0).max_frame(), 2);
    }

    #[test]
    fn frame_exactly_at_the_cap_is_accepted() {
        let cap = 64usize;
        let payload = vec![0xABu8; cap - 2]; // len == cap exactly
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Serve, &payload).unwrap();
        let mut r = FrameReader::with_limits(FrameLimits::with_max_frame(cap));
        let (k, p) = r.read_frame(&mut &wire[..]).unwrap();
        assert_eq!(k, FrameKind::Serve);
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn frame_one_past_the_cap_is_a_typed_bad_frame() {
        let cap = 64usize;
        let payload = vec![0xABu8; cap - 1]; // len == cap + 1
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Serve, &payload).unwrap();
        let mut r = FrameReader::with_limits(FrameLimits::with_max_frame(cap));
        let err = r.read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "cap+1: {err}"
        );
        // The same bytes pass under the default cap: the bound is the
        // reader's configuration, not the frame.
        let (k, _) = FrameReader::new().read_frame(&mut &wire[..]).unwrap();
        assert_eq!(k, FrameKind::Serve);
    }

    #[test]
    fn payload_primitives_round_trip() {
        let mut w = PayloadWriter::new();
        w.start()
            .put_u8(7)
            .put_u16(300)
            .put_u32(70_000)
            .put_u64(1 << 40)
            .put_str("view_name")
            .put_values(&[1, 2, 3]);
        let mut r = PayloadReader::new(w.bytes());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_str().unwrap(), "view_name");
        let mut vals = Vec::new();
        r.get_values(3, &mut vals).unwrap();
        assert_eq!(vals, vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        // Over-reads are typed, not panics.
        assert!(matches!(
            r.get_u64(),
            Err(CqcError::Protocol {
                code: code::BAD_FRAME,
                ..
            })
        ));
    }

    #[test]
    fn chunks_round_trip_through_blocks() {
        let mut src = AnswerBlock::new();
        for i in 0..10u64 {
            src.push(&[i, i * i]);
        }
        let mut w = PayloadWriter::new();
        let mut dst = AnswerBlock::new();
        encode_chunk(&mut w, &src, 0, 4);
        assert_eq!(decode_chunk_into(w.bytes(), &mut dst).unwrap(), 4);
        encode_chunk(&mut w, &src, 4, 6);
        assert_eq!(decode_chunk_into(w.bytes(), &mut dst).unwrap(), 6);
        assert_eq!(dst.len(), src.len());
        assert_eq!(dst.values(), src.values());
    }

    #[test]
    fn zero_arity_chunks_carry_counts() {
        let mut src = AnswerBlock::new();
        src.push(&[]);
        src.push(&[]);
        let mut w = PayloadWriter::new();
        encode_chunk(&mut w, &src, 0, 2);
        let mut dst = AnswerBlock::new();
        assert_eq!(decode_chunk_into(w.bytes(), &mut dst).unwrap(), 2);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst.arity(), 0);
    }

    #[test]
    fn ragged_chunk_is_rejected() {
        let mut w = PayloadWriter::new();
        w.start().put_u16(2).put_u32(3).put_values(&[1, 2, 3]); // 3 answers claimed, 1.5 sent
        let err = decode_chunk_into(w.bytes(), &mut AnswerBlock::new()).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::BAD_FRAME,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn error_codes_round_trip() {
        let cases = vec![
            CqcError::Parse("x".into()),
            CqcError::InvalidQuery("x".into()),
            CqcError::Schema("x".into()),
            CqcError::InvalidDecomposition("x".into()),
            CqcError::Lp("x".into()),
            CqcError::InvalidAccess("x".into()),
            CqcError::Config("x".into()),
            CqcError::UnknownView("x".into()),
            CqcError::Io("x".into()),
        ];
        for e in cases {
            let decoded = decode_error(error_code(&e), "x");
            assert_eq!(decoded, e, "{e}");
        }
        // Structured and transport codes survive as Protocol with the code.
        let vb = CqcError::Lp("no".into()).for_view("v", "auto");
        let decoded = decode_error(error_code(&vb), &vb.to_string());
        assert!(
            matches!(
                decoded,
                CqcError::Protocol {
                    code: code::VIEW_BUILD,
                    ..
                }
            ),
            "{decoded}"
        );
        let p = CqcError::Protocol {
            code: code::DEADLINE,
            detail: "too slow".into(),
        };
        assert_eq!(decode_error(error_code(&p), "too slow"), p);
    }

    #[test]
    fn serve_tails_round_trip() {
        let cases = [
            ServeTail {
                priority: ServePriority::Interactive,
                budget_ns: Some(1_500_000),
            },
            ServeTail {
                priority: ServePriority::Batch,
                budget_ns: None,
            },
            ServeTail {
                priority: ServePriority::Internal,
                budget_ns: Some(0),
            },
        ];
        let mut w = PayloadWriter::new();
        for tail in cases {
            encode_serve_tail(w.start(), &tail);
            assert_eq!(w.bytes().len(), 9, "tail is fixed-width");
            let mut r = PayloadReader::new(w.bytes());
            assert_eq!(decode_serve_tail(&mut r).unwrap(), tail);
            assert_eq!(r.remaining(), 0);
        }
        // A budget colliding with the sentinel is clamped, not
        // reinterpreted as "unbounded".
        encode_serve_tail(
            w.start(),
            &ServeTail {
                priority: ServePriority::Interactive,
                budget_ns: Some(BUDGET_UNBOUNDED),
            },
        );
        let mut r = PayloadReader::new(w.bytes());
        assert_eq!(
            decode_serve_tail(&mut r).unwrap().budget_ns,
            Some(BUDGET_UNBOUNDED - 1)
        );
    }

    #[test]
    fn truncated_serve_tail_is_a_typed_bad_frame() {
        let mut w = PayloadWriter::new();
        encode_serve_tail(
            w.start(),
            &ServeTail {
                priority: ServePriority::Batch,
                budget_ns: Some(77),
            },
        );
        // Every proper prefix of the 9-byte tail must be refused — a
        // peer that dies mid-write cannot leave the parser hanging or
        // defaulting.
        for cut in 0..w.bytes().len() {
            let mut r = PayloadReader::new(&w.bytes()[..cut]);
            let err = decode_serve_tail(&mut r).unwrap_err();
            assert!(
                matches!(
                    err,
                    CqcError::Protocol {
                        code: code::BAD_FRAME,
                        ..
                    }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn garbage_priority_byte_is_a_typed_bad_frame() {
        for bad in [3u8, 0x7F, 0xFF] {
            let mut w = PayloadWriter::new();
            w.start().put_u8(bad).put_u64(1_000);
            let mut r = PayloadReader::new(w.bytes());
            let err = decode_serve_tail(&mut r).unwrap_err();
            assert!(
                matches!(
                    err,
                    CqcError::Protocol {
                        code: code::BAD_FRAME,
                        ..
                    }
                ),
                "priority byte 0x{bad:02x}: {err}"
            );
        }
        assert!(ServePriority::from_u8(3).is_err());
        for p in [
            ServePriority::Interactive,
            ServePriority::Batch,
            ServePriority::Internal,
        ] {
            assert_eq!(ServePriority::from_u8(p as u8).unwrap(), p);
        }
    }

    #[test]
    fn epoch_vectors_round_trip() {
        let mut w = PayloadWriter::new();
        encode_epochs(w.start(), &[3, 1, 4, 1]);
        let mut r = PayloadReader::new(w.bytes());
        assert_eq!(decode_epochs(&mut r).unwrap(), vec![3, 1, 4, 1]);
        encode_epochs(w.start(), &[]);
        let mut r = PayloadReader::new(w.bytes());
        assert!(decode_epochs(&mut r).unwrap().is_empty());
    }
}
