//! Message-level encoding over the [`cqc_common::frame`] codec.
//!
//! One function pair per message: `encode_*` fills a reusable
//! [`PayloadWriter`], `parse_*` reads a received payload back with every
//! bound check mapped to a typed [`code::BAD_FRAME`] protocol error. Every
//! request payload has one fixed layout (protocol version 2), and each
//! request parser rejects any byte left over once it has read it:
//!
//! | frame | payload |
//! |---|---|
//! | `Register` | `str name \| str query \| str pattern \| str strategy` |
//! | `Serve` | `str view \| u16 n \| n×u64 bound values \| u8 priority \| u64 budget_ns` (see [`cqc_common::frame::ServeTail`]) |
//! | `Update` | `u32 n \| n×u64` epoch-vector precondition (n = 0: none), then the delta: insert section and removes section (`u32 groups \| per group: str rel, u16 arity, u32 rows, rows×arity u64` each; see [`cqc_storage::wire`]) |
//! | `Health` / `Stats` | empty |
//! | `RegisterOk` / `UpdateOk` / `HealthOk` | epoch vector (`u32 n \| n×u64`) |
//! | `StatsOk` | `u32 n \| n×(str name, u64 value)`, then `u32 v \| v×(str view, str recipe, u64 tree_bytes, u64 dict_bytes, u64 base_bytes, u64 build_work, u64 epoch)`; epoch `u64::MAX`: nothing resident |
//! | `Chunk` | `u16 arity \| u32 count \| count×arity u64` (see [`cqc_common::frame`]) |
//! | `ServeDone` | `u64 total \| epoch vector` |
//! | `Error` | `u16 code \| str detail` |
//!
//! `str` is `u32 len | UTF-8 bytes`; all integers little endian.

use cqc_common::error::Result;
use cqc_common::frame::{
    code, decode_epochs, decode_serve_tail, encode_epochs, encode_serve_tail, PayloadReader,
    PayloadWriter, ServeTail,
};
use cqc_common::{CqcError, Value};
use cqc_engine::{ServiceStats, ViewRow};
use cqc_storage::{Delta, Epoch};

/// A parsed register request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterReq {
    /// View name to bind.
    pub name: String,
    /// Conjunctive query text.
    pub query: String,
    /// Adornment pattern (`b`/`f` per head variable).
    pub pattern: String,
    /// Strategy token (the [`cqc_engine::Policy::parse`] grammar).
    pub strategy: String,
}

/// A parsed serve request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReq {
    /// Registered view name.
    pub view: String,
    /// Bound-variable values, pattern order.
    pub bound: Vec<Value>,
    /// The request's priority class and remaining deadline budget.
    pub tail: ServeTail,
}

/// Encodes a [`RegisterReq`] into `w` (cleared first).
pub fn encode_register(w: &mut PayloadWriter, req: &RegisterReq) {
    w.start()
        .put_str(&req.name)
        .put_str(&req.query)
        .put_str(&req.pattern)
        .put_str(&req.strategy);
}

/// Parses a [`RegisterReq`].
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation, non-UTF-8 strings, or trailing
/// bytes.
pub fn parse_register(payload: &[u8]) -> Result<RegisterReq> {
    let mut r = PayloadReader::new(payload);
    let req = RegisterReq {
        name: r.get_str()?.to_string(),
        query: r.get_str()?.to_string(),
        pattern: r.get_str()?.to_string(),
        strategy: r.get_str()?.to_string(),
    };
    reject_trailing(&r, "register")?;
    Ok(req)
}

/// Encodes a serve request into `w` (cleared first): the view, the bound
/// values, then the priority and budget (see
/// [`cqc_common::frame::encode_serve_tail`]).
pub fn encode_serve(w: &mut PayloadWriter, view: &str, bound: &[Value], tail: &ServeTail) {
    w.start().put_str(view).put_u16(bound.len() as u16);
    w.put_values(bound);
    encode_serve_tail(w, tail);
}

/// Parses a [`ServeReq`].
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation, non-UTF-8 strings, an unknown
/// priority byte, or trailing bytes.
pub fn parse_serve(payload: &[u8]) -> Result<ServeReq> {
    let mut r = PayloadReader::new(payload);
    let view = r.get_str()?.to_string();
    let n = r.get_u16()? as usize;
    let mut bound = Vec::with_capacity(n);
    r.get_values(n, &mut bound)?;
    let tail = decode_serve_tail(&mut r)?;
    reject_trailing(&r, "serve")?;
    Ok(ServeReq { view, bound, tail })
}

/// Encodes an update request into `w` (cleared first): the epoch-vector
/// precondition, empty for `None`, then the [`Delta`] in the
/// [`cqc_storage::wire`] layout the write-ahead log shares. Every epoch
/// vector has at least one entry, so an empty one is no precondition.
pub fn encode_update(w: &mut PayloadWriter, delta: &Delta, precondition: Option<&[Epoch]>) {
    encode_epochs(w.start(), precondition.unwrap_or_default());
    cqc_storage::wire::put_delta(w, delta);
}

/// Parses an update request into its [`Delta`] and its precondition
/// (`None` when the epoch vector is empty).
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation, non-UTF-8 strings, a tuple that ends
/// mid-value, or trailing bytes after the removes section.
pub fn parse_update(payload: &[u8]) -> Result<(Delta, Option<Vec<Epoch>>)> {
    let mut r = PayloadReader::new(payload);
    let precondition = decode_epochs(&mut r)?;
    let delta = cqc_storage::wire::read_delta(&mut r)?;
    reject_trailing(&r, "update")?;
    Ok((delta, (!precondition.is_empty()).then_some(precondition)))
}

fn reject_trailing(r: &PayloadReader<'_>, message: &str) -> Result<()> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(CqcError::Protocol {
            code: code::BAD_FRAME,
            detail: format!("{n} trailing bytes after the {message} payload"),
        }),
    }
}

/// Encodes a `ServeDone` payload (`u64 total | epoch vector`) into `w`
/// (cleared first).
pub fn encode_serve_done(w: &mut PayloadWriter, total: u64, epochs: &[Epoch]) {
    w.start().put_u64(total);
    encode_epochs(w, epochs);
}

/// Parses a `ServeDone` payload back into `(total, epochs)`.
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation.
pub fn parse_serve_done(payload: &[u8]) -> Result<(u64, Vec<Epoch>)> {
    let mut r = PayloadReader::new(payload);
    let total = r.get_u64()?;
    let epochs = decode_epochs(&mut r)?;
    Ok((total, epochs))
}

/// Encodes an epoch-vector-only payload (`RegisterOk`, `UpdateOk`,
/// `HealthOk`) into `w` (cleared first).
pub fn encode_epoch_reply(w: &mut PayloadWriter, epochs: &[Epoch]) {
    encode_epochs(w.start(), epochs);
}

/// Parses an epoch-vector-only payload.
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation.
pub fn parse_epoch_reply(payload: &[u8]) -> Result<Vec<Epoch>> {
    decode_epochs(&mut PayloadReader::new(payload))
}

/// The epoch a `StatsOk` view row carries for "nothing resident".
const NOT_RESIDENT: u64 = u64::MAX;

/// Encodes a `StatsOk` payload into `w` (cleared first): the counters,
/// then the view rows.
pub fn encode_stats(w: &mut PayloadWriter, stats: &ServiceStats) {
    w.start().put_u32(stats.counters.len() as u32);
    for (name, v) in &stats.counters {
        w.put_str(name).put_u64(*v);
    }
    w.put_u32(stats.views.len() as u32);
    for row in &stats.views {
        w.put_str(&row.name)
            .put_str(&row.recipe)
            .put_u64(row.tree_bytes)
            .put_u64(row.dict_bytes)
            .put_u64(row.base_bytes)
            .put_u64(row.build_work)
            .put_u64(row.epoch.unwrap_or(NOT_RESIDENT));
    }
}

/// Parses a `StatsOk` payload.
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation, non-UTF-8 strings, or trailing
/// bytes. A count is never trusted past the bytes that follow it.
pub fn parse_stats(payload: &[u8]) -> Result<ServiceStats> {
    let mut r = PayloadReader::new(payload);
    // Each counter takes at least 12 bytes, each row at least 48.
    let n = r.get_u32()? as usize;
    let mut counters = Vec::with_capacity(n.min(r.remaining() / 12));
    for _ in 0..n {
        counters.push((r.get_str()?.to_string(), r.get_u64()?));
    }
    let v = r.get_u32()? as usize;
    let mut views = Vec::with_capacity(v.min(r.remaining() / 48));
    for _ in 0..v {
        views.push(ViewRow {
            name: r.get_str()?.to_string(),
            recipe: r.get_str()?.to_string(),
            tree_bytes: r.get_u64()?,
            dict_bytes: r.get_u64()?,
            base_bytes: r.get_u64()?,
            build_work: r.get_u64()?,
            epoch: Some(r.get_u64()?).filter(|&e| e != NOT_RESIDENT),
        });
    }
    reject_trailing(&r, "stats")?;
    Ok(ServiceStats { counters, views })
}

/// Encodes an error payload (`u16 code | str detail`) into `w` (cleared
/// first).
pub fn encode_error(w: &mut PayloadWriter, e: &CqcError) {
    w.start()
        .put_u16(cqc_common::frame::error_code(e))
        .put_str(&e.to_string());
}

/// Parses an error payload back into the typed [`CqcError`] it encodes
/// (via [`cqc_common::frame::decode_error`]).
///
/// # Errors
///
/// [`code::BAD_FRAME`] on truncation — of the *carrier*; the carried
/// error comes back in the `Ok` arm by design.
pub fn parse_error(payload: &[u8]) -> Result<CqcError> {
    let mut r = PayloadReader::new(payload);
    let code_ = r.get_u16()?;
    let detail = r.get_str()?;
    Ok(cqc_common::frame::decode_error(code_, detail))
}

/// A typed refusal for an unexpected frame kind — the shared "the peer is
/// speaking out of turn" error both ends raise.
pub fn unexpected_frame(context: &str, kind: cqc_common::frame::FrameKind) -> CqcError {
    CqcError::Protocol {
        code: code::BAD_FRAME,
        detail: format!("unexpected {kind:?} frame {context}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_common::frame::ServePriority;

    fn assert_bad_frame(r: Result<impl std::fmt::Debug>, context: &str) {
        match r {
            Err(CqcError::Protocol {
                code: code::BAD_FRAME,
                ..
            }) => {}
            other => panic!("{context}: expected BAD_FRAME, got {other:?}"),
        }
    }

    #[test]
    fn register_round_trips() {
        let req = RegisterReq {
            name: "tri".into(),
            query: "V(x,y,z) :- R(x,y), S(y,z), T(z,x)".into(),
            pattern: "bff".into(),
            strategy: "tau:2".into(),
        };
        let mut w = PayloadWriter::new();
        encode_register(&mut w, &req);
        assert_eq!(parse_register(w.bytes()).unwrap(), req);
        let mut longer = w.bytes().to_vec();
        longer.push(0);
        assert_bad_frame(parse_register(&longer), "register plus one byte");
    }

    #[test]
    fn serve_round_trips() {
        let mut w = PayloadWriter::new();
        encode_serve(&mut w, "tri", &[7, 11], &ServeTail::default());
        let req = parse_serve(w.bytes()).unwrap();
        assert_eq!(req.view, "tri");
        assert_eq!(req.bound, vec![7, 11]);
        assert_eq!(req.tail, ServeTail::default());
        // Empty bound vectors (fff patterns) survive.
        encode_serve(&mut w, "all", &[], &ServeTail::default());
        assert!(parse_serve(w.bytes()).unwrap().bound.is_empty());
    }

    #[test]
    fn tailed_serve_round_trips() {
        for tail in [
            ServeTail {
                priority: ServePriority::Interactive,
                budget_ns: Some(2_000_000),
            },
            ServeTail {
                priority: ServePriority::Batch,
                budget_ns: None,
            },
            ServeTail {
                priority: ServePriority::Internal,
                budget_ns: Some(0),
            },
        ] {
            let mut w = PayloadWriter::new();
            encode_serve(&mut w, "tri", &[5], &tail);
            let req = parse_serve(w.bytes()).unwrap();
            assert_eq!(req.view, "tri");
            assert_eq!(req.bound, vec![5]);
            assert_eq!(req.tail, tail);
        }
        // A zero-bound serve keeps its priority and budget too.
        let tail = ServeTail {
            priority: ServePriority::Batch,
            budget_ns: Some(99),
        };
        let mut w = PayloadWriter::new();
        encode_serve(&mut w, "all", &[], &tail);
        assert_eq!(parse_serve(w.bytes()).unwrap().tail, tail);
    }

    #[test]
    fn garbage_after_serve_tail_is_rejected() {
        let mut w = PayloadWriter::new();
        encode_serve(&mut w, "tri", &[1], &ServeTail::default());
        let mut bytes = w.bytes().to_vec();
        bytes.push(0xEE);
        assert_bad_frame(parse_serve(&bytes), "trailing byte");
        // A truncated budget (a lone priority byte after the bound
        // values) is a typed BAD_FRAME too, never a silent default.
        let bytes = &w.bytes()[..w.bytes().len() - 8];
        assert_bad_frame(parse_serve(bytes), "priority byte alone");
    }

    #[test]
    fn update_round_trips() {
        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        delta.insert("R", vec![3, 4]);
        delta.insert("S", vec![5, 6]);
        let mut w = PayloadWriter::new();
        encode_update(&mut w, &delta, None);
        let (back, pre) = parse_update(w.bytes()).unwrap();
        assert_eq!(back.tuples_for("R").unwrap(), &[vec![1, 2], vec![3, 4]]);
        assert_eq!(back.tuples_for("S").unwrap(), &[vec![5, 6]]);
        assert_eq!(back.total_tuples(), 3);
        assert_eq!(pre, None);
    }

    #[test]
    fn mixed_update_round_trips() {
        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        delta.remove("R", vec![9, 9]);
        delta.remove("T", vec![7]);
        let mut w = PayloadWriter::new();
        encode_update(&mut w, &delta, None);
        assert_eq!(parse_update(w.bytes()).unwrap().0, delta);
        // Remove-only deltas survive too (empty insert section).
        let mut delta = Delta::new();
        delta.remove("S", vec![5, 6]);
        encode_update(&mut w, &delta, None);
        assert_eq!(parse_update(w.bytes()).unwrap().0, delta);
    }

    #[test]
    fn preconditioned_updates_round_trip() {
        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        let mut w = PayloadWriter::new();
        encode_update(&mut w, &delta, Some(&[3, 1, 4]));
        let (back, pre) = parse_update(w.bytes()).unwrap();
        assert_eq!(back, delta);
        assert_eq!(pre, Some(vec![3, 1, 4]));

        // Mixed delta + precondition.
        delta.remove("S", vec![9, 9]);
        encode_update(&mut w, &delta, Some(&[7]));
        let (back, pre) = parse_update(w.bytes()).unwrap();
        assert_eq!(back, delta);
        assert_eq!(pre, Some(vec![7]));

        // No precondition: `None`, same delta.
        encode_update(&mut w, &delta, None);
        let (back, pre) = parse_update(w.bytes()).unwrap();
        assert_eq!(back, delta);
        assert_eq!(pre, None);

        // Every epoch vector has an entry, so n = 0 on the wire is the
        // absent precondition: an empty one encodes as `None`.
        let mut insert_only = Delta::new();
        insert_only.insert("R", vec![5, 6]);
        encode_update(&mut w, &insert_only, Some(&[]));
        let empty = w.bytes().to_vec();
        encode_update(&mut w, &insert_only, None);
        assert_eq!(empty, w.bytes());
        assert_eq!(parse_update(&empty).unwrap().1, None);
    }

    #[test]
    fn trailing_garbage_after_update_is_rejected() {
        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        let mut w = PayloadWriter::new();
        encode_update(&mut w, &delta, Some(&[3]));
        let mut bytes = w.bytes().to_vec();
        bytes.push(0xEE);
        assert_bad_frame(parse_update(&bytes), "trailing byte");
    }

    #[test]
    fn hostile_prefixes_of_requests_are_bad_frames() {
        // Every strict prefix of a valid request, and the request plus one
        // byte, is a typed BAD_FRAME: never `Ok`, never a panic.
        let mut w = PayloadWriter::new();
        let tail = ServeTail {
            priority: ServePriority::Batch,
            budget_ns: Some(5_000_000),
        };
        encode_serve(&mut w, "tri", &[7, 11], &tail);
        let serve = w.bytes().to_vec();
        for cut in 0..serve.len() {
            assert_bad_frame(parse_serve(&serve[..cut]), &format!("serve cut at {cut}"));
        }
        let mut longer = serve.clone();
        longer.push(0);
        assert_bad_frame(parse_serve(&longer), "serve plus one byte");

        let mut delta = Delta::new();
        delta.insert("R", vec![1, 2]);
        delta.insert("S", vec![3, 4]);
        delta.remove("R", vec![5, 6]);
        encode_update(&mut w, &delta, Some(&[2, 9]));
        let update = w.bytes().to_vec();
        // The one exception: the removes section is optional in the
        // layout the write-ahead log shares, so the prefix that ends with
        // the insert section parses as the insert-only delta.
        let mut inserts_only = Delta::new();
        inserts_only.insert("R", vec![1, 2]);
        inserts_only.insert("S", vec![3, 4]);
        let mut probe = PayloadWriter::new();
        encode_update(&mut probe, &inserts_only, Some(&[2, 9]));
        let insert_end = probe.bytes().len();
        assert_eq!(&update[..insert_end], probe.bytes());
        for cut in 0..update.len() {
            let parsed = parse_update(&update[..cut]);
            if cut == insert_end {
                assert_eq!(parsed.unwrap(), (inserts_only.clone(), Some(vec![2, 9])));
            } else {
                assert_bad_frame(parsed, &format!("update cut at {cut}"));
            }
        }
        let mut longer = update.clone();
        longer.push(0);
        assert_bad_frame(parse_update(&longer), "update plus one byte");
        assert_eq!(parse_update(&update).unwrap(), (delta, Some(vec![2, 9])));
    }

    #[test]
    fn serve_done_and_epoch_replies_round_trip() {
        let mut w = PayloadWriter::new();
        encode_serve_done(&mut w, 42, &[3, 1, 4]);
        assert_eq!(parse_serve_done(w.bytes()).unwrap(), (42, vec![3, 1, 4]));
        encode_epoch_reply(&mut w, &[9]);
        assert_eq!(parse_epoch_reply(w.bytes()).unwrap(), vec![9]);
    }

    #[test]
    fn stats_round_trip_and_prefixes_are_bad_frames() {
        let stats = ServiceStats {
            counters: vec![
                ("catalog.hits".into(), 7),
                ("admission.admitted".into(), u64::MAX),
            ],
            views: vec![
                ViewRow {
                    name: "lo".into(),
                    recipe: "theorem-1 τ=8".into(),
                    tree_bytes: 120,
                    dict_bytes: 368,
                    base_bytes: 2400,
                    build_work: 3,
                    epoch: Some(0),
                },
                ViewRow {
                    name: "evicted".into(),
                    ..ViewRow::default()
                },
            ],
        };
        let mut w = PayloadWriter::new();
        encode_stats(&mut w, &stats);
        let bytes = w.bytes().to_vec();
        assert_eq!(parse_stats(&bytes).unwrap(), stats);
        for cut in 0..bytes.len() {
            assert_bad_frame(parse_stats(&bytes[..cut]), "stats prefix");
        }
        let mut longer = bytes;
        longer.push(0);
        assert_bad_frame(parse_stats(&longer), "stats and one byte");
        // A count past the bytes reserves nothing it cannot fill.
        assert_bad_frame(parse_stats(&u32::MAX.to_le_bytes()), "huge count");
    }

    #[test]
    fn errors_round_trip_typed() {
        let mut w = PayloadWriter::new();
        encode_error(&mut w, &CqcError::UnknownView("ghost".into()));
        let back = parse_error(w.bytes()).unwrap();
        assert!(matches!(back, CqcError::UnknownView(_)), "{back}");
        let deadline = CqcError::Protocol {
            code: code::DEADLINE,
            detail: "deadline elapsed".into(),
        };
        encode_error(&mut w, &deadline);
        let back = parse_error(w.bytes()).unwrap();
        assert!(
            matches!(
                back,
                CqcError::Protocol {
                    code: code::DEADLINE,
                    ..
                }
            ),
            "{back}"
        );
    }
}
