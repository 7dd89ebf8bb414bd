//! The shard client: one connection to one [`crate::server::NetServer`].
//!
//! A [`ShardClient`] is deliberately dumb — a blocking request/response
//! (or request/stream) machine over a single TCP connection — with
//! exactly the resilience the ISSUE asks for:
//!
//! * **retry on connect failure** with exponential backoff capped at
//!   [`ClientConfig::backoff_cap`] (a restarting shard server is
//!   reachable again within a few attempts);
//! * **client-side deadlines** via socket read/write timeouts, so a
//!   stalled or dead server bounds the caller's wait;
//! * **poison on failure**: a connection that errored — I/O, or a serve
//!   stream that ended in anything but a fully parsed `ServeDone`/`Error`
//!   frame — is dropped and lazily re-established on the next request,
//!   never reused in an unknown framing state;
//! * **refusal handling**: a [`code::REFUSED`] backpressure reply is
//!   retried after a backoff, up to a small bound, before surfacing —
//!   each retry capped by the caller's [`Deadline`] and charged against
//!   the optional per-destination [`RetryBudget`], so a browning-out
//!   server is never hammered with free retries;
//! * **deadline propagation**: [`ShardClient::serve_with_sink_opts`] —
//!   the one serve call — puts the caller's remaining budget and
//!   priority class in every serve frame, so the server can shed doomed
//!   work before enumeration. [`ShardClient::serve_with_sink`] spells
//!   the default (Interactive, unbounded) case.
//!
//! [`RemoteShard`] wraps a client in a mutex to implement
//! [`BlockService`], which makes a remote server interchangeable with a
//! local [`cqc_engine::Engine`] behind the same trait object.

use cqc_common::error::Result;
use cqc_common::frame::{code, FrameKind, FrameReader, PayloadWriter, ServePriority, ServeTail};
use cqc_common::{AnswerBlock, AnswerSink, CqcError, Value};
use cqc_engine::{BlockService, ServiceStats};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::budget::RetryBudget;
use crate::protocol::{self, RegisterReq};
use crate::replica::Deadline;
use cqc_storage::{Delta, Epoch};

/// Tuning for a [`ShardClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Connection attempts before giving up (≥ 1).
    pub connect_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Socket read/write timeout — the client-side per-request deadline.
    /// `None` waits forever.
    pub io_timeout: Option<Duration>,
    /// How many times a [`code::REFUSED`] backpressure reply is retried
    /// (with backoff) before surfacing to the caller. A
    /// [`crate::ReplicaGroup`] ignores it: its budgeted attempts are the
    /// only retries under a group, so its replica clients retry none.
    pub refused_retries: u32,
    /// Seed for the deterministic backoff jitter. A fleet derives this
    /// per client via [`crate::backoff::lane_seed`] so clients that fail
    /// together do not retry in lockstep; equal seeds reproduce equal
    /// backoff sequences (no `rand` anywhere in `cqc-net`).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_attempts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            io_timeout: Some(Duration::from_secs(5)),
            refused_retries: 3,
            jitter_seed: 0,
        }
    }
}

impl ClientConfig {
    fn backoff(&self, attempt: u32) -> Duration {
        Backoff::new(self.backoff_base, self.backoff_cap, self.jitter_seed).delay(attempt)
    }
}

/// One blocking connection to a shard server (or a router — the wire is
/// the same either way).
#[derive(Debug)]
pub struct ShardClient {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    frames: FrameReader,
    payload: PayloadWriter,
    bytes_out: u64,
    retry_budget: Option<Arc<RetryBudget>>,
}

impl ShardClient {
    /// A client for `addr` (connects lazily on first use).
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> ShardClient {
        ShardClient {
            addr: addr.into(),
            config,
            stream: None,
            frames: FrameReader::new(),
            payload: PayloadWriter::new(),
            bytes_out: 0,
            retry_budget: None,
        }
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Attaches a (typically shared) retry budget: every REFUSED-retry
    /// this client takes spends a token, every successful serve earns a
    /// fraction back, and an empty bucket turns the retry into immediate
    /// backpressure. `None` (the default) retries on the config bound
    /// alone.
    pub fn set_retry_budget(&mut self, budget: Option<Arc<RetryBudget>>) {
        self.retry_budget = budget;
    }

    /// Rebinds the socket read/write timeout, applying it to the live
    /// connection immediately (if any). The failover layer uses this to
    /// cap each attempt's wait by the *remaining* request deadline, so a
    /// retry can never overrun what the caller budgeted.
    ///
    /// # Errors
    ///
    /// [`CqcError::Io`] if the live socket rejects the timeout.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.config.io_timeout = timeout;
        if let Some(stream) = self.stream.as_ref() {
            stream.set_read_timeout(timeout)?;
            stream.set_write_timeout(timeout)?;
        }
        Ok(())
    }

    /// Wire traffic so far: `(bytes received, bytes sent)`, frame headers
    /// included.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.frames.bytes_read(), self.bytes_out)
    }

    /// Connects if not already connected, retrying with capped
    /// exponential backoff.
    ///
    /// # Errors
    ///
    /// The last connect failure as [`CqcError::Io`].
    pub fn ensure_connected(&mut self) -> Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let attempts = self.config.connect_attempts.max(1);
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.config.backoff(attempt - 1));
            }
            match TcpStream::connect(&self.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(self.config.io_timeout)?;
                    stream.set_write_timeout(self.config.io_timeout)?;
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(CqcError::Io(format!(
            "connect to {} failed after {attempts} attempts: {}",
            self.addr,
            last.expect("at least one attempt")
        )))
    }

    /// Drops the connection; the next request reconnects. Called
    /// internally after any I/O failure (the framing state is unknown).
    pub fn poison(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    fn write_frame(&mut self, kind: FrameKind) -> Result<()> {
        let stream = self.stream.as_mut().expect("connected");
        cqc_common::frame::write_frame(stream, kind, self.payload.bytes())?;
        stream.flush()?;
        self.bytes_out += 6 + self.payload.bytes().len() as u64;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<(FrameKind, &[u8])> {
        let stream = self.stream.as_mut().expect("connected");
        self.frames.read_frame(stream)
    }

    /// Sends the already-encoded payload as `kind` and reads one reply
    /// frame, poisoning the connection on any I/O failure.
    fn round_trip(&mut self, kind: FrameKind) -> Result<(FrameKind, Vec<u8>)> {
        self.ensure_connected()?;
        let outcome = (|| {
            self.write_frame(kind)?;
            let (k, body) = self.read_frame()?;
            Ok((k, body.to_vec()))
        })();
        if matches!(outcome, Err(CqcError::Io(_))) {
            self.poison();
        }
        outcome
    }

    fn expect_epochs(&mut self, kind: FrameKind, want: FrameKind) -> Result<Vec<Epoch>> {
        let (got, body) = self.round_trip(kind)?;
        match got {
            k if k == want => protocol::parse_epoch_reply(&body),
            FrameKind::Error => Err(protocol::parse_error(&body)?),
            other => Err(protocol::unexpected_frame("in reply", other)),
        }
    }

    /// Health probe: returns the server's epoch vector.
    ///
    /// # Errors
    ///
    /// Transport failures and remote errors, typed.
    pub fn health(&mut self) -> Result<Vec<Epoch>> {
        self.payload.start();
        self.expect_epochs(FrameKind::Health, FrameKind::HealthOk)
    }

    /// Statistics probe: the server's [`ServiceStats`], its admission
    /// counters among them. Answered ahead of admission, like a health
    /// probe.
    ///
    /// # Errors
    ///
    /// Transport failures and remote errors, typed.
    pub fn stats(&mut self) -> Result<ServiceStats> {
        self.payload.start();
        let (got, body) = self.round_trip(FrameKind::Stats)?;
        match got {
            FrameKind::StatsOk => protocol::parse_stats(&body),
            FrameKind::Error => Err(protocol::parse_error(&body)?),
            other => Err(protocol::unexpected_frame("in reply", other)),
        }
    }

    /// Registers a view; returns the epoch vector at registration.
    ///
    /// # Errors
    ///
    /// Transport failures and remote registration errors, typed.
    pub fn register(&mut self, req: &RegisterReq) -> Result<Vec<Epoch>> {
        protocol::encode_register(&mut self.payload, req);
        self.expect_epochs(FrameKind::Register, FrameKind::RegisterOk)
    }

    /// Applies a delta; returns the post-delta epoch vector. With a
    /// `precondition` (the last-known epoch vector) the server applies
    /// the delta only if its version still equals it, else replies with a
    /// typed [`code::EPOCH_MISMATCH`]. This is what makes retrying an
    /// update after an ambiguous I/O failure safe — a retry of a delta
    /// that already landed is rejected, never double-applied (probe
    /// [`ShardClient::health`]: a version exactly one bump past the
    /// precondition means the first attempt applied).
    ///
    /// # Errors
    ///
    /// Transport failures and remote update errors, typed;
    /// [`code::EPOCH_MISMATCH`] when the precondition no longer holds.
    pub fn update(&mut self, delta: &Delta, precondition: Option<&[Epoch]>) -> Result<Vec<Epoch>> {
        protocol::encode_update(&mut self.payload, delta, precondition);
        self.expect_epochs(FrameKind::Update, FrameKind::UpdateOk)
    }

    /// Serves one request, streaming every chunk into `sink`:
    /// [`ShardClient::serve_with_sink_opts`] at Interactive priority with
    /// no deadline.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ShardClient::serve_with_sink_opts`].
    pub fn serve_with_sink(
        &mut self,
        view: &str,
        bound: &[Value],
        sink: &mut dyn AnswerSink,
    ) -> Result<(u64, Vec<Epoch>)> {
        self.serve_with_sink_opts(
            view,
            bound,
            sink,
            ServePriority::Interactive,
            Deadline::within(None, Instant::now()),
        )
    }

    /// Serves one request under an explicit priority class and deadline,
    /// streaming every chunk into `sink` (an [`AnswerBlock`] appends).
    /// Returns `(answers pushed, epoch vector observed at serve time)`. If
    /// the sink stops the stream early, the client hangs the connection up
    /// — the server's next chunk write fails and its enumeration stops
    /// cooperatively mid-block — and returns what was pushed, with an
    /// empty epoch vector.
    ///
    /// The priority and the deadline's remaining budget travel in the
    /// serve frame, re-measured at each attempt so the server always sees
    /// the budget that actually remains. A [`code::REFUSED`] backpressure
    /// reply is retried with backoff, capped by the deadline and gated on
    /// the attached [`RetryBudget`] (if any); a drained budget surfaces
    /// the server's refusal instead of retrying.
    ///
    /// # Errors
    ///
    /// Transport failures and remote serve errors, typed; a connection
    /// that fails mid-stream — I/O error, malformed frame — is poisoned,
    /// so the next request starts on a fresh one. A typed
    /// [`code::DEADLINE`] when the budget expires between retries.
    pub fn serve_with_sink_opts(
        &mut self,
        view: &str,
        bound: &[Value],
        sink: &mut dyn AnswerSink,
        priority: ServePriority,
        deadline: Deadline,
    ) -> Result<(u64, Vec<Epoch>)> {
        let mut refusals = 0u32;
        loop {
            match self.serve_attempt(view, bound, sink, priority, deadline) {
                Err(CqcError::Protocol { code: c, detail })
                    if c == code::REFUSED && refusals < self.config.refused_retries =>
                {
                    deadline.check("before a refused-serve retry", Instant::now())?;
                    if let Some(budget) = &self.retry_budget {
                        if !budget.try_spend() {
                            // Backpressure, not failure: surface the
                            // server's refusal rather than amplify it.
                            return Err(CqcError::Protocol {
                                code: code::REFUSED,
                                detail: format!("retry budget exhausted; last refusal: {detail}"),
                            });
                        }
                    }
                    std::thread::sleep(deadline.cap(self.config.backoff(refusals), Instant::now()));
                    refusals += 1;
                }
                other => {
                    if other.is_ok() {
                        if let Some(budget) = &self.retry_budget {
                            budget.record_success();
                        }
                    }
                    return other;
                }
            }
        }
    }

    fn serve_attempt(
        &mut self,
        view: &str,
        bound: &[Value],
        sink: &mut dyn AnswerSink,
        priority: ServePriority,
        deadline: Deadline,
    ) -> Result<(u64, Vec<Epoch>)> {
        self.ensure_connected()?;
        let tail = ServeTail {
            priority,
            budget_ns: deadline
                .remaining(Instant::now())
                .map(|r| u64::try_from(r.as_nanos()).unwrap_or(u64::MAX - 1)),
        };
        protocol::encode_serve(&mut self.payload, view, bound, &tail);
        if let Err(e) = self.write_frame(FrameKind::Serve) {
            self.poison();
            return Err(e);
        }
        let mut scratch = AnswerBlock::new();
        let mut pushed = 0u64;
        // The arity of the stream's first chunk, which every later chunk
        // must repeat: the caller's sink is one block of one arity.
        let mut arity = None;
        // Every exit below that is not a fully parsed `ServeDone` or
        // `Error` frame leaves the server mid-stream: poison, or the next
        // request on this connection reads this one's remaining frames as
        // its own reply.
        loop {
            let stream = self.stream.as_mut().expect("connected");
            // `Ok(None)`: a chunk landed in `scratch`; `Ok(Some(_))`: the
            // stream ended cleanly with the server's verdict.
            let frame = match self.frames.read_frame(stream) {
                Ok((FrameKind::Chunk, body)) => {
                    scratch.reset();
                    cqc_common::frame::decode_chunk_into(body, &mut scratch)
                        .and_then(|_| check_chunk_shape(&mut arity, &scratch, pushed))
                        .map(|()| None)
                }
                Ok((FrameKind::ServeDone, body)) => {
                    protocol::parse_serve_done(body).map(|(_total, epochs)| Some(Ok(epochs)))
                }
                Ok((FrameKind::Error, body)) => protocol::parse_error(body).map(|e| Some(Err(e))),
                Ok((other, _)) => Err(protocol::unexpected_frame("in a serve stream", other)),
                Err(e) => Err(e),
            };
            match frame {
                Err(e) => {
                    self.poison();
                    return Err(e);
                }
                Ok(Some(verdict)) => return verdict.map(|epochs| (pushed, epochs)),
                Ok(None) => {}
            }
            for t in scratch.iter() {
                pushed += 1;
                if !sink.push(t) {
                    // Cooperative cancellation: hang up so the server's
                    // next flush fails and its enumeration early-stops.
                    self.poison();
                    return Ok((pushed, Vec::new()));
                }
            }
        }
    }
}

/// Checks a decoded chunk against the stream it arrived in, before any of
/// its answers reach the caller's sink: its arity must be the stream's
/// (`arity` adopts the first chunk's), and a zero-arity stream holds at
/// most one answer — a full CQ whose head is all bound has at most the
/// empty tuple — so a tiny frame cannot claim billions of them.
///
/// # Errors
///
/// A typed [`code::BAD_FRAME`] naming the violation.
fn check_chunk_shape(arity: &mut Option<usize>, chunk: &AnswerBlock, pushed: u64) -> Result<()> {
    let stream_arity = *arity.get_or_insert(chunk.arity());
    let claimed = pushed + chunk.len() as u64;
    let detail = if chunk.arity() != stream_arity {
        format!(
            "chunk of arity {} in a stream of arity {stream_arity}",
            chunk.arity()
        )
    } else if stream_arity == 0 && claimed > 1 {
        format!("zero-arity stream claims {claimed} answers; at most one exists")
    } else {
        return Ok(());
    };
    Err(CqcError::Protocol {
        code: code::BAD_FRAME,
        detail,
    })
}

/// A remote shard server as a [`BlockService`]: lock, speak the wire,
/// return. With this, `Engine` (local), `ShardedEngine` (cores) and a
/// remote server (network) are interchangeable behind one trait object.
#[derive(Debug)]
pub struct RemoteShard {
    client: Mutex<ShardClient>,
}

impl RemoteShard {
    /// Wraps a client.
    pub fn new(client: ShardClient) -> RemoteShard {
        RemoteShard {
            client: Mutex::new(client),
        }
    }

    /// A client for `addr` with `config` (connects lazily).
    pub fn connect(addr: impl Into<String>, config: ClientConfig) -> RemoteShard {
        RemoteShard::new(ShardClient::new(addr, config))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardClient> {
        self.client.lock().expect("shard client poisoned")
    }
}

impl BlockService for RemoteShard {
    fn register_view(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        strategy: &str,
    ) -> Result<Vec<Epoch>> {
        self.lock().register(&RegisterReq {
            name: name.into(),
            query: query_text.into(),
            pattern: pattern.into(),
            strategy: strategy.into(),
        })
    }

    fn serve_into(&self, view: &str, bound: &[Value], sink: &mut dyn AnswerSink) -> Result<usize> {
        let (pushed, _epochs) = self.lock().serve_with_sink(view, bound, sink)?;
        Ok(pushed as usize)
    }

    fn apply_update(&self, delta: &Delta) -> Result<Vec<Epoch>> {
        self.lock().update(delta, None)
    }

    fn version(&self) -> Vec<Epoch> {
        self.lock().health().unwrap_or_default()
    }

    fn stats(&self) -> Result<ServiceStats> {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_backoff_delegates_to_the_shared_schedule() {
        let config = ClientConfig {
            jitter_seed: 17,
            ..ClientConfig::default()
        };
        for attempt in 0..6u32 {
            assert_eq!(
                config.backoff(attempt),
                Backoff::new(config.backoff_base, config.backoff_cap, 17).delay(attempt)
            );
        }
    }
}
