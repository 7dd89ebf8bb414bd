//! The shard server: a [`cqc_engine::BlockService`] behind a TCP listener.
//!
//! One OS thread per connection (the fleet model is few, long-lived
//! connections — a router holds one per shard), each running a
//! read-dispatch-reply loop over the frame codec. Three service
//! properties the ISSUE requires are enforced here rather than in the
//! engine:
//!
//! * **deadlines** — a serve request gets `request_deadline` of wall
//!   time, tightened by the request's own wire-carried deadline budget
//!   when its [`cqc_common::frame::ServeTail`] bounds one; the streaming
//!   sink checks the clock every `DEADLINE_CHECK_MASK + 1` answers and
//!   stops the enumeration through the push-sink early-stop hook, so a
//!   runaway request costs bounded server time and the client gets a
//!   typed [`code::DEADLINE`] error. A request whose budget is spent on
//!   arrival — or cannot cover the view's measured serve cost, an
//!   estimate the server keeps per view from the serves it times
//!   ([`AdmissionController::serve_cost_ns`]) — is shed before any
//!   enumeration work;
//! * **backpressure** — serve requests run through an
//!   [`AdmissionController`]: `max_inflight` concurrent serves, a small
//!   bounded wait queue with priority-aware adaptive-LIFO shedding, and
//!   a brownout mode that sheds Batch before Interactive under
//!   sustained overload (typed [`code::REFUSED`] / [`code::DEADLINE`]
//!   frames, never unbounded buffering). Health, stats and update frames
//!   are dispatched inline on their connection thread and are **never**
//!   queued behind serves;
//! * **cancellation** — a client that hangs up mid-stream turns the next
//!   chunk flush into a write error, which the sink converts into the
//!   same early stop: enumeration halts mid-block, not at stream end.

use cqc_common::error::Result;
use cqc_common::frame::{code, FrameKind, FrameReader, PayloadWriter};
use cqc_common::{AnswerBlock, AnswerSink, CqcError, Value};
use cqc_engine::{BlockService, ServiceStats};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats};
use crate::protocol;

/// The sink checks the deadline every `DEADLINE_CHECK_MASK + 1` pushes
/// (power of two, so the check compiles to a mask test).
const DEADLINE_CHECK_MASK: u64 = 255;

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Serve requests allowed in flight at once across all connections;
    /// excess requests wait in the bounded admission queue or are shed
    /// with a typed [`code::REFUSED`] error frame.
    pub max_inflight: usize,
    /// Admission wait-queue depth behind the in-flight slots (see
    /// [`AdmissionConfig::queue_depth`]); zero sheds immediately at
    /// capacity, which is the pre-admission-controller behavior.
    pub queue_depth: usize,
    /// Saturation duration before brownout sheds Batch-class serves on
    /// arrival (see [`AdmissionConfig::brownout_after`]).
    pub brownout_after: Duration,
    /// Wall-time budget per serve request; `None` disables the deadline.
    /// A tighter wire-carried deadline budget always wins.
    pub request_deadline: Option<Duration>,
    /// Answers per chunk frame (the latency/overhead trade: chunks are
    /// flushed to the socket as they fill).
    pub chunk_tuples: usize,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            max_inflight: 64,
            queue_depth: 16,
            brownout_after: Duration::from_secs(1),
            request_deadline: Some(Duration::from_secs(30)),
            chunk_tuples: 1024,
        }
    }
}

impl NetServerConfig {
    /// The admission-controller limits this config implies.
    pub fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            max_inflight: self.max_inflight,
            queue_depth: self.queue_depth,
            brownout_after: self.brownout_after,
        }
    }
}

/// A running server: the bound address plus the shutdown control.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    admission: Arc<AdmissionController>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's admission counters (admitted vs shed
    /// by class and reason) — what the overload bench gates on.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Stops accepting, hangs up every live connection, and joins the
    /// accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: it re-checks the stop flag per
        // iteration, so one throwaway connection is enough.
        let _ = TcpStream::connect(self.addr);
        for conn in self.conns.lock().expect("conn list poisoned").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A TCP front for one [`BlockService`].
#[derive(Debug)]
pub struct NetServer;

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves `service` until the
    /// returned handle shuts down. Connection threads are detached; the
    /// handle's shutdown hangs their sockets up, which ends their loops.
    ///
    /// # Errors
    ///
    /// Bind failures as [`CqcError::Io`].
    pub fn spawn(
        service: Arc<dyn BlockService>,
        addr: &str,
        config: NetServerConfig,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let admission = Arc::new(AdmissionController::new(config.admission()));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let accept_admission = Arc::clone(&admission);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Chunk streams are many small sequential writes; without
                // this, Nagle + delayed ACK stalls every reply ~40 ms.
                stream.set_nodelay(true).ok();
                if let Ok(tracked) = stream.try_clone() {
                    accept_conns
                        .lock()
                        .expect("conn list poisoned")
                        .push(tracked);
                }
                let service = Arc::clone(&service);
                let admission = Arc::clone(&accept_admission);
                std::thread::spawn(move || {
                    handle_connection(&*service, stream, config, &admission);
                });
            }
        });
        Ok(ServerHandle {
            addr: bound,
            stop,
            conns,
            accept_thread: Some(accept_thread),
            admission,
        })
    }
}

/// The streaming serve sink: buffers answers into a reusable block and
/// flushes a chunk frame whenever it fills. Deadline hits and socket
/// failures both stop the enumeration by returning `false` from `push` —
/// the cooperative-cancellation hook — and are recorded for the dispatch
/// loop to translate into an error frame (or a hangup).
struct ChunkSink<'w, W: Write> {
    writer: &'w mut W,
    payload: PayloadWriter,
    block: AnswerBlock,
    chunk_tuples: usize,
    deadline: Option<Instant>,
    pushes: u64,
    total: u64,
    failure: Option<CqcError>,
}

impl<'w, W: Write> ChunkSink<'w, W> {
    fn new(writer: &'w mut W, chunk_tuples: usize, deadline: Option<Instant>) -> ChunkSink<'w, W> {
        ChunkSink {
            writer,
            payload: PayloadWriter::new(),
            block: AnswerBlock::new(),
            chunk_tuples: chunk_tuples.max(1),
            deadline,
            pushes: 0,
            total: 0,
            failure: None,
        }
    }

    fn flush_chunk(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        cqc_common::frame::encode_chunk(&mut self.payload, &self.block, 0, self.block.len());
        cqc_common::frame::write_frame(self.writer, FrameKind::Chunk, self.payload.bytes())?;
        self.block.clear();
        Ok(())
    }

    /// Flushes the tail chunk; the sink's work is done after this.
    fn finish(&mut self) -> Result<()> {
        self.flush_chunk()
    }
}

impl<W: Write> AnswerSink for ChunkSink<'_, W> {
    fn push(&mut self, tuple: &[Value]) -> bool {
        // Check the deadline on push 0 and every MASK+1 thereafter, so a
        // zero deadline fires before any work and a long stream pays one
        // clock read per few hundred answers.
        if self.pushes & DEADLINE_CHECK_MASK == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.failure = Some(CqcError::Protocol {
                        code: code::DEADLINE,
                        detail: format!("request deadline elapsed after {} answers", self.total),
                    });
                    return false;
                }
            }
        }
        self.pushes += 1;
        self.block.push(tuple);
        self.total += 1;
        if self.block.len() >= self.chunk_tuples {
            if let Err(e) = self.flush_chunk() {
                // Socket gone (client cancelled) or codec refusal: stop
                // enumerating mid-block.
                self.failure = Some(e);
                return false;
            }
        }
        true
    }
}

fn send_error(writer: &mut impl Write, payload: &mut PayloadWriter, e: &CqcError) -> Result<()> {
    protocol::encode_error(payload, e);
    cqc_common::frame::write_frame(writer, FrameKind::Error, payload.bytes())?;
    writer.flush()?;
    Ok(())
}

fn send_epochs(
    writer: &mut impl Write,
    payload: &mut PayloadWriter,
    kind: FrameKind,
    epochs: &[u64],
) -> Result<()> {
    protocol::encode_epoch_reply(payload, epochs);
    cqc_common::frame::write_frame(writer, kind, payload.bytes())?;
    writer.flush()?;
    Ok(())
}

fn send_stats(
    writer: &mut impl Write,
    payload: &mut PayloadWriter,
    stats: &ServiceStats,
) -> Result<()> {
    protocol::encode_stats(payload, stats);
    cqc_common::frame::write_frame(writer, FrameKind::StatsOk, payload.bytes())?;
    writer.flush()?;
    Ok(())
}

/// One connection's read-dispatch-reply loop. Request-level failures are
/// answered with an error frame and the connection stays up; transport
/// failures (peer gone, malformed frame) end the loop.
///
/// Only [`FrameKind::Serve`] passes through admission control: health
/// and statistics probes and updates are answered inline right here, so
/// a saturated serve queue can never starve liveness checks, the
/// operator's view of the server, or writes.
fn handle_connection(
    service: &dyn BlockService,
    stream: TcpStream,
    config: NetServerConfig,
    admission: &AdmissionController,
) {
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(stream);
    let mut frames = FrameReader::new();
    let mut payload = PayloadWriter::new();
    loop {
        let (kind, body) = match frames.read_frame(&mut read_half) {
            Ok(f) => f,
            Err(e @ CqcError::Protocol { .. }) => {
                // Tell the peer why before hanging up (best effort: it may
                // be speaking a different protocol entirely).
                let _ = send_error(&mut writer, &mut payload, &e);
                return;
            }
            Err(_) => return, // peer disconnected
        };
        let outcome: Result<()> = match kind {
            FrameKind::Health => send_epochs(
                &mut writer,
                &mut payload,
                FrameKind::HealthOk,
                &service.version(),
            ),
            FrameKind::Stats => match service.stats() {
                Ok(mut stats) => {
                    stats.extend("admission", admission.stats().pairs());
                    send_stats(&mut writer, &mut payload, &stats)
                }
                Err(e) => send_error(&mut writer, &mut payload, &e),
            },
            FrameKind::Register => match protocol::parse_register(body)
                .and_then(|r| service.register_view(&r.name, &r.query, &r.pattern, &r.strategy))
            {
                Ok(epochs) => {
                    send_epochs(&mut writer, &mut payload, FrameKind::RegisterOk, &epochs)
                }
                Err(e) => send_error(&mut writer, &mut payload, &e),
            },
            FrameKind::Update => {
                match protocol::parse_update(body).and_then(|(delta, precondition)| {
                    service.apply_update_preconditioned(&delta, precondition.as_deref())
                }) {
                    Ok(epochs) => {
                        send_epochs(&mut writer, &mut payload, FrameKind::UpdateOk, &epochs)
                    }
                    Err(e) => send_error(&mut writer, &mut payload, &e),
                }
            }
            FrameKind::Serve => {
                serve_one(service, body, &mut writer, &mut payload, &config, admission)
            }
            other => {
                let _ = send_error(
                    &mut writer,
                    &mut payload,
                    &protocol::unexpected_frame("as a request", other),
                );
                return;
            }
        };
        if outcome.is_err() {
            return; // the reply could not be written: connection is dead
        }
    }
}

/// Dispatches one serve request: decode its deadline budget and priority,
/// shed budget-dead requests before any work, run admission, then stream
/// chunks under the effective deadline and close with `ServeDone` or an
/// error frame.
fn serve_one(
    service: &dyn BlockService,
    body: &[u8],
    writer: &mut BufWriter<TcpStream>,
    payload: &mut PayloadWriter,
    config: &NetServerConfig,
    admission: &AdmissionController,
) -> Result<()> {
    let req = match protocol::parse_serve(body) {
        Ok(r) => r,
        Err(e) => return send_error(writer, payload, &e),
    };
    let tail = req.tail;
    let arrived = Instant::now();
    let wire_deadline = tail.budget_ns.map(|ns| arrived + Duration::from_nanos(ns));
    // Cost, expired-on-arrival and overload shedding live in the
    // controller; the wire deadline also bounds queue wait.
    let permit = match admission
        .shed_on_cost(&req.view, tail.priority, tail.budget_ns)
        .and_then(|()| admission.admit(tail.priority, wire_deadline))
    {
        Ok(p) => p,
        Err(e) => return send_error(writer, payload, &e),
    };
    // The serving deadline is the tighter of the server's own budget
    // (counted from admission, not arrival — queue wait already charged
    // against the wire budget) and the request's wire budget.
    let own_deadline = config.request_deadline.map(|d| Instant::now() + d);
    let deadline = match (own_deadline, wire_deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let mut sink = ChunkSink::new(writer, config.chunk_tuples, deadline);
    let started = Instant::now();
    let served = service.serve_into(&req.view, &req.bound, &mut sink);
    // The serves that actually happen feed the cost estimate, early-stopped
    // streams included: the wall time a caller paid is the wall time the
    // estimate needs.
    if served.is_ok() {
        admission.observe_serve_cost(&req.view, started.elapsed().as_nanos() as u64);
    }
    let failure = sink.failure.take();
    let total = sink.total;
    let tail_flush = match failure {
        None => sink.finish(),
        Some(_) => Ok(()),
    };
    drop(permit);
    match (served, failure, tail_flush) {
        (Err(e), _, _) => send_error(writer, payload, &e),
        (Ok(_), Some(CqcError::Io(m)), _) => Err(CqcError::Io(m)), // peer gone mid-stream
        (Ok(_), Some(e), _) => send_error(writer, payload, &e),    // deadline
        (Ok(_), None, Err(e)) => Err(e),                           // tail flush failed: peer gone
        (Ok(_), None, Ok(())) => {
            protocol::encode_serve_done(payload, total, &service.version());
            cqc_common::frame::write_frame(writer, FrameKind::ServeDone, payload.bytes())?;
            writer.flush()?;
            Ok(())
        }
    }
}
