//! Scripted fault injection for the chaos harness.
//!
//! [`ChaosService`] wraps any [`BlockService`] and misbehaves on
//! command: stall before answering, refuse with typed backpressure, lie
//! about the epoch vector, or die mid-stream after N answers. Faults are
//! switched at runtime (the schedule of `cqc-bench`'s `chaos` binary
//! flips them between requests), deterministic, and strictly
//! additive — [`Fault::None`] is bit-for-bit the wrapped service.
//!
//! Process-level kills are *not* simulated here: the harness really
//! shuts the `NetServer` down (and later respawns it on the same port
//! over the same engine), so connect failures, poisoned connections,
//! and replica rejoin all exercise the genuine code paths.

use cqc_common::error::Result;
use cqc_common::frame::code;
use cqc_common::{AnswerSink, CqcError, Value};
use cqc_engine::{BlockService, ServiceStats};
use cqc_storage::{Delta, Epoch};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The injectable misbehaviors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Behave exactly like the wrapped service.
    None,
    /// Sleep this long before serving (a stalled replica; the client's
    /// socket timeout is expected to fire first).
    Stall(Duration),
    /// Refuse every serve with typed [`code::REFUSED`] backpressure.
    Refuse,
    /// Report an epoch vector uniformly bumped by this much — a replica
    /// serving at the wrong version, which the epoch check must catch.
    WrongEpoch(u64),
    /// Serve this many answers, then fail the stream with a typed I/O
    /// error (a replica dying mid-stream, prefix already on the wire).
    DieMidStream(usize),
    /// Sleep `factor × 10 ms` before serving, then answer correctly — a
    /// replica that is slow but alive (degraded disk, noisy neighbor).
    /// Unlike [`Fault::Stall`] the delay is sized to finish *inside* the
    /// client's socket timeout, so nothing errors: the request is just
    /// late, and only hedging (funded by the retry budget) keeps the
    /// caller's tail latency bounded.
    Slowdown(u32),
}

/// A [`BlockService`] wrapper that injects the current [`Fault`] into
/// serves and version reports (registration and updates pass through
/// unchanged — the chaos schedule targets the read path).
pub struct ChaosService {
    inner: Arc<dyn BlockService>,
    fault: Mutex<Fault>,
}

impl std::fmt::Debug for ChaosService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosService")
            .field("fault", &self.fault())
            .finish_non_exhaustive()
    }
}

impl ChaosService {
    /// Wraps `inner` with no fault active.
    pub fn new(inner: Arc<dyn BlockService>) -> ChaosService {
        ChaosService {
            inner,
            fault: Mutex::new(Fault::None),
        }
    }

    /// Switches the active fault (takes effect on the next request).
    pub fn set_fault(&self, fault: Fault) {
        *self.fault.lock().expect("fault lock poisoned") = fault;
    }

    /// The active fault.
    pub fn fault(&self) -> Fault {
        *self.fault.lock().expect("fault lock poisoned")
    }
}

/// Stops the enumeration after `budget` answers, then reports a typed
/// failure through the serve error path.
struct DieAfter<'s> {
    inner: &'s mut dyn AnswerSink,
    left: usize,
    tripped: bool,
}

impl AnswerSink for DieAfter<'_> {
    fn push(&mut self, tuple: &[Value]) -> bool {
        if self.left == 0 {
            self.tripped = true;
            return false;
        }
        self.left -= 1;
        self.inner.push(tuple)
    }
}

impl BlockService for ChaosService {
    fn register_view(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        strategy: &str,
    ) -> Result<Vec<Epoch>> {
        self.inner
            .register_view(name, query_text, pattern, strategy)
    }

    fn stats(&self) -> Result<ServiceStats> {
        self.inner.stats()
    }

    fn serve_into(&self, view: &str, bound: &[Value], sink: &mut dyn AnswerSink) -> Result<usize> {
        match self.fault() {
            Fault::None | Fault::WrongEpoch(_) => self.inner.serve_into(view, bound, sink),
            Fault::Stall(nap) => {
                std::thread::sleep(nap);
                self.inner.serve_into(view, bound, sink)
            }
            Fault::Slowdown(factor) => {
                std::thread::sleep(Duration::from_millis(10) * factor);
                self.inner.serve_into(view, bound, sink)
            }
            Fault::Refuse => Err(CqcError::Protocol {
                code: code::REFUSED,
                detail: "chaos: replica refusing".into(),
            }),
            Fault::DieMidStream(budget) => {
                let mut dying = DieAfter {
                    inner: sink,
                    left: budget,
                    tripped: false,
                };
                let n = self.inner.serve_into(view, bound, &mut dying)?;
                if dying.tripped {
                    return Err(CqcError::Io(format!(
                        "chaos: replica died mid-stream after {budget} answers"
                    )));
                }
                Ok(n)
            }
        }
    }

    fn apply_update(&self, delta: &Delta) -> Result<Vec<Epoch>> {
        self.inner.apply_update(delta)
    }

    fn version(&self) -> Vec<Epoch> {
        let mut v = self.inner.version();
        if let Fault::WrongEpoch(bump) = self.fault() {
            for e in &mut v {
                *e += bump;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_common::AnswerBlock;
    use cqc_engine::Engine;
    use cqc_storage::{Database, Relation};

    fn engine() -> Arc<dyn BlockService> {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (2, 3), (3, 4)]))
            .unwrap();
        let e = Engine::new(db);
        let svc: &dyn BlockService = &e;
        svc.register_view("all", "Q(x,y) :- R(x,y)", "ff", "auto")
            .unwrap();
        Arc::new(e)
    }

    #[test]
    fn faults_inject_and_clear() {
        let chaos = ChaosService::new(engine());
        let truth = chaos.version();
        let mut block = AnswerBlock::new();
        assert_eq!(chaos.serve_into("all", &[], &mut block).unwrap(), 3);

        chaos.set_fault(Fault::Refuse);
        let err = chaos.serve_into("all", &[], &mut block).unwrap_err();
        assert!(
            matches!(
                err,
                CqcError::Protocol {
                    code: code::REFUSED,
                    ..
                }
            ),
            "{err}"
        );

        chaos.set_fault(Fault::WrongEpoch(7));
        let lied: Vec<Epoch> = truth.iter().map(|e| e + 7).collect();
        assert_eq!(chaos.version(), lied);

        chaos.set_fault(Fault::DieMidStream(2));
        let mut partial = AnswerBlock::new();
        let err = chaos.serve_into("all", &[], &mut partial).unwrap_err();
        assert!(matches!(err, CqcError::Io(_)), "{err}");
        assert_eq!(partial.len(), 2, "prefix delivered before the death");

        chaos.set_fault(Fault::None);
        let mut clean = AnswerBlock::new();
        assert_eq!(chaos.serve_into("all", &[], &mut clean).unwrap(), 3);
        assert_eq!(chaos.version(), truth);
    }

    #[test]
    fn slowdown_is_late_but_correct() {
        let chaos = ChaosService::new(engine());
        chaos.set_fault(Fault::Slowdown(3));
        let started = std::time::Instant::now();
        let mut block = AnswerBlock::new();
        assert_eq!(chaos.serve_into("all", &[], &mut block).unwrap(), 3);
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "the slowdown must actually delay the serve"
        );
        assert_eq!(block.len(), 3, "slow, but every answer arrives");
    }
}
