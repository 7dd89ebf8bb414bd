//! Priority-aware admission control for a shard server.
//!
//! The serving guarantee this repo is built around — bounded delay per
//! answer — only means something while offered load is below capacity.
//! This module is what keeps the guarantee *graceful* past that point:
//! instead of the old flat in-flight counter (admit until `max`, refuse
//! flatly after), a server runs every serve request through an
//! [`AdmissionController`]:
//!
//! * up to `max_inflight` serves run concurrently;
//! * past that, requests wait in a **bounded queue** (`queue_depth`);
//! * when the queue overflows, the controller sheds **adaptively,
//!   LIFO-first**: the victim is the lowest-priority, *oldest* waiter —
//!   under sustained overload the oldest queued request is the one whose
//!   caller has waited longest and is most likely to have given up, so
//!   serving the newest arrivals first ("adaptive LIFO") converts a
//!   little fairness into a lot of tail latency for the requests that
//!   still matter; a newcomer that outranks the victim takes its place,
//!   otherwise the newcomer itself is shed;
//! * free slots go to the **highest-priority, newest** waiter
//!   (the admission-side mirror of the same policy);
//! * a request whose deadline is already gone — on arrival or while
//!   queued — or whose remaining budget cannot cover the view's
//!   estimated serve cost is shed with a typed
//!   [`DEADLINE`](cqc_common::frame::code::DEADLINE) before any
//!   enumeration work. The estimate is a per-view EWMA of the serves this
//!   controller's server timed ([`AdmissionController::observe_serve_cost`]),
//!   so every service behind a server sheds by the same rule;
//! * when saturation persists for `brownout_after`, the controller
//!   enters **brownout** and sheds [`ServePriority::Batch`] on arrival
//!   with a typed [`REFUSED`](cqc_common::frame::code::REFUSED), keeping
//!   the queue for Interactive (and Internal) traffic.
//!
//! Health and update frames never pass through the controller at all —
//! they are handled inline on their connection thread, so a saturated
//! serve queue cannot starve liveness probes or writes.
//!
//! Shedding is accounted per priority class and per reason
//! ([`AdmissionStats`]); the mixed-workload bench gates on those
//! counters.

use cqc_common::frame::{code, ServePriority};
use cqc_common::{CqcError, FastMap, Result};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning for one [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Serve requests allowed to run concurrently.
    pub max_inflight: usize,
    /// Bounded wait-queue depth behind the in-flight slots. Zero means
    /// "no queue": anything past `max_inflight` is shed immediately.
    pub queue_depth: usize,
    /// How long saturation (every in-flight slot busy) must persist
    /// before brownout engages and Batch traffic is shed on arrival.
    pub brownout_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_inflight: 64,
            queue_depth: 16,
            brownout_after: Duration::from_secs(1),
        }
    }
}

/// Why a request was shed (the reason axis of [`AdmissionStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShedReason {
    /// Deadline budget gone — on arrival, while queued, or because the
    /// measured serve cost cannot fit the remaining budget.
    Expired,
    /// Bounded queue overflowed and this request was the weakest.
    QueueFull,
    /// Sustained overload: Batch shed on arrival.
    Brownout,
}

/// Counters the controller keeps, snapshotted by
/// [`AdmissionController::stats`]. `admitted + shed-by-class` is the
/// total number of serve attempts that reached the server — the
/// denominator of the bench harness's retry-amplification factor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests granted a serve slot (directly or from the queue).
    pub admitted: u64,
    /// Sheds of Interactive-class requests.
    pub shed_interactive: u64,
    /// Sheds of Batch-class requests.
    pub shed_batch: u64,
    /// Sheds of Internal-class requests.
    pub shed_internal: u64,
    /// Sheds because the deadline budget was spent (arrival, queued, or
    /// cost-based).
    pub shed_expired: u64,
    /// Sheds because the bounded queue overflowed.
    pub shed_queue_full: u64,
    /// Sheds because brownout was in effect (Batch on arrival).
    pub shed_brownout: u64,
    /// Times the controller transitioned into brownout.
    pub brownouts: u64,
}

impl AdmissionStats {
    /// The counters as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let AdmissionStats {
            admitted,
            shed_interactive,
            shed_batch,
            shed_internal,
            shed_expired,
            shed_queue_full,
            shed_brownout,
            brownouts,
        } = *self;
        vec![
            ("admitted", admitted),
            ("shed_interactive", shed_interactive),
            ("shed_batch", shed_batch),
            ("shed_internal", shed_internal),
            ("shed_expired", shed_expired),
            ("shed_queue_full", shed_queue_full),
            ("shed_brownout", shed_brownout),
            ("brownouts", brownouts),
        ]
    }

    /// Total sheds across every class.
    pub fn shed_total(&self) -> u64 {
        self.shed_interactive + self.shed_batch + self.shed_internal
    }

    /// Total serve attempts seen (admitted plus shed).
    pub fn attempts(&self) -> u64 {
        self.admitted + self.shed_total()
    }
}

/// One queued request. `seq` orders arrivals (monotonic); the shed
/// victim is the *minimum* `(shed_rank, seq)` — lowest class, oldest —
/// and the next admission is the *maximum* — highest class, newest.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    ticket: u64,
    priority: ServePriority,
    seq: u64,
}

impl Waiter {
    fn key(&self) -> (u8, u64) {
        (self.priority.shed_rank(), self.seq)
    }
}

#[derive(Debug, Default)]
struct State {
    inflight: usize,
    queue: Vec<Waiter>,
    /// Tickets with a verdict: `true` = admitted (the slot is already
    /// counted in `inflight`), `false` = shed by eviction.
    decided: FastMap<u64, bool>,
    next_ticket: u64,
    next_seq: u64,
    /// When saturation began, if every slot is currently busy.
    saturated_since: Option<Instant>,
    /// Whether the current saturation episode already counted a
    /// brownout transition.
    in_brownout: bool,
    stats: AdmissionStats,
}

/// The admission controller a [`crate::NetServer`] runs every serve
/// request through. See the module docs for the policy.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Mutex<State>,
    wakeup: Condvar,
    /// Per-view EWMA of measured serve wall time in nanoseconds.
    serve_costs: Mutex<FastMap<String, u64>>,
}

/// An admitted serve slot; dropping it releases the slot and hands it
/// to the best queued waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    ctl: &'a AdmissionController,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.ctl.release();
    }
}

impl AdmissionController {
    /// A controller with the given limits.
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            config,
            state: Mutex::new(State::default()),
            wakeup: Condvar::new(),
            serve_costs: Mutex::new(FastMap::default()),
        }
    }

    /// The configuration this controller enforces.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// A snapshot of the admission counters.
    pub fn stats(&self) -> AdmissionStats {
        self.state.lock().expect("admission lock").stats
    }

    /// Runs one request through admission: returns a [`Permit`] once a
    /// serve slot is granted, or the typed shed error —
    /// [`code::DEADLINE`] when the budget is spent, [`code::REFUSED`]
    /// for queue overflow and brownout. Blocks while queued, but never
    /// past `deadline`.
    ///
    /// # Errors
    ///
    /// [`CqcError::Protocol`] with [`code::DEADLINE`] or
    /// [`code::REFUSED`] as above.
    pub fn admit(&self, priority: ServePriority, deadline: Option<Instant>) -> Result<Permit<'_>> {
        let mut st = self.state.lock().expect("admission lock");
        let now = Instant::now();
        if deadline.is_some_and(|d| d <= now) {
            st.shed(priority, ShedReason::Expired);
            return Err(deadline_error("deadline budget spent on arrival"));
        }
        // Zero capacity can never drain a queue: shed outright rather
        // than park a waiter behind a slot that will never free.
        if self.config.max_inflight == 0 {
            st.shed(priority, ShedReason::QueueFull);
            return Err(refused_queue_full(self.config.queue_depth, priority));
        }
        // Brownout: saturation that has persisted for `brownout_after`
        // sheds Batch on arrival, before it can occupy queue space that
        // Interactive traffic needs.
        if st.inflight >= self.config.max_inflight {
            let since = *st.saturated_since.get_or_insert(now);
            if now.duration_since(since) >= self.config.brownout_after {
                if !st.in_brownout {
                    st.in_brownout = true;
                    st.stats.brownouts += 1;
                }
                if priority == ServePriority::Batch {
                    st.shed(priority, ShedReason::Brownout);
                    return Err(CqcError::Protocol {
                        code: code::REFUSED,
                        detail: "brownout: server saturated, batch-class serve shed \
                                 (retry later or raise the priority class)"
                            .to_string(),
                    });
                }
            }
        }
        if st.inflight < self.config.max_inflight && st.queue.is_empty() {
            st.inflight += 1;
            st.stats.admitted += 1;
            return Ok(Permit { ctl: self });
        }
        // Queue, shedding on overflow: evict the weakest waiter if the
        // newcomer outranks it, else shed the newcomer.
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.queue.len() >= self.config.queue_depth {
            let victim = st
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.key())
                .map(|(i, w)| (i, *w));
            match victim {
                Some((i, w)) if w.key() < (priority.shed_rank(), seq) => {
                    st.queue.swap_remove(i);
                    st.decided.insert(w.ticket, false);
                    st.shed(w.priority, ShedReason::QueueFull);
                    self.wakeup.notify_all();
                }
                _ => {
                    st.shed(priority, ShedReason::QueueFull);
                    return Err(refused_queue_full(self.config.queue_depth, priority));
                }
            }
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push(Waiter {
            ticket,
            priority,
            seq,
        });
        loop {
            st = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        if st.remove_waiter(ticket) {
                            // A grant raced our timeout: pass the slot
                            // on so the queue cannot stall.
                            st.drain(self.config.max_inflight);
                            self.wakeup.notify_all();
                        }
                        st.shed(priority, ShedReason::Expired);
                        return Err(deadline_error("deadline budget spent while queued"));
                    }
                    self.wakeup
                        .wait_timeout(st, left)
                        .expect("admission lock")
                        .0
                }
                None => self.wakeup.wait(st).expect("admission lock"),
            };
            if let Some(admitted) = st.decided.remove(&ticket) {
                if admitted {
                    // The releasing side already moved the slot to us.
                    return Ok(Permit { ctl: self });
                }
                return Err(refused_queue_full(self.config.queue_depth, priority));
            }
        }
    }

    /// Sheds a request whose wire budget cannot cover `view`'s estimated
    /// serve cost: the serve would only burn server time to produce a
    /// mid-stream DEADLINE, so it is refused before it occupies queue
    /// space or a slot (accounted as an expired shed). An unknown cost or
    /// an unbounded request never sheds.
    ///
    /// # Errors
    ///
    /// [`CqcError::Protocol`] with [`code::DEADLINE`] when
    /// `budget_ns` is below the estimate.
    pub fn shed_on_cost(
        &self,
        view: &str,
        priority: ServePriority,
        budget_ns: Option<u64>,
    ) -> Result<()> {
        let (Some(budget_ns), Some(cost_ns)) = (budget_ns, self.serve_cost_ns(view)) else {
            return Ok(());
        };
        if budget_ns >= cost_ns {
            return Ok(());
        }
        self.state
            .lock()
            .expect("admission lock")
            .shed(priority, ShedReason::Expired);
        Err(deadline_error(&format!(
            "deadline budget of {budget_ns} ns cannot cover the view's measured serve cost \
             of {cost_ns} ns"
        )))
    }

    /// Folds one measured serve wall time into `view`'s cost estimate: an
    /// EWMA with α = 1/4, seeded by the first sample. A quarter-weight
    /// EWMA tracks catalog churn (a rebuild after a delta shifts the cost)
    /// within a handful of serves without letting one descheduled outlier
    /// rewrite the estimate.
    pub fn observe_serve_cost(&self, view: &str, ns: u64) {
        let mut costs = self.serve_costs.lock().expect("serve cost lock");
        match costs.get_mut(view) {
            Some(ewma) => *ewma = *ewma - *ewma / 4 + ns / 4,
            None => {
                costs.insert(view.to_string(), ns);
            }
        }
    }

    /// The EWMA of measured serve wall times for `view` in nanoseconds;
    /// `None` until the first measured serve.
    pub fn serve_cost_ns(&self, view: &str) -> Option<u64> {
        self.serve_costs
            .lock()
            .expect("serve cost lock")
            .get(view)
            .copied()
    }

    /// Releases one serve slot and hands it to the strongest waiter
    /// (highest priority, then newest — the adaptive-LIFO order).
    fn release(&self) {
        let mut st = self.state.lock().expect("admission lock");
        st.inflight -= 1;
        st.drain(self.config.max_inflight);
        if st.inflight < self.config.max_inflight {
            st.saturated_since = None;
            st.in_brownout = false;
        }
        self.wakeup.notify_all();
    }
}

impl State {
    /// Grants free slots to waiters, strongest first.
    fn drain(&mut self, max_inflight: usize) {
        while self.inflight < max_inflight {
            let best = self
                .queue
                .iter()
                .enumerate()
                .max_by_key(|(_, w)| w.key())
                .map(|(i, _)| i);
            let Some(i) = best else { break };
            let w = self.queue.swap_remove(i);
            self.decided.insert(w.ticket, true);
            self.inflight += 1;
            self.stats.admitted += 1;
        }
    }

    fn shed(&mut self, priority: ServePriority, reason: ShedReason) {
        match priority {
            ServePriority::Interactive => self.stats.shed_interactive += 1,
            ServePriority::Batch => self.stats.shed_batch += 1,
            ServePriority::Internal => self.stats.shed_internal += 1,
        }
        match reason {
            ShedReason::Expired => self.stats.shed_expired += 1,
            ShedReason::QueueFull => self.stats.shed_queue_full += 1,
            ShedReason::Brownout => self.stats.shed_brownout += 1,
        }
    }

    /// Withdraws a queued waiter (timeout path). Returns `true` when a
    /// grant had raced the withdrawal — the slot is already counted in
    /// `inflight` and the caller must pass it on.
    fn remove_waiter(&mut self, ticket: u64) -> bool {
        if let Some(i) = self.queue.iter().position(|w| w.ticket == ticket) {
            self.queue.swap_remove(i);
        }
        if self.decided.remove(&ticket) == Some(true) {
            self.inflight -= 1;
            return true;
        }
        false
    }
}

/// The typed error for a spent deadline budget.
pub(crate) fn deadline_error(detail: &str) -> CqcError {
    CqcError::Protocol {
        code: code::DEADLINE,
        detail: detail.to_string(),
    }
}

fn refused_queue_full(depth: usize, priority: ServePriority) -> CqcError {
    CqcError::Protocol {
        code: code::REFUSED,
        detail: format!(
            "server overloaded: admission queue full (depth {depth}), {priority:?}-class \
             serve shed"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn ctl(
        max_inflight: usize,
        queue_depth: usize,
        brownout: Duration,
    ) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(AdmissionConfig {
            max_inflight,
            queue_depth,
            brownout_after: brownout,
        }))
    }

    fn is_refused(e: &CqcError) -> bool {
        matches!(
            e,
            CqcError::Protocol {
                code: code::REFUSED,
                ..
            }
        )
    }

    fn is_deadline(e: &CqcError) -> bool {
        matches!(
            e,
            CqcError::Protocol {
                code: code::DEADLINE,
                ..
            }
        )
    }

    #[test]
    fn admits_up_to_max_then_sheds_when_queueless() {
        let c = ctl(2, 0, Duration::from_secs(60));
        let p1 = c.admit(ServePriority::Interactive, None).unwrap();
        let _p2 = c.admit(ServePriority::Interactive, None).unwrap();
        let err = c.admit(ServePriority::Interactive, None).unwrap_err();
        assert!(is_refused(&err), "{err}");
        drop(p1);
        let _p3 = c.admit(ServePriority::Interactive, None).unwrap();
        let s = c.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.shed_interactive, 1);
        assert_eq!(s.shed_queue_full, 1);
    }

    #[test]
    fn zero_capacity_refuses_even_unbounded_requests() {
        let c = ctl(0, 4, Duration::from_secs(60));
        let err = c
            .admit(ServePriority::Interactive, None)
            .map(|_| ())
            .unwrap_err();
        assert!(is_refused(&err), "{err}");
        let s = c.stats();
        assert_eq!(s.shed_queue_full, 1);
        assert_eq!(s.admitted, 0);
    }

    #[test]
    fn expired_on_arrival_is_a_typed_deadline_shed() {
        let c = ctl(4, 4, Duration::from_secs(60));
        let err = c
            .admit(
                ServePriority::Interactive,
                Some(Instant::now() - Duration::from_millis(1)),
            )
            .unwrap_err();
        assert!(is_deadline(&err), "{err}");
        let s = c.stats();
        assert_eq!(s.shed_expired, 1);
        assert_eq!(s.admitted, 0);
    }

    #[test]
    fn queued_request_runs_when_a_slot_frees() {
        let c = ctl(1, 2, Duration::from_secs(60));
        let holder = c.admit(ServePriority::Interactive, None).unwrap();
        let (tx, rx) = mpsc::channel();
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            let p = c2.admit(ServePriority::Interactive, None);
            tx.send(()).unwrap();
            drop(p.unwrap());
        });
        // The waiter must be parked, not admitted.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(holder);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("queued request admitted after release");
        t.join().unwrap();
        assert_eq!(c.stats().admitted, 2);
    }

    #[test]
    fn deadline_expires_while_queued() {
        let c = ctl(1, 2, Duration::from_secs(60));
        let _holder = c.admit(ServePriority::Interactive, None).unwrap();
        let started = Instant::now();
        let err = c
            .admit(
                ServePriority::Batch,
                Some(Instant::now() + Duration::from_millis(50)),
            )
            .unwrap_err();
        assert!(is_deadline(&err), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the queued waiter must give up at its deadline, not hang"
        );
        let s = c.stats();
        assert_eq!(s.shed_batch, 1);
        assert_eq!(s.shed_expired, 1);
    }

    #[test]
    fn overflow_evicts_the_weakest_oldest_waiter_first() {
        let c = ctl(1, 1, Duration::from_secs(60));
        let _holder = c.admit(ServePriority::Interactive, None).unwrap();
        // One Batch waiter occupies the single queue slot.
        let (tx, rx) = mpsc::channel();
        let c2 = Arc::clone(&c);
        let batch = std::thread::spawn(move || {
            let r = c2.admit(ServePriority::Batch, None);
            tx.send(r.map(|_| ()).map_err(|e| e.to_string())).unwrap();
        });
        while c.state.lock().unwrap().queue.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        // An Interactive newcomer overflows the queue: the Batch waiter
        // is evicted with a typed REFUSED and the newcomer takes the
        // slot; a later Batch newcomer is shed outright (it does not
        // outrank the queued Interactive).
        let (itx, irx) = mpsc::channel();
        let c3 = Arc::clone(&c);
        let interactive = std::thread::spawn(move || {
            let r = c3.admit(ServePriority::Interactive, None);
            itx.send(()).unwrap();
            drop(r.unwrap());
        });
        let evicted = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            evicted.unwrap_err().contains("queue full"),
            "batch waiter must be evicted by the stronger newcomer"
        );
        batch.join().unwrap();
        let err = c.admit(ServePriority::Batch, None).map(|_| ()).unwrap_err();
        assert!(is_refused(&err), "{err}");
        drop(_holder);
        irx.recv_timeout(Duration::from_secs(5))
            .expect("interactive waiter admitted after release");
        interactive.join().unwrap();
        let s = c.stats();
        assert_eq!(s.shed_batch, 2, "evicted waiter + shed newcomer");
        assert_eq!(s.shed_interactive, 0);
        assert_eq!(s.admitted, 2);
    }

    #[test]
    fn sustained_saturation_browns_out_batch_but_not_interactive() {
        let c = ctl(1, 4, Duration::ZERO);
        let _holder = c.admit(ServePriority::Interactive, None).unwrap();
        // Saturation begins on the first refused-ish arrival; with a
        // zero brownout threshold the second Batch arrival is inside
        // the brownout window.
        let past = Some(Instant::now() + Duration::from_millis(20));
        let _ = c.admit(ServePriority::Batch, past);
        let err = c.admit(ServePriority::Batch, None).map(|_| ()).unwrap_err();
        assert!(is_refused(&err), "{err}");
        assert!(err.to_string().contains("brownout"), "{err}");
        // Interactive is NOT brownout-shed: it queues (and then times
        // out on its own deadline, which is a DEADLINE, not a REFUSED).
        let err = c
            .admit(
                ServePriority::Interactive,
                Some(Instant::now() + Duration::from_millis(30)),
            )
            .map(|_| ())
            .unwrap_err();
        assert!(is_deadline(&err), "{err}");
        let s = c.stats();
        assert!(s.shed_brownout >= 1, "{s:?}");
        assert_eq!(s.brownouts, 1, "one saturation episode, one brownout");
        // Releasing the slot ends the episode.
        drop(_holder);
        let _p = c.admit(ServePriority::Batch, None).unwrap();
        assert_eq!(c.stats().brownouts, 1);
    }

    #[test]
    fn serve_cost_is_an_ewma_seeded_by_the_first_sample() {
        let c = ctl(1, 0, Duration::from_secs(60));
        assert_eq!(c.serve_cost_ns("x"), None, "unknown before any serve");
        c.observe_serve_cost("x", 1000);
        assert_eq!(c.serve_cost_ns("x"), Some(1000));
        for _ in 0..64 {
            c.observe_serve_cost("x", 2000);
        }
        let x = c.serve_cost_ns("x").unwrap();
        assert!((1900..=2000).contains(&x), "converge toward samples: {x}");
        assert_eq!(c.serve_cost_ns("ghost"), None);
        // The estimate sheds only a bounded request it cannot fit.
        assert!(c.shed_on_cost("x", ServePriority::Batch, None).is_ok());
        assert!(c
            .shed_on_cost("ghost", ServePriority::Batch, Some(1))
            .is_ok());
        assert!(c.shed_on_cost("x", ServePriority::Batch, Some(x)).is_ok());
        let err = c
            .shed_on_cost("x", ServePriority::Batch, Some(x - 1))
            .unwrap_err();
        assert!(is_deadline(&err), "{err}");
        let s = c.stats();
        assert_eq!((s.shed_batch, s.shed_expired, s.admitted), (1, 1, 0));
    }
}
