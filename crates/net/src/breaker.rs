//! Per-replica circuit breakers: dead replicas stop eating deadline.
//!
//! Without a breaker, every request pays a connect-and-fail round on a
//! replica that has been down for minutes — budget the live replicas
//! could have used. The classic three-state machine fixes that:
//!
//! * **Closed** — requests flow; failures are counted against two
//!   thresholds (consecutive failures, and a rolling error rate over the
//!   last [`BreakerConfig::window`] outcomes). Tripping either opens the
//!   breaker.
//! * **Open** — requests are refused locally (no socket work at all)
//!   until [`BreakerConfig::cooldown`] elapses, then the breaker moves
//!   to half-open.
//! * **Half-open** — probe traffic is let through one request at a time;
//!   [`BreakerConfig::half_open_successes`] consecutive successes close
//!   the breaker, any failure re-opens it (with a fresh cooldown).
//!
//! Every method takes `now` explicitly, so the state machine is a pure
//! function of its inputs — the unit tests drive it with synthetic
//! clocks and the chaos harness reads the transition counters it keeps.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Thresholds and timings for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub consecutive_failures: u32,
    /// Rolling-window length, in outcomes (≤ 64; clamped).
    pub window: u32,
    /// Error rate over a *full* window that trips Closed → Open, in
    /// percent (e.g. 50 = half the window failed).
    pub error_rate_pct: u32,
    /// How long Open refuses before probing (Open → Half-open).
    pub cooldown: Duration,
    /// Consecutive half-open successes that close the breaker.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            consecutive_failures: 3,
            window: 16,
            error_rate_pct: 50,
            cooldown: Duration::from_millis(500),
            half_open_successes: 2,
        }
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow, failures are counted.
    Closed,
    /// Requests are refused locally until the cooldown elapses.
    Open,
    /// Probe traffic is being let through to test recovery.
    HalfOpen,
}

/// Counters for every state transition the breaker has made — the chaos
/// harness's evidence that the state machine actually cycled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Closed (or half-open) → Open trips.
    pub opened: u64,
    /// Open → Half-open probe windows.
    pub half_opened: u64,
    /// Half-open → Closed recoveries.
    pub closed: u64,
}

impl BreakerTransitions {
    /// The counters as `(name, value)` pairs, in field order: what a
    /// `Stats` reply carries.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        let BreakerTransitions {
            opened,
            half_opened,
            closed,
        } = *self;
        vec![
            ("opened", opened),
            ("half_opened", half_opened),
            ("closed", closed),
        ]
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Ring of recent outcomes, bit i set = failure (rolling window).
    outcomes: u64,
    outcome_count: u32,
    consecutive: u32,
    open_until: Option<Instant>,
    half_open_streak: u32,
    transitions: BreakerTransitions,
}

/// One replica's circuit breaker (see the module docs). Thread-safe; all
/// timing is injected via `now` parameters.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with `config` thresholds.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config: BreakerConfig {
                window: config.window.clamp(1, 64),
                ..config
            },
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                outcomes: 0,
                outcome_count: 0,
                consecutive: 0,
                open_until: None,
                half_open_streak: 0,
                transitions: BreakerTransitions::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().expect("breaker lock poisoned")
    }

    /// Whether a request may proceed at `now`. An open breaker whose
    /// cooldown has elapsed transitions to half-open here (and admits the
    /// probe).
    pub fn allow_at(&self, now: Instant) -> bool {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if inner.open_until.is_some_and(|until| now >= until) {
                    inner.state = BreakerState::HalfOpen;
                    inner.half_open_streak = 0;
                    inner.transitions.half_opened += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// [`CircuitBreaker::allow_at`] on the wall clock.
    pub fn allow(&self) -> bool {
        self.allow_at(Instant::now())
    }

    /// Records a successful request outcome.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.push_outcome(false, self.config.window);
        inner.consecutive = 0;
        if inner.state == BreakerState::HalfOpen {
            inner.half_open_streak += 1;
            if inner.half_open_streak >= self.config.half_open_successes.max(1) {
                inner.state = BreakerState::Closed;
                inner.open_until = None;
                inner.outcomes = 0;
                inner.outcome_count = 0;
                inner.transitions.closed += 1;
            }
        }
    }

    /// Records a failed request outcome at `now`, tripping the breaker
    /// when a threshold is crossed (any half-open failure re-opens).
    pub fn record_failure_at(&self, now: Instant) {
        let mut inner = self.lock();
        inner.push_outcome(true, self.config.window);
        inner.consecutive += 1;
        let trip = match inner.state {
            BreakerState::Open => false, // already open (late failure report)
            BreakerState::HalfOpen => true,
            BreakerState::Closed => {
                inner.consecutive >= self.config.consecutive_failures.max(1)
                    || (inner.outcome_count >= self.config.window
                        && inner.failure_count() * 100
                            >= u64::from(self.config.error_rate_pct)
                                * u64::from(self.config.window))
            }
        };
        if trip {
            inner.state = BreakerState::Open;
            inner.open_until = Some(now + self.config.cooldown);
            inner.consecutive = 0;
            inner.transitions.opened += 1;
        }
    }

    /// [`CircuitBreaker::record_failure_at`] on the wall clock.
    pub fn record_failure(&self) {
        self.record_failure_at(Instant::now());
    }

    /// The current state (an elapsed cooldown shows as `Open` until the
    /// next [`CircuitBreaker::allow_at`] probes it).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Cumulative transition counters.
    pub fn transitions(&self) -> BreakerTransitions {
        self.lock().transitions
    }
}

impl BreakerInner {
    fn push_outcome(&mut self, failed: bool, window: u32) {
        self.outcomes = (self.outcomes << 1) | u64::from(failed);
        if window < 64 {
            self.outcomes &= (1u64 << window) - 1;
        }
        self.outcome_count = (self.outcome_count + 1).min(window);
    }

    fn failure_count(&self) -> u64 {
        u64::from(self.outcomes.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn consecutive_failures_open_then_cooldown_half_opens() {
        let b = CircuitBreaker::new(BreakerConfig {
            consecutive_failures: 3,
            cooldown: Duration::from_millis(100),
            half_open_successes: 2,
            ..BreakerConfig::default()
        });
        let now = t0();
        assert!(b.allow_at(now));
        b.record_failure_at(now);
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Open);
        // Open refuses locally until the cooldown elapses…
        assert!(!b.allow_at(now + Duration::from_millis(50)));
        // …then half-opens and admits a probe.
        assert!(b.allow_at(now + Duration::from_millis(100)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Two probe successes close it.
        b.record_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.transitions(),
            BreakerTransitions {
                opened: 1,
                half_opened: 1,
                closed: 1
            }
        );
    }

    #[test]
    fn half_open_failure_reopens_with_fresh_cooldown() {
        let b = CircuitBreaker::new(BreakerConfig {
            consecutive_failures: 1,
            cooldown: Duration::from_millis(100),
            ..BreakerConfig::default()
        });
        let now = t0();
        b.record_failure_at(now);
        assert!(b.allow_at(now + Duration::from_millis(100)));
        b.record_failure_at(now + Duration::from_millis(100));
        assert_eq!(b.state(), BreakerState::Open);
        // The new cooldown counts from the half-open failure.
        assert!(!b.allow_at(now + Duration::from_millis(150)));
        assert!(b.allow_at(now + Duration::from_millis(200)));
        assert_eq!(b.transitions().opened, 2);
    }

    #[test]
    fn rolling_error_rate_trips_without_a_consecutive_run() {
        let b = CircuitBreaker::new(BreakerConfig {
            consecutive_failures: 100, // out of reach: only the rate can trip
            window: 8,
            error_rate_pct: 50,
            ..BreakerConfig::default()
        });
        let now = t0();
        // Alternate success/failure: never 2 consecutive, but 50% of a
        // full window — trips exactly when the window fills.
        for i in 0..8 {
            if i % 2 == 0 {
                b.record_failure_at(now);
            } else {
                b.record_success();
            }
            if i < 7 {
                assert_eq!(b.state(), BreakerState::Closed, "trip before window full");
            }
        }
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn successes_keep_the_breaker_closed() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        let now = t0();
        for _ in 0..100 {
            assert!(b.allow_at(now));
            b.record_success();
        }
        b.record_failure_at(now);
        b.record_success();
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions(), BreakerTransitions::default());
    }
}
