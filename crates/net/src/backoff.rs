//! The one backoff implementation for `cqc-net`.
//!
//! Every retry loop in the crate — the client's connect/refusal retries,
//! the replica group's failover loop — waits according to the same
//! schedule: capped exponential backoff (`base * 2^attempt`, capped at
//! `cap`) scaled into `[50%, 100%)` by a deterministic splitmix64-style
//! jitter. There is no `rand` anywhere in `cqc-net`: the jitter is a
//! pure function of `(seed, attempt)`, so equal seeds reproduce equal
//! schedules in tests while distinct seeds de-lockstep a fleet whose
//! members fail together.
//!
//! Seeds follow a single convention, [`lane_seed`]: a backoff *lane* is
//! one independent retry loop, addressed by `(shard, lane)` under a
//! fleet-wide base seed. Replica clients take lanes `0..R`; a shard
//! group's failover loop takes the reserved [`FAILOVER_LANE`].

use std::time::Duration;

/// The reserved lane for a shard group's failover loop, chosen far above
/// any plausible replica index so group-level and per-replica schedules
/// never collide under [`lane_seed`].
pub const FAILOVER_LANE: u64 = 0xFFFF_FFFF;

/// Derives the jitter seed for one backoff lane: `(shard, lane)` under a
/// fleet-wide `base` seed. Distinct `(shard, lane)` pairs yield distinct
/// seeds (the pair is packed into disjoint halves of a word before the
/// XOR), so no two retry loops in a fleet share a schedule, while the
/// whole fleet stays reproducible from `base` alone.
pub fn lane_seed(base: u64, shard: usize, lane: u64) -> u64 {
    base ^ (((shard as u64) << 32) | lane)
}

/// A backoff schedule: base, cap, and jitter seed bundled so call sites
/// name the policy once and ask only for [`Backoff::delay`].
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per attempt, capped at
    /// `cap` (before jitter), jittered deterministically by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff { base, cap, seed }
    }

    /// The wait before retry number `attempt` (0-based): the classic
    /// `base * 2^attempt` capped at `cap`, then scaled into `[50%, 100%)`
    /// by a splitmix64-style mix of `(seed, attempt)`. A pure function of
    /// the schedule and `attempt` — reproducible in tests, de-synchronized
    /// across a fleet by distinct seeds.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let mut z = self.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt) + 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = 512 + (z % 512); // 1024ths: [0.5, 1.0)
        Duration::from_nanos((exp.as_nanos() as u64).saturating_mul(frac) / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        for seed in [0u64, 1, 7, 1 << 40] {
            for attempt in 0..8u32 {
                let a = Backoff::new(base, cap, seed).delay(attempt);
                let b = Backoff::new(base, cap, seed).delay(attempt);
                assert_eq!(a, b, "same (seed, attempt) must reproduce");
                let exp = base.saturating_mul(1u32 << attempt.min(16)).min(cap);
                assert!(
                    a >= exp / 2 && a < exp,
                    "jitter in [exp/2, exp): {a:?} vs {exp:?}"
                );
            }
        }
        // Distinct seeds de-lockstep: two "shards" retrying at the same
        // attempt numbers do not share a backoff sequence.
        let seq = |seed| -> Vec<Duration> {
            (0..6)
                .map(|a| Backoff::new(base, cap, seed).delay(a))
                .collect()
        };
        assert_ne!(seq(0), seq(1));
    }

    #[test]
    fn backoff_cap_holds_under_jitter() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_millis(80);
        for attempt in 0..32u32 {
            assert!(Backoff::new(base, cap, 9).delay(attempt) < cap);
        }
    }

    #[test]
    fn lane_seeds_are_distinct_per_lane_and_shard() {
        let mut seen = std::collections::HashSet::new();
        for shard in 0..8usize {
            for lane in (0..4u64).chain([FAILOVER_LANE]) {
                assert!(
                    seen.insert(lane_seed(42, shard, lane)),
                    "seed collision at shard {shard} lane {lane}"
                );
            }
        }
        // The same (shard, lane) under the same base reproduces.
        assert_eq!(lane_seed(42, 3, 1), lane_seed(42, 3, 1));
        // A different fleet-wide base shifts every lane.
        assert_ne!(lane_seed(42, 3, 1), lane_seed(43, 3, 1));
    }
}
