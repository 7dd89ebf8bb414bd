//! Percentiles, the quartile-of-passes estimator, and the spread of a
//! metric over passes.
//!
//! Interference from a shared host only ever slows a measurement down, so
//! a timing is computed pass by pass and reported as the quartile of the
//! passes on the metric's good side: an estimate of the quiet-host value
//! that, unlike a minimum, does not rest on one lucky pass. The median
//! and the inter-quartile spread over passes are printed beside it so a
//! reader sees how noisy the run was.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples support percentile `q`: at least ten samples must
/// lie beyond it, or the reading is a handful of outliers, not a tail.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// Sorts `samples` and reads percentile `q`, panicking when the sample is
/// too small to support it — a sizing bug in the workload, not a runtime
/// condition.
pub fn tail(samples: &mut [u64], q: f64) -> u64 {
    assert!(
        supports(samples.len(), q),
        "{} samples cannot support p{}",
        samples.len(),
        q * 100.0
    );
    samples.sort_unstable();
    percentile(samples, q)
}

/// Quantile of an ascending slice by the "exclusive" method, the one
/// Python's `statistics.quantiles` uses and so the one the bounds are
/// checked with: position `q * (n + 1)`, counted from 1, interpolated
/// between its two neighbours. The lower quartile of 15 passes is the
/// fourth-fastest pass.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n + 1) as f64;
    let below = (pos.floor() as usize).clamp(1, n - 1);
    sorted[below - 1] + (sorted[below] - sorted[below - 1]) * (pos - below as f64)
}

/// How one metric spread over the individual passes of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    /// `(q3 - q1) / median`.
    pub iqr_share: f64,
}

pub fn spread(per_pass: &[f64]) -> Spread {
    let mut v = per_pass.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let (q1, median, q3) = (quantile(&v, 0.25), quantile(&v, 0.5), quantile(&v, 0.75));
    Spread {
        median,
        iqr_share: if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median
        },
    }
}

pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

/// The quiet-host reading of a metric computed pass by pass: the lower
/// quartile of a time, the upper quartile of a rate.
pub fn quiet(per_pass: &[f64], better: Better) -> f64 {
    let mut v = per_pass.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    quantile(
        &v,
        match better {
            Better::Lower => 0.25,
            Better::Higher => 0.75,
        },
    )
}

/// The second-smallest of `values` (the only one, if there is one): the
/// lowest reading that does not rest on a single sample. Used where
/// there are too few repeats for a quartile: the five set-ups, and a
/// span over its three replays.
pub fn second_smallest<T: Copy + PartialOrd>(values: &mut [T]) -> T {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    values[1.min(values.len() - 1)]
}

/// FNV-1a over a stream of `u64`s — the request-list and answer-stream
/// fingerprint. Order-sensitive, so it pins enumeration order too.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    #[inline]
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
    }

    #[test]
    #[should_panic(expected = "cannot support")]
    fn tail_refuses_a_sample_that_is_too_small() {
        tail(&mut [1, 2, 3], 0.99);
    }

    #[test]
    fn quantile_is_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        assert_eq!(quantile(&[4.0], 0.25), 4.0);
    }

    #[test]
    fn quiet_is_the_quartile_on_the_good_side() {
        // Fifteen passes: times of 1 to 15 ms.
        let times: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(quiet(&times, Better::Lower), 4.0);
        assert_eq!(quiet(&times, Better::Higher), 12.0);
        // Passes a neighbour slowed down do not move the reading.
        let mut noisy = times.clone();
        noisy[8..].iter_mut().for_each(|t| *t *= 10.0);
        assert_eq!(quiet(&noisy, Better::Lower), 4.0);
    }

    #[test]
    fn spread_is_relative_iqr() {
        let s = spread(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert!((s.iqr_share - 3.0 / 3.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]).iqr_share, 0.0);
        assert_eq!(median(&[7.0, 9.0]), 8.0);
    }

    #[test]
    fn second_smallest_sheds_the_slow_and_one_lucky_sample() {
        // Three set-ups slowed by a neighbour, one freak-fast reading.
        assert_eq!(second_smallest(&mut [5.0, 0.1, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(second_smallest(&mut [5.0]), 5.0);
        assert_eq!(second_smallest(&mut [9u64, 3, 7]), 7);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.0, b.0);
    }
}
