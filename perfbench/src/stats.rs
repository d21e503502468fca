//! Statistics helpers: medians, quartiles, tail percentiles, open-loop
//! latency accounting and failure ratios.

use std::time::{Duration, Instant};

/// Sorted copy of `values` (NaNs are a bug in the caller).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// The `p`-th percentile (0 ≤ p ≤ 100) by linear interpolation between
/// closest ranks: `h = (n − 1)·p/100`. `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let h = (v.len() - 1) as f64 * p.clamp(0.0, 100.0) / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

/// The median (`NaN` for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (default "exclusive" method)
/// computes them, so the benchmark's own spread check agrees with any
/// script that checks its output. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// `n, quartiles, p99` of a sample, for the run's notes.
pub fn summary(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("n={}", values.len());
    }
    let [q1, q2, q3] = quartiles(values);
    format!(
        "n={} q1={q1:.6e} median={q2:.6e} q3={q3:.6e} p99={:.6e}",
        values.len(),
        percentile(values, 99.0)
    )
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, or `None` below twenty samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Failed operations as a share of those attempted; nothing attempted
/// counts as total failure.
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed.min(attempted) as f64 / attempted as f64
    }
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i·period`, whether or not earlier requests have completed.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    pub fn new(start: Instant, rate_per_s: f64) -> OpenLoop {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due to be sent.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }

    /// Latency of request `i` completed at `done`, timed from when it was
    /// due — so a stall also counts against every request queued behind
    /// it, not only the one that hit it.
    pub fn latency(&self, i: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }

    /// How late the generator sent request `i` (zero when on time).
    pub fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

/// Microseconds as `f64`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert!((percentile(&[1.0, 2.0], 25.0) - 1.25).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn open_loop_times_from_due_and_counts_lateness() {
        let t0 = Instant::now();
        let ol = OpenLoop::new(t0, 1000.0); // one request per ms
        assert_eq!(ol.due(0), t0);
        assert_eq!(ol.due(5), t0 + Duration::from_millis(5));
        // Request 1 stalls 10 ms; request 2, due 1 ms later and answered
        // right after, still carries the wait it spent behind the stall.
        let done1 = ol.due(1) + Duration::from_millis(10);
        let done2 = done1 + Duration::from_micros(100);
        assert_eq!(ol.latency(1, done1), Duration::from_millis(10));
        assert_eq!(ol.latency(2, done2), Duration::from_micros(9_100));
        // A sender that woke 30 us late is 30 us late; an early one is on time.
        assert_eq!(
            ol.lateness(3, ol.due(3) + Duration::from_micros(30)),
            Duration::from_micros(30)
        );
        assert_eq!(ol.lateness(4, ol.due(3)), Duration::ZERO);
    }

    #[test]
    fn fail_ratio_counts_every_failure_against_attempts() {
        assert_eq!(fail_ratio(100, 0), 0.0);
        assert_eq!(fail_ratio(100, 3), 0.03);
        assert_eq!(fail_ratio(4, 4), 1.0);
        assert_eq!(fail_ratio(0, 0), 1.0, "nothing attempted is a failure");
        assert_eq!(fail_ratio(2, 5), 1.0, "never above one");
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(us(Duration::from_millis(2)), 2000.0);
        assert_eq!(ms(Duration::from_micros(1500)), 1.5);
    }
}
