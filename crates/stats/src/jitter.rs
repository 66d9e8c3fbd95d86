//! Jitter: latency variation between consecutive deliveries of a flow.
//!
//! The paper reports jitter alongside latency for the multimedia class
//! (Figure 3's discussion: *Traditional 2 VCs* "would introduce a lot of
//! jitter"). Two standard estimators are kept:
//!
//! * mean absolute difference of consecutive latencies (RFC 3550-style
//!   interarrival jitter, un-smoothed), and
//! * the standard deviation of latency (via Welford's online algorithm).


/// Online jitter estimator for one flow (or one class, if fed per-flow
/// streams through [`JitterTracker::merge`]d instances).
#[derive(Debug, Clone, Default)]
pub struct JitterTracker {
    last: Option<u64>,
    abs_diff_sum: u128,
    abs_diff_count: u64,
    // Welford state over latencies.
    n: u64,
    mean: f64,
    m2: f64,
}

impl JitterTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracker holding the given state. For compact per-flow stores
    /// that record with [`JitterTracker::record`]'s arithmetic and build
    /// the tracker only to merge it (`abs_diff_count` is `n - 1` for a
    /// tracker that saw `n > 0` samples of one flow).
    pub fn from_parts(
        last: Option<u64>,
        abs_diff_sum: u128,
        abs_diff_count: u64,
        n: u64,
        mean: f64,
        m2: f64,
    ) -> Self {
        JitterTracker { last, abs_diff_sum, abs_diff_count, n, mean, m2 }
    }

    /// Record the latency (ns) of the next delivered packet/frame.
    pub fn record(&mut self, latency_ns: u64) {
        if let Some(prev) = self.last {
            self.abs_diff_sum += prev.abs_diff(latency_ns) as u128;
            self.abs_diff_count += 1;
        }
        self.last = Some(latency_ns);
        self.n += 1;
        let x = latency_ns as f64;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Mean |Δlatency| between consecutive deliveries, ns.
    pub fn mean_abs_delta(&self) -> f64 {
        if self.abs_diff_count == 0 {
            return 0.0;
        }
        self.abs_diff_sum as f64 / self.abs_diff_count as f64
    }

    /// Standard deviation of latency, ns.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        (self.m2 / (self.n - 1) as f64).sqrt()
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Merge a per-flow tracker into a class aggregate. The consecutive
    /// |Δ| chains stay per-flow (latencies of different flows are never
    /// compared); variance merges with Chan's parallel formula.
    pub fn merge(&mut self, other: &JitterTracker) {
        self.abs_diff_sum += other.abs_diff_sum;
        self.abs_diff_count += other.abs_diff_count;
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            self.n = other.n;
            self.mean = other.mean;
            self.m2 = other.m2;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let delta = other.mean - self.mean;
        let n = na + nb;
        self.mean += delta * nb / n;
        self.m2 += other.m2 + delta * delta * na * nb / n;
        self.n += other.n;
    }

    /// Serialise to a JSON tree (floats roundtrip bit-exactly).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj(vec![
            ("last", self.last.map_or(Json::Null, |v| Json::Int(v as i128))),
            ("abs_diff_sum", Json::Int(self.abs_diff_sum as i128)),
            ("abs_diff_count", Json::Int(self.abs_diff_count as i128)),
            ("n", Json::Int(self.n as i128)),
            ("mean", Json::Float(self.mean)),
            ("m2", Json::Float(self.m2)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_has_zero_jitter() {
        let mut j = JitterTracker::new();
        for _ in 0..100 {
            j.record(5_000);
        }
        assert_eq!(j.mean_abs_delta(), 0.0);
        assert_eq!(j.std_dev(), 0.0);
        assert_eq!(j.count(), 100);
    }

    #[test]
    fn alternating_latency() {
        let mut j = JitterTracker::new();
        for i in 0..10 {
            j.record(if i % 2 == 0 { 1_000 } else { 3_000 });
        }
        assert_eq!(j.mean_abs_delta(), 2_000.0);
        // Std-dev of a ±1000 alternation around 2000.
        assert!((j.std_dev() - 1_054.0).abs() < 5.0);
    }

    #[test]
    fn single_sample_safe() {
        let mut j = JitterTracker::new();
        j.record(42);
        assert_eq!(j.mean_abs_delta(), 0.0);
        assert_eq!(j.std_dev(), 0.0);
    }

    #[test]
    fn merge_matches_pooled_variance() {
        let samples_a = [1000u64, 2000, 1500, 1800];
        let samples_b = [5000u64, 5200, 4900];
        let mut a = JitterTracker::new();
        let mut b = JitterTracker::new();
        for &s in &samples_a {
            a.record(s);
        }
        for &s in &samples_b {
            b.record(s);
        }
        a.merge(&b);
        // Reference: record everything into one tracker (same variance,
        // though the |Δ| chain would differ — check std_dev only).
        let mut all = JitterTracker::new();
        for &s in samples_a.iter().chain(&samples_b) {
            all.record(s);
        }
        assert!((a.std_dev() - all.std_dev()).abs() < 1e-6);
        assert_eq!(a.count(), 7);
    }

    #[test]
    fn empty_tracker() {
        let j = JitterTracker::new();
        assert_eq!(j.count(), 0);
        assert_eq!(j.mean_abs_delta(), 0.0);
        assert_eq!(j.std_dev(), 0.0);
    }

    #[test]
    fn merge_two_empties_stays_empty() {
        let mut a = JitterTracker::new();
        let b = JitterTracker::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.std_dev(), 0.0);
    }

    #[test]
    fn saturating_latencies_do_not_overflow() {
        // Alternating 0 / u64::MAX maximises every |Δ| term; the u128
        // accumulator must absorb them without wrapping.
        let mut j = JitterTracker::new();
        for i in 0..64 {
            j.record(if i % 2 == 0 { 0 } else { u64::MAX });
        }
        assert_eq!(j.count(), 64);
        assert_eq!(j.mean_abs_delta(), u64::MAX as f64);
        assert!(j.std_dev() > 0.0 && j.std_dev().is_finite());
    }

    #[test]
    fn merge_into_empty() {
        let mut a = JitterTracker::new();
        let mut b = JitterTracker::new();
        b.record(10);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.std_dev() > 0.0);
    }
}
