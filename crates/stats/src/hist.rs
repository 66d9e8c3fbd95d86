//! Log-bucketed histogram for latency recording.
//!
//! Values are nanoseconds (`u64`). Buckets: 64 major power-of-two ranges
//! × `SUB` linear sub-buckets each, giving a worst-case quantisation
//! error below `1/SUB` of the value — plenty for CDF plots — with a
//! fixed, small footprint.


/// Sub-buckets per power-of-two range (relative error ≤ 1/32 ≈ 3 %).
const SUB: usize = 32;
const SUB_BITS: u32 = 5;

/// A log-bucketed histogram of `u64` values (nanoseconds by convention).
///
/// ```
/// use dqos_stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for latency_ns in [5_000u64, 7_000, 9_000, 11_000] {
///     h.record(latency_ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 8_000.0);           // exact, not bucketised
/// assert_eq!(h.max(), 11_000);
/// assert!(h.fraction_at_or_below(9_500) >= 0.75);
/// let cdf = h.cdf();                       // (value, cumulative fraction)
/// assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; 64 * SUB],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value < SUB as u64 {
            // Values below SUB map 1:1 into the first buckets.
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let major = msb - SUB_BITS; // >= 0 because value >= SUB
        let sub = (value >> major) as usize - SUB; // 0..SUB
        ((major + 1) as usize) * SUB + sub
    }

    /// Representative (upper-edge) value of bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let major = (i / SUB - 1) as u32;
        let sub = (i % SUB) as u128;
        // Widen: the very last bucket's edge is exactly 2^64 - 1, and the
        // u64 intermediate `64 << 58` would overflow.
        (((SUB as u128 + sub + 1) << major) - 1).min(u64::MAX as u128) as u64
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values (not bucketised).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Smallest recorded value (exact), or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact), or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper edge: ≤ 3 % high).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Export the CDF as `(value_ns, cumulative_fraction)` points, one
    /// per non-empty bucket — exactly what the paper's CDF figures plot.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut pts = Vec::new();
        if self.total == 0 {
            return pts;
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            pts.push((
                Self::bucket_value(i).min(self.max),
                cum as f64 / self.total as f64,
            ));
        }
        pts
    }

    /// Fraction of recorded values ≤ `value`.
    pub fn fraction_at_or_below(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let b = Self::bucket_of(value);
        let cum: u64 = self.counts[..=b].iter().sum();
        cum as f64 / self.total as f64
    }

    /// Serialise to a JSON tree. Bucket counts are stored sparsely as
    /// `[index, count]` pairs — most of the 2048 buckets are empty.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let counts: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::Int(i as i128), Json::Int(c as i128)]))
            .collect();
        Json::obj(vec![
            ("counts", Json::Arr(counts)),
            ("total", Json::Int(self.total as i128)),
            ("sum", Json::Int(self.sum as i128)),
            ("min", Json::Int(self.min as i128)),
            ("max", Json::Int(self.max as i128)),
        ])
    }

    /// Rebuild from [`LogHistogram::to_json`] output.
    pub fn from_json(j: &crate::json::Json) -> Option<Self> {
        let mut h = LogHistogram::new();
        for pair in j.get("counts")?.as_arr()? {
            let pair = pair.as_arr()?;
            let i = pair.first()?.as_u64()? as usize;
            if i >= h.counts.len() {
                return None;
            }
            h.counts[i] = pair.get(1)?.as_u64()?;
        }
        h.total = j.get("total")?.as_u64()?;
        h.sum = j.get("sum")?.as_u128()?;
        h.min = j.get("min")?.as_u64()?;
        h.max = j.get("max")?.as_u64()?;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn exact_small_values() {
        let mut h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.mean(), 15.5);
        // Small values are exact.
        assert_eq!(h.quantile(1.0 / 32.0), 0);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn mean_is_exact_not_bucketised() {
        let mut h = LogHistogram::new();
        h.record(1_000_003);
        h.record(2_000_001);
        assert_eq!(h.mean(), 1_500_002.0);
    }

    #[test]
    fn quantile_error_bounded() {
        let mut h = LogHistogram::new();
        for v in [10_000u64, 20_000, 30_000, 40_000, 50_000] {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // Within 1/32 of the true median.
        assert!(
            (p50 as f64 - 30_000.0).abs() / 30_000.0 <= 1.0 / 32.0 + 1e-9,
            "p50 {p50}"
        );
        assert_eq!(h.quantile(1.0), 50_000); // clamped to true max
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 97);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev = (0u64, 0.0f64);
        for &(v, f) in &cdf {
            assert!(v >= prev.0);
            assert!(f >= prev.1);
            prev = (v, f);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_at_or_below() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.fraction_at_or_below(9) - 0.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(10) - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(100);
        b.record(300);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 500);
        assert_eq!(a.mean(), 300.0);
    }

    #[test]
    fn single_sample() {
        let mut h = LogHistogram::new();
        h.record(123_456);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 123_456);
        assert_eq!(h.max(), 123_456);
        assert_eq!(h.mean(), 123_456.0);
        // Every quantile of a one-sample histogram is that sample
        // (bucketised, then clamped to the exact min/max).
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 123_456, "q={q}");
        }
        assert_eq!(h.cdf(), vec![(123_456, 1.0)]);
    }

    #[test]
    fn saturating_values_do_not_overflow() {
        // u64::MAX lands in the last sub-bucket of the top major range,
        // whose upper edge is exactly u64::MAX — no wraparound anywhere.
        let mut h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(u64::MAX);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.mean(), u64::MAX as f64);
        let j = h.to_json();
        let back = LogHistogram::from_json(&j).expect("roundtrip");
        assert_eq!(back.count(), 1000);
        assert_eq!(back.max(), u64::MAX);
    }

    #[test]
    fn empty_histogram_json_roundtrip() {
        // The empty sentinel (min = u64::MAX, max = 0) must survive
        // serialisation without inventing samples.
        let h = LogHistogram::new();
        let back = LogHistogram::from_json(&h.to_json()).expect("roundtrip");
        assert_eq!(back.count(), 0);
        assert_eq!(back.min(), 0);
        assert_eq!(back.max(), 0);
        assert!(back.cdf().is_empty());
    }

    /// Shared check for the merged-quantile bound: for every probed q,
    /// `min_shard_q  ≤  merged_q  ≤  max_shard_q · (1 + 1/32) + 1`.
    ///
    /// The lower bound is exact. The upper bound carries the bucket
    /// quantisation slack: each shard clamps its bucket upper edge to its
    /// own max, while the merged histogram clamps to the global max, so
    /// the merged value can exceed the loosest shard by up to one bucket
    /// width (≤ 1/32 relative).
    fn assert_merged_quantiles_bounded(shards: &[LogHistogram]) {
        let mut merged = LogHistogram::new();
        for s in shards {
            merged.merge(s);
        }
        let occupied: Vec<&LogHistogram> = shards.iter().filter(|s| s.count() > 0).collect();
        if occupied.is_empty() {
            return;
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let m = merged.quantile(q);
            let lo = occupied.iter().map(|s| s.quantile(q)).min().unwrap();
            let hi = occupied.iter().map(|s| s.quantile(q)).max().unwrap();
            assert!(
                m >= lo,
                "merged q{q} = {m} below tightest shard quantile {lo}"
            );
            assert!(
                m as f64 <= hi as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                "merged q{q} = {m} above loosest shard quantile {hi} + bucket slack"
            );
        }
    }

    /// Randomized property tests, driven by the in-house RNG with fixed
    /// seeds.
    mod randomized {
        use super::*;
        use dqos_sim_core::SimRng;

        #[test]
        fn bucket_error_bounded_and_monotone() {
            let mut rng = SimRng::new(0xBEEF);
            let mut prev: Option<(u64, usize)> = None;
            let mut values: Vec<u64> =
                (0..20_000).map(|_| rng.range_u64(0, u64::MAX / 2)).collect();
            values.extend(0..64); // exercise the exact small-value region
            values.sort_unstable();
            for v in values {
                let b = LogHistogram::bucket_of(v);
                let rep = LogHistogram::bucket_value(b);
                assert!(rep >= v, "representative below value for {v}");
                if v >= 32 {
                    assert!((rep - v) as f64 / v as f64 <= 1.0 / 32.0, "error too large for {v}");
                } else {
                    assert_eq!(rep, v);
                }
                if let Some((pv, pb)) = prev {
                    assert!(b >= pb, "bucket_of not monotone at {pv} -> {v}");
                }
                prev = Some((v, b));
            }
        }

        #[test]
        fn merged_quantiles_bound_shards_randomized() {
            let mut rng = SimRng::new(0xD1CE);
            for _ in 0..100 {
                let shard_count = 1 + rng.index(5);
                let hists: Vec<LogHistogram> = (0..shard_count)
                    .map(|_| {
                        let n = rng.index(120); // may be empty
                        let mut h = LogHistogram::new();
                        for _ in 0..n {
                            h.record(rng.range_u64(0, 99_999_999));
                        }
                        h
                    })
                    .collect();
                assert_merged_quantiles_bounded(&hists);
            }
        }

        #[test]
        fn quantiles_monotone_randomized() {
            let mut rng = SimRng::new(0xCAFE);
            for _ in 0..100 {
                let n = 1 + rng.index(200);
                let mut h = LogHistogram::new();
                for _ in 0..n {
                    h.record(rng.range_u64(0, 9_999_999));
                }
                let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
                let mut last = 0;
                for &q in &qs {
                    let v = h.quantile(q);
                    assert!(v >= last);
                    assert!(v >= h.min() && v <= h.max());
                    last = v;
                }
            }
        }
    }
}
