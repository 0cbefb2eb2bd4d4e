//! Measurement primitives used by every experiment.
//!
//! - [`Histogram`]: log-linear latency histogram with exact mean/min/max and
//!   approximate percentiles (relative error bounded by the bucket width,
//!   ≈ 1/64 per octave).
//! - [`Throughput`]: bytes-and-operations accumulator that converts into
//!   MB/s and IO/s over a measured window, matching how the paper reports
//!   Iometer results (Table II, Figure 5).

use std::fmt;
use std::time::Duration;

const SUB_BUCKETS: u64 = 64; // buckets per octave => <=1.6% quantization

/// Log-linear histogram over `u64` samples (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use ustore_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100u64, 200, 300, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(100));
/// assert_eq!(h.max(), Some(400));
/// assert!((h.mean().unwrap() - 250.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<(u64, u64)>, // (bucket index, count), sorted by index
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

// Not derived: `min` starts at `u64::MAX` (sentinel for "no samples"), and
// a derived all-zeros Default would pin every histogram's observed min to 0.
impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    // Bucket geometry is shared with the wall-clock profiler (`prof`),
    // which accumulates counts in atomic per-bucket slots and folds them
    // back through `record_n(bucket_mid(idx), count)`.
    pub(crate) fn bucket_index(v: u64) -> u64 {
        if v < SUB_BUCKETS {
            return v;
        }
        let octave = 63 - u64::from(v.leading_zeros()); // floor(log2 v) >= 6
        let shift = octave - 6; // keep top 7 bits: v >> shift is in [64, 128)
        let mantissa = (v >> shift) - SUB_BUCKETS;
        (octave - 5) * SUB_BUCKETS + mantissa
    }

    fn bucket_low(idx: u64) -> u64 {
        if idx < SUB_BUCKETS {
            return idx;
        }
        let octave = idx / SUB_BUCKETS + 5;
        let mantissa = idx % SUB_BUCKETS;
        (SUB_BUCKETS + mantissa) << (octave - 6)
    }

    /// Inclusive upper bound of a bucket (saturating at `u64::MAX`).
    fn bucket_high(idx: u64) -> u64 {
        if idx < SUB_BUCKETS {
            return idx;
        }
        let octave = idx / SUB_BUCKETS + 5;
        let mantissa = idx % SUB_BUCKETS;
        let high = u128::from(SUB_BUCKETS + mantissa + 1) << (octave - 6);
        (high - 1).min(u128::from(u64::MAX)) as u64
    }

    /// Midpoint of a bucket's value range (the least-biased point
    /// estimate for any sample that landed in it).
    pub(crate) fn bucket_mid(idx: u64) -> u64 {
        if idx < SUB_BUCKETS {
            return idx; // width-1 buckets are exact
        }
        let octave = idx / SUB_BUCKETS + 5;
        let mantissa = idx % SUB_BUCKETS;
        let low = u128::from(SUB_BUCKETS + mantissa) << (octave - 6);
        let high = u128::from(SUB_BUCKETS + mantissa + 1) << (octave - 6);
        ((low + high) / 2).min(u128::from(u64::MAX)) as u64
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = Self::bucket_index(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    /// Records a [`Duration`] in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records `n` occurrences of the same sample value in one call.
    ///
    /// Used when folding pre-aggregated data (e.g. the wall-clock
    /// profiler's atomic bucket counts) into a histogram without paying
    /// one `record` per original sample.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = Self::bucket_index(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += n,
            Err(pos) => self.buckets.insert(pos, (idx, n)),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of all samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Iterates occupied buckets as `(low, high, count)` with inclusive
    /// value bounds, ascending. Exporters use this for cumulative bucket
    /// output without re-deriving the bucket geometry.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(idx, c)| (Self::bucket_low(idx), Self::bucket_high(idx), c))
    }

    /// Approximate `q`-quantile (`0.0..=1.0`), if any samples exist.
    ///
    /// Returns the midpoint of the bucket holding the target rank (the
    /// low edge would bias estimates low by up to one bucket width),
    /// clamped to the exact observed `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_mid(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The histogram of samples recorded since `base` (an earlier snapshot
    /// of this histogram): bucket counts, sample count and sum subtract.
    ///
    /// Exact window min/max are not recoverable from bucketed data, so the
    /// result bounds them by the surviving buckets' ranges intersected with
    /// this histogram's lifetime min/max.
    pub fn diff(&self, base: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for &(idx, c) in &self.buckets {
            let before = base
                .buckets
                .binary_search_by_key(&idx, |&(i, _)| i)
                .ok()
                .map_or(0, |p| base.buckets[p].1);
            if c > before {
                out.buckets.push((idx, c - before));
            }
        }
        out.count = self.count.saturating_sub(base.count);
        out.sum = self.sum.saturating_sub(base.sum);
        if out.count > 0 {
            let first = out.buckets.first().map_or(0, |&(i, _)| Self::bucket_low(i));
            let last = out
                .buckets
                .last()
                .map_or(self.max, |&(i, _)| Self::bucket_high(i));
            out.min = first.max(self.min);
            out.max = last.min(self.max);
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for &(idx, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (idx, c)),
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        *self = Histogram::new();
    }
}

/// Accumulates completed IO operations for throughput reporting.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use ustore_sim::Throughput;
///
/// let mut t = Throughput::new();
/// t.complete(4096);
/// t.complete(4096);
/// let w = t.over(Duration::from_secs(1));
/// assert_eq!(w.ops_per_sec, 2.0);
/// assert!((w.mb_per_sec - 2.0 * 4096.0 / 1e6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Throughput {
    ops: u64,
    bytes: u64,
}

/// Throughput normalized over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputRate {
    /// Completed operations per second (Iometer "IO/s").
    pub ops_per_sec: f64,
    /// Payload megabytes (10^6 bytes) per second (Iometer "MB/s").
    pub mb_per_sec: f64,
}

impl Throughput {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed operation of `bytes` payload.
    pub fn complete(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Normalizes over a measurement window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn over(&self, window: Duration) -> ThroughputRate {
        assert!(
            window > Duration::ZERO,
            "throughput window must be positive"
        );
        let secs = window.as_secs_f64();
        ThroughputRate {
            ops_per_sec: self.ops as f64 / secs,
            mb_per_sec: self.bytes as f64 / 1e6 / secs,
        }
    }

    /// Adds another accumulator's totals.
    pub fn merge(&mut self, other: Throughput) {
        self.ops += other.ops;
        self.bytes += other.bytes;
    }
}

impl fmt::Display for ThroughputRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} IO/s, {:.1} MB/s",
            self.ops_per_sec, self.mb_per_sec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(63));
    }

    #[test]
    fn histogram_quantile_accuracy() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1k..10M ns
        }
        // Bucket midpoints bound the relative error by half a bucket
        // width (1/128 per octave ≈ 0.8%), versus a full width for the
        // old low-edge estimate.
        let p50 = h.quantile(0.5).unwrap() as f64;
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
    }

    #[test]
    fn histogram_quantile_uses_bucket_midpoint() {
        // One sample deep in a wide bucket: the quantile is the bucket
        // midpoint clamped to the observed max.
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(
            h.quantile(0.5),
            Some(1_000_000),
            "clamped to the only sample"
        );
        // Two distinct samples sharing nothing: clamping keeps estimates
        // inside [min, max] while midpoints reduce in-bucket bias.
        let mut h2 = Histogram::new();
        h2.record(1000);
        h2.record(2000);
        let p50 = h2.quantile(0.5).unwrap();
        let idx = Histogram::bucket_index(1000);
        assert_eq!(p50, Histogram::bucket_mid(idx).clamp(1000, 2000));
    }

    #[test]
    fn histogram_diff_window() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        let base = h.clone();
        h.record(300);
        h.record(400_000);
        let d = h.diff(&base);
        assert_eq!(d.count(), 2);
        let mean = d.mean().unwrap();
        assert!((mean - 200_150.0).abs() < 1.0, "window mean {mean}");
        assert!(d.min().unwrap() <= 300);
        assert!(d.max().unwrap() >= 300);
        // Diffing against itself yields an empty histogram.
        let z = h.diff(&h);
        assert_eq!(z.count(), 0);
        assert_eq!(z.quantile(0.5), None);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000_000));
    }

    #[test]
    fn histogram_record_duration() {
        let mut h = Histogram::new();
        h.record_duration(Duration::from_micros(5));
        assert_eq!(h.min(), Some(5_000));
    }

    #[test]
    fn bucket_roundtrip_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last || v < 64, "indices must be monotone");
            last = idx;
            let low = Histogram::bucket_low(idx);
            assert!(low <= v, "bucket low {low} must not exceed value {v}");
            // bucket width is <= value/32 for v >= 64
            if v >= 64 {
                assert!(v - low <= v / 32 + 1, "v={v} low={low}");
            }
        }
    }

    #[test]
    fn throughput_rates() {
        let mut t = Throughput::new();
        for _ in 0..100 {
            t.complete(1 << 22); // 4 MiB
        }
        let r = t.over(Duration::from_secs(2));
        assert_eq!(r.ops_per_sec, 50.0);
        assert!((r.mb_per_sec - 100.0 * (1 << 22) as f64 / 1e6 / 2.0).abs() < 1e-9);
        assert!(r.to_string().contains("IO/s"));
    }

    #[test]
    fn throughput_merge() {
        let mut a = Throughput::new();
        let mut b = Throughput::new();
        a.complete(10);
        b.complete(20);
        a.merge(b);
        assert_eq!(a.ops(), 2);
        assert_eq!(a.bytes(), 30);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn throughput_zero_window_panics() {
        Throughput::new().over(Duration::ZERO);
    }
}
