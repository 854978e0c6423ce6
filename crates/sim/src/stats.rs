//! Measurement utilities used by the experiment harnesses.
//!
//! The paper reports counts (total messages), means (`T_betw`, `T_hand`),
//! fractions (percentage of messages buffered) and maxima (peak physical
//! pages used for buffering). [`Counter`], [`Accum`], [`Histogram`] and
//! [`HighWater`] cover those needs without pulling in an external
//! statistics crate. Run reports hold them as typed fields, one record per
//! measurement (see `udm::RunReport`), and flatten those fields once into a
//! [`MetricsRegistry`] for rendering.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use fugu_sim::stats::Counter;
///
/// let mut sent = Counter::new();
/// sent.add(3);
/// sent.inc();
/// assert_eq!(sent.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the count.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one to the count.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running sum/min/max/mean accumulator over `f64` samples.
///
/// # Example
///
/// ```
/// use fugu_sim::stats::Accum;
///
/// let mut a = Accum::new();
/// for x in [1.0, 2.0, 3.0] {
///     a.push(x);
/// }
/// assert_eq!(a.mean(), 2.0);
/// assert_eq!(a.min(), Some(1.0));
/// assert_eq!(a.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accum {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Accum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accum {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl Default for Accum {
    fn default() -> Self {
        Accum::new()
    }
}

/// Fixed-boundary histogram over `u64` samples.
///
/// Bucket `i` counts samples `x` with `bounds[i-1] <= x < bounds[i]`; an
/// implicit final bucket catches everything at or above the last bound.
///
/// # Example
///
/// ```
/// use fugu_sim::stats::Histogram;
///
/// let mut h = Histogram::new(&[10, 100]);
/// h.record(5);
/// h.record(50);
/// h.record(500);
/// assert_eq!(h.buckets(), &[1, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing bucket
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            total: 0,
        }
    }

    /// Creates a histogram with power-of-two boundaries `1, 2, 4, ... 2^k`.
    pub fn exponential(k: u32) -> Self {
        let bounds: Vec<u64> = (0..=k).map(|i| 1u64 << i).collect();
        Histogram::new(&bounds)
    }

    /// Records a sample.
    pub fn record(&mut self, x: u64) {
        let idx = self.bounds.partition_point(|&b| b <= x);
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Per-bucket counts, including the implicit overflow bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Bucket boundaries as passed to the constructor.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated value at quantile `q` (clamped to `0.0..=1.0`) assuming
    /// samples spread uniformly within their bucket: the containing bucket
    /// is found by cumulative rank and the estimate interpolates linearly
    /// between its edges. Returns `None` when the histogram is empty.
    /// Samples in the implicit overflow bucket have no upper edge to
    /// interpolate toward, so quantiles landing there saturate at the last
    /// bound (record with wide enough bounds if the tail matters).
    ///
    /// # Example
    ///
    /// ```
    /// use fugu_sim::stats::Histogram;
    ///
    /// let mut h = Histogram::new(&[100]);
    /// for _ in 0..4 {
    ///     h.record(10);
    /// }
    /// assert_eq!(h.percentile(0.5), Some(50));
    /// assert_eq!(h.percentile(1.0), Some(100));
    /// assert_eq!(Histogram::new(&[100]).percentile(0.5), None);
    /// ```
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let below = seen as f64;
            seen += c;
            if c == 0 || (seen as f64) < target {
                continue;
            }
            if i >= self.bounds.len() {
                break; // overflow bucket: saturate at the last bound
            }
            let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
            let hi = self.bounds[i];
            let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
            return Some(lo + ((hi - lo) as f64 * frac) as u64);
        }
        Some(self.bounds.last().copied().unwrap_or(0))
    }

    /// Serializes the histogram as a `{bounds, buckets, total}` object —
    /// the shape embedded in run-report metrics.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "bounds",
                Json::array(self.bounds.iter().map(|&b| Json::UInt(b))),
            ),
            (
                "buckets",
                Json::array(self.buckets.iter().map(|&c| Json::UInt(c))),
            ),
            ("total", Json::UInt(self.total)),
        ])
    }
}

/// Tracks the running maximum of a quantity that rises and falls, e.g. the
/// number of physical pages backing a virtual buffer.
///
/// # Example
///
/// ```
/// use fugu_sim::stats::HighWater;
///
/// let mut hw = HighWater::new();
/// hw.set(3);
/// hw.set(7);
/// hw.set(2);
/// assert_eq!(hw.peak(), 7);
/// assert_eq!(hw.current(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HighWater {
    current: u64,
    peak: u64,
}

impl HighWater {
    /// Creates a tracker at zero.
    pub fn new() -> Self {
        HighWater::default()
    }

    /// Sets the current level, updating the peak.
    pub fn set(&mut self, level: u64) {
        self.current = level;
        self.peak = self.peak.max(level);
    }

    /// Adjusts the current level by a signed delta.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the level would go negative.
    pub fn adjust(&mut self, delta: i64) {
        let next = self.current as i64 + delta;
        debug_assert!(next >= 0, "high-water level went negative");
        self.set(next.max(0) as u64);
    }

    /// Current level.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Highest level ever set.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// The flat view of a run report: every measurement under a dotted name
/// (`job.lu.sent`, `node3.vbuf_inserts`, ...) with its rendered value, in
/// sorted key order, so `node10` sorts before `node2`. It is built once
/// from the report's typed fields when the report is collected and is
/// never counted into on its own; an empty map renders as `{}`.
pub type MetricsRegistry = BTreeMap<String, Json>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn accum_tracks_moments() {
        let mut a = Accum::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.min(), None);
        for x in [4.0, -2.0, 10.0] {
            a.push(x);
        }
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 12.0);
        assert_eq!(a.mean(), 4.0);
        assert_eq!(a.min(), Some(-2.0));
        assert_eq!(a.max(), Some(10.0));
    }

    #[test]
    fn accum_default_is_empty() {
        let mut a = Accum::default();
        assert_eq!(a, Accum::new());
        a.push(5.0);
        assert_eq!(a.min(), Some(5.0));
        let mut b = Accum::default();
        b.push(-3.0);
        assert_eq!(b.max(), Some(-3.0));
    }

    #[test]
    fn histogram_buckets_boundaries() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(9); // bucket 0
        h.record(10); // bucket 1 (bounds are inclusive lower ends)
        h.record(19); // bucket 1
        h.record(20); // overflow bucket
        assert_eq!(h.buckets(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = Histogram::new(&[10, 100]);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(1.0), None);
    }

    #[test]
    fn percentile_interpolates_within_single_bucket() {
        // All mass in the [0, 100) bucket: quantiles walk its width.
        let mut h = Histogram::new(&[100]);
        for _ in 0..10 {
            h.record(7);
        }
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(50));
        assert_eq!(h.percentile(0.9), Some(90));
        assert_eq!(h.percentile(1.0), Some(100));
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(h.percentile(-1.0), Some(0));
        assert_eq!(h.percentile(2.0), Some(100));
    }

    #[test]
    fn percentile_spans_buckets_by_rank() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for _ in 0..90 {
            h.record(5); // bucket [0, 10)
        }
        for _ in 0..10 {
            h.record(500); // bucket [100, 1000)
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 < 10, "median lies in the dense low bucket, got {p50}");
        let p95 = h.percentile(0.95).unwrap();
        assert!(
            (100..1000).contains(&p95),
            "p95 lies in the tail bucket, got {p95}"
        );
        assert_eq!(h.percentile(1.0), Some(1000));
    }

    #[test]
    fn percentile_saturates_in_overflow_bucket() {
        // u64::MAX lands in the implicit overflow bucket; quantiles there
        // saturate at the last explicit bound rather than inventing an edge.
        let mut h = Histogram::new(&[10, 100]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.buckets(), &[0, 0, 2]);
        assert_eq!(h.percentile(0.5), Some(100));
        assert_eq!(h.percentile(1.0), Some(100));
        // A histogram with no explicit bounds at all degenerates to zero.
        let mut h = Histogram::new(&[]);
        h.record(42);
        assert_eq!(h.percentile(0.5), Some(0));
    }

    #[test]
    fn histogram_to_json_shape() {
        let mut h = Histogram::new(&[10, 100]);
        h.record(5);
        h.record(u64::MAX);
        assert_eq!(
            h.to_json().render(),
            r#"{"bounds":[10,100],"buckets":[1,0,1],"total":2}"#
        );
        assert_eq!(
            Histogram::new(&[]).to_json().render(),
            r#"{"bounds":[],"buckets":[0],"total":0}"#
        );
    }

    #[test]
    fn exponential_histogram_shape() {
        let h = Histogram::exponential(3);
        assert_eq!(h.bounds(), &[1, 2, 4, 8]);
        assert_eq!(h.buckets().len(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_bounds_panic() {
        Histogram::new(&[5, 5]);
    }

    #[test]
    fn high_water_peaks() {
        let mut hw = HighWater::new();
        hw.adjust(5);
        hw.adjust(-3);
        hw.adjust(1);
        assert_eq!(hw.current(), 3);
        assert_eq!(hw.peak(), 5);
    }
}
