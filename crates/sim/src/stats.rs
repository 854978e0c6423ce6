//! Measurement utilities used by the experiment harnesses.
//!
//! The paper reports counts (total messages), means (`T_betw`, `T_hand`),
//! fractions (percentage of messages buffered) and maxima (peak physical
//! pages used for buffering). Counts and peaks are plain `u64` fields;
//! every sample stream (handler cycles, per-path span latency) is one
//! [`Histogram`], which keeps exact moments beside its buckets. Run
//! reports hold them as typed fields, one record per measurement (see
//! `udm::RunReport`), and flatten those fields once into a
//! [`MetricsRegistry`] for rendering.

use std::collections::BTreeMap;

use crate::json::Json;

/// Power-of-two histogram over `u64` samples, with exact moments.
///
/// [`Histogram::exponential`]`(k)` has bounds `1, 2, 4, … 2^k`. Bucket 0
/// holds the zero samples, bucket `i` (for `1 <= i <= k`) holds the
/// samples of bit length `i` (`2^(i-1) <= x < 2^i`), and a final overflow
/// bucket holds everything at or above `2^k`. Beside the buckets it keeps
/// the exact count, sum, minimum and maximum of the samples.
///
/// # Example
///
/// ```
/// use fugu_sim::stats::Histogram;
///
/// let mut h = Histogram::exponential(3);
/// for x in [0, 1, 5, 100] {
///     h.record(x);
/// }
/// assert_eq!(h.buckets(), &[1, 1, 0, 1, 1]);
/// assert_eq!((h.total(), h.sum(), h.min(), h.max()), (4, 106, Some(0), Some(100)));
/// assert_eq!(h.mean(), 26.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    k: u32,
    buckets: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with power-of-two bounds `1, 2, 4, … 2^k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`, whose top bound would not fit in a `u64`.
    pub fn exponential(k: u32) -> Self {
        assert!(k < u64::BITS, "histogram bound 2^{k} does not fit in a u64");
        Histogram {
            k,
            buckets: vec![0; k as usize + 2],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: u64) {
        let bits = u64::BITS - x.leading_zeros();
        self.buckets[bits.min(self.k + 1) as usize] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Per-bucket counts, including the overflow bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Estimated value at quantile `q` (clamped to `0.0..=1.0`) assuming
    /// samples spread uniformly within their bucket: the containing bucket
    /// is found by cumulative rank and the estimate interpolates linearly
    /// between its edges. Returns `None` when the histogram is empty.
    /// Samples in the overflow bucket have no upper edge to interpolate
    /// toward, so quantiles landing there saturate at the top bound `2^k`
    /// (pick a larger `k` if the tail matters).
    ///
    /// # Example
    ///
    /// ```
    /// use fugu_sim::stats::Histogram;
    ///
    /// let mut h = Histogram::exponential(7);
    /// for _ in 0..4 {
    ///     h.record(100); // bucket [64, 128)
    /// }
    /// assert_eq!(h.percentile(0.5), Some(96));
    /// assert_eq!(h.percentile(1.0), Some(128));
    /// assert_eq!(Histogram::exponential(7).percentile(0.5), None);
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
            if i > self.k as usize {
                break; // overflow bucket: saturate at the top bound
            }
            let lo = if i == 0 { 0 } else { 1 << (i - 1) };
            let hi = 1u64 << i;
            let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
            return Some(lo + ((hi - lo) as f64 * frac) as u64);
        }
        Some(1 << self.k)
    }

    /// Serializes the histogram as a `{bounds, buckets, total}` object —
    /// the shape embedded in run-report metrics.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "bounds",
                Json::array((0..=self.k).map(|i| Json::UInt(1 << i))),
            ),
            (
                "buckets",
                Json::array(self.buckets.iter().map(|&c| Json::UInt(c))),
            ),
            ("total", Json::UInt(self.total)),
        ])
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
    fn buckets_by_bit_length() {
        let mut h = Histogram::exponential(3);
        h.record(0); // zero bucket
        h.record(1); // [1, 2)
        h.record(2); // [2, 4)
        h.record(3); // [2, 4)
        h.record(7); // [4, 8)
        h.record(8); // overflow: at the top bound 2^3
        h.record(u64::MAX); // overflow
        assert_eq!(h.buckets(), &[1, 1, 2, 1, 2]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn widest_histogram_keeps_u64_max_in_range() {
        let mut h = Histogram::exponential(63);
        h.record(1 << 62);
        h.record(u64::MAX);
        assert_eq!(h.buckets().len(), 65);
        assert_eq!(h.buckets()[63], 1, "2^62 has bit length 63");
        assert_eq!(h.buckets()[64], 1, "u64::MAX is at or above 2^63");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_exponent_panics() {
        Histogram::exponential(64);
    }

    #[test]
    fn moments_are_exact() {
        let mut h = Histogram::exponential(24);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.sum(), 0);
        for x in [4, 0, 10] {
            h.record(x);
        }
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum(), 14);
        assert_eq!(h.mean(), 14.0 / 3.0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(10));
        // Moments are exact even where the buckets saturate.
        let mut h = Histogram::exponential(2);
        h.record(1000);
        assert_eq!(
            (h.min(), h.max(), h.mean()),
            (Some(1000), Some(1000), 1000.0)
        );
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = Histogram::exponential(7);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(1.0), None);
    }

    #[test]
    fn percentile_interpolates_within_single_bucket() {
        // All mass in the [64, 128) bucket: quantiles walk its width.
        let mut h = Histogram::exponential(7);
        for _ in 0..10 {
            h.record(100);
        }
        assert_eq!(h.percentile(0.0), Some(64));
        assert_eq!(h.percentile(0.5), Some(96));
        assert_eq!(h.percentile(0.75), Some(112));
        assert_eq!(h.percentile(1.0), Some(128));
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(h.percentile(-1.0), Some(64));
        assert_eq!(h.percentile(2.0), Some(128));
        // The zero bucket interpolates over [0, 1).
        let mut h = Histogram::exponential(7);
        h.record(0);
        assert_eq!(h.percentile(1.0), Some(1));
    }

    #[test]
    fn percentile_spans_buckets_by_rank() {
        let mut h = Histogram::exponential(10);
        for _ in 0..90 {
            h.record(5); // bucket [4, 8)
        }
        for _ in 0..10 {
            h.record(500); // bucket [256, 512)
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!(
            (4..8).contains(&p50),
            "median lies in the dense low bucket, got {p50}"
        );
        let p95 = h.percentile(0.95).unwrap();
        assert!(
            (256..512).contains(&p95),
            "p95 lies in the tail bucket, got {p95}"
        );
        assert_eq!(h.percentile(1.0), Some(512));
    }

    #[test]
    fn percentile_saturates_in_overflow_bucket() {
        // u64::MAX lands in the overflow bucket; quantiles there saturate
        // at the top bound rather than inventing an edge.
        let mut h = Histogram::exponential(6);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.buckets()[7], 2);
        assert_eq!(h.percentile(0.5), Some(64));
        assert_eq!(h.percentile(1.0), Some(64));
        assert_eq!(h.sum(), u64::MAX, "the sum saturates");
        // With k = 0 the only bound is 1: any positive sample overflows.
        let mut h = Histogram::exponential(0);
        h.record(42);
        assert_eq!(h.buckets(), &[0, 1]);
        assert_eq!(h.percentile(0.5), Some(1));
    }

    #[test]
    fn histogram_to_json_shape() {
        let mut h = Histogram::exponential(2);
        h.record(3);
        h.record(u64::MAX);
        assert_eq!(
            h.to_json().render(),
            r#"{"bounds":[1,2,4],"buckets":[0,0,1,1],"total":2}"#
        );
        assert_eq!(
            Histogram::exponential(0).to_json().render(),
            r#"{"bounds":[1],"buckets":[0,0],"total":0}"#
        );
    }
}
