//! Fixed-bucket (power-of-two) histograms.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket `i` holds values whose bit length is `i`,
/// i.e. `v == 0` → bucket 0, otherwise `v ∈ [2^(i−1), 2^i)` → bucket
/// `i` (clamped to the last bucket). Covers the full `u64` range.
pub const NUM_BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound (inclusive) of bucket `i`: the largest value the bucket
/// can hold. Used as the reported quantile value.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free histogram over `u64` values with 65 power-of-two
/// buckets plus exact `count`, `sum`, `min`, and `max`.
///
/// Power-of-two buckets trade resolution (quantiles are reported as
/// the bucket's upper bound, so within 2× of the true value) for a
/// record path that is four relaxed atomic ops and no allocation —
/// cheap enough for per-query timing on the hot paths.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram (registry use; prefer
    /// [`crate::global`]`().histogram(name)`).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Smallest recorded value; 0 when empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the upper bound of the bucket
    /// where the cumulative count crosses `q·count` — an overestimate
    /// by at most 2×. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Zeroes every bucket and statistic.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u8, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i as u8, c))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("max", &self.max())
            .finish()
    }
}

/// Point-in-time histogram state for export. `buckets` holds
/// `(bit_length, count)` pairs for non-empty buckets only: bucket `b`
/// covers values in `[2^(b−1), 2^b)` (bucket 0 is exactly zero).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Mean of recorded values (0 when empty).
    pub mean: f64,
    /// Median, as the bucket upper bound (≤ 2× the true value).
    pub p50: u64,
    /// 90th percentile, same resolution.
    pub p90: u64,
    /// 99th percentile, same resolution.
    pub p99: u64,
    /// `(bit_length, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Upper bound (inclusive) of bucket `i` — exposed for exporters.
    pub fn bucket_upper(i: usize) -> u64 {
        bucket_upper(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn stats_track_records() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-12);
        // p50 falls in bucket of 2..=3.
        assert!(h.quantile(0.5) <= 3);
        // p99 caps at the observed max.
        assert_eq!(h.quantile(0.99), 100);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        let s = h.snapshot();
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn concurrent_records_are_exact() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8u64;
        let per_thread = 50_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), threads * per_thread);
        let total: u64 = h.snapshot().buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, threads * per_thread);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), threads * per_thread - 1);
    }

    #[test]
    fn snapshot_reflects_buckets() {
        let h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(6);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(0, 1), (3, 2)]);
        h.reset();
        assert_eq!(h.count(), 0);
    }
}
