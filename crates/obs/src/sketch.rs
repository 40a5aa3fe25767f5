//! Streaming log-linear quantile sketches.
//!
//! The pow2 [`Histogram`](crate::Histogram) answers "which decade" but
//! its quantiles are only within 2× — useless as a tracked p99. A
//! [`QuantileSketch`] is an HDR-style log-linear histogram: each
//! power-of-two octave is split into 64 linear sub-buckets, so any
//! reported quantile is within **1/64 ≈ 1.6 % relative error** of the
//! true value, at any magnitude, with a record path of five relaxed
//! atomic ops and no allocation. That is accurate enough to be the
//! headline per-query-kind p50/p95/p99/p999 latency number.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-bucket resolution: each octave `[2^b, 2^(b+1))` is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS; // 64

/// Total bucket count: values `< 64` get exact buckets `0..64`; each
/// of the 58 octaves `[2^6, 2^64)` contributes 64 sub-buckets.
pub const SKETCH_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize; // 3776

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as u64; // >= SUB_BITS
        let sub = (v >> (octave - SUB_BITS as u64)) & (SUB - 1);
        (SUB + (octave - SUB_BITS as u64) * SUB + sub) as usize
    }
}

/// Largest value bucket `i` can hold (the reported quantile value).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        i
    } else {
        let octave = (i - SUB) / SUB + SUB_BITS as u64;
        let sub = (i - SUB) % SUB;
        // Top of the sub-bucket: (64 + sub + 1) · 2^(octave-6) − 1,
        // saturating in the last octave.
        ((SUB + sub + 1) << (octave - SUB_BITS as u64)).wrapping_sub(1)
    }
}

/// A lock-free streaming quantile sketch over `u64` values (typically
/// microseconds). See the module docs for the accuracy bound.
pub struct QuantileSketch {
    buckets: Box<[AtomicU64; SKETCH_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        let buckets: Vec<AtomicU64> = (0..SKETCH_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        QuantileSketch {
            buckets: buckets
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("length is SKETCH_BUCKETS by construction")),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl QuantileSketch {
    /// Creates an empty sketch (registry use; prefer
    /// [`crate::global`]`().sketch(name)` or the [`crate::sketch!`]
    /// macro).
    pub fn new() -> Self {
        QuantileSketch::default()
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

    /// Starts a wall-clock timer whose elapsed microseconds are
    /// recorded when the returned guard drops.
    pub fn start_timer(&self) -> SketchTimer<'_> {
        SketchTimer {
            sketch: self,
            start: Instant::now(),
        }
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

    /// The `q`-quantile (`q ∈ [0, 1]`): the upper bound of the bucket
    /// where the cumulative count crosses `q·count`, capped at the
    /// observed max — within 1/64 relative error of the true value.
    /// Returns 0 when empty.
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
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the sketch's state.
    pub fn snapshot(&self) -> SketchSnapshot {
        let buckets: Vec<(u16, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i as u16, c))
            })
            .collect();
        SketchSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            buckets,
        }
    }
}

impl std::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("count", &self.count())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// A running timer from [`QuantileSketch::start_timer`]; records the
/// elapsed microseconds on drop.
#[must_use = "a timer records on drop; binding it to `_` drops it immediately"]
pub struct SketchTimer<'a> {
    sketch: &'a QuantileSketch,
    start: Instant,
}

impl SketchTimer<'_> {
    /// Microseconds elapsed so far (the timer keeps running).
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for SketchTimer<'_> {
    fn drop(&mut self) {
        self.sketch.record(self.start.elapsed().as_micros() as u64);
    }
}

/// Point-in-time sketch state for export. `buckets` holds
/// `(bucket_index, count)` pairs for non-empty buckets only; use
/// [`SketchSnapshot::bucket_upper`] for the bucket's value bound.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SketchSnapshot {
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
    /// Median (≤ 1/64 relative error, like all quantiles below).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// `(bucket_index, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u16, u64)>,
}

impl SketchSnapshot {
    /// Upper bound (inclusive) of bucket `i` — exposed for exporters.
    pub fn bucket_upper(i: usize) -> u64 {
        bucket_upper(i)
    }

    /// The named quantile from the snapshot (only the precomputed
    /// ones: 0.5, 0.9, 0.95, 0.99, 0.999).
    pub fn quantile(&self, q: f64) -> u64 {
        match q {
            q if q <= 0.5 => self.p50,
            q if q <= 0.9 => self.p90,
            q if q <= 0.95 => self.p95,
            q if q <= 0.99 => self.p99,
            _ => self.p999,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_and_bounds() {
        // Every value maps into a bucket whose bounds contain it.
        for v in (0..64u64).chain([
            64,
            65,
            127,
            128,
            1000,
            4095,
            4096,
            1 << 20,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let i = bucket_of(v);
            assert!(v <= bucket_upper(i), "v={v} above upper of bucket {i}");
            if i > 0 {
                assert!(
                    v > bucket_upper(i - 1),
                    "v={v} not above previous bucket {i}"
                );
            }
        }
        // Buckets are monotone.
        for i in 1..SKETCH_BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1), "non-monotone at {i}");
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(63), 63);
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(u64::MAX), SKETCH_BUCKETS - 1);
    }

    /// The headline guarantee: quantiles within 1/64 relative error
    /// against an exact reference on a seeded heavy-tailed
    /// distribution.
    #[test]
    fn quantiles_match_exact_reference_within_error_bound() {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let s = QuantileSketch::new();
        let mut state = 0xab_2006u64;
        let mut values: Vec<u64> = (0..200_000)
            .map(|_| {
                // Log-uniform-ish latencies: 1 µs .. ~16 s with a heavy
                // tail, the shape service latencies actually have.
                let magnitude = splitmix(&mut state) % 24;
                let v = (1u64 << magnitude) + splitmix(&mut state) % (1u64 << magnitude).max(1);
                v.max(1)
            })
            .collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let exact =
                values[(((values.len() as f64) * q).ceil() as usize - 1).min(values.len() - 1)];
            let got = s.quantile(q);
            let rel = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel <= 1.0 / 64.0 + 1e-9,
                "q={q}: sketch {got} vs exact {exact} (rel err {rel:.4})"
            );
            // Sketch quantiles never understate except by sub-bucket
            // resolution; they must never exceed the observed max.
            assert!(got <= s.max());
        }
        assert_eq!(s.count(), 200_000);
    }

    #[test]
    fn empty_and_reset() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.min(), 0);
        s.record(100);
        assert_eq!(s.count(), 1);
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.snapshot().buckets.len(), 0);
    }

    #[test]
    fn timer_records_elapsed_micros() {
        let s = QuantileSketch::new();
        {
            let t = s.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(t.elapsed_us() >= 1_000);
        }
        assert_eq!(s.count(), 1);
        assert!(s.max() >= 1_000);
    }

    #[test]
    fn concurrent_records_are_exact_in_count() {
        let s = std::sync::Arc::new(QuantileSketch::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..20_000u64 {
                        s.record(t * 20_000 + i);
                    }
                });
            }
        });
        assert_eq!(s.count(), 160_000);
        let total: u64 = s.snapshot().buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 160_000);
    }

    #[test]
    fn snapshot_quantile_lookup() {
        let s = QuantileSketch::new();
        for v in 1..=1000u64 {
            s.record(v);
        }
        let snap = s.snapshot();
        assert_eq!(snap.quantile(0.5), snap.p50);
        assert_eq!(snap.quantile(0.999), snap.p999);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.p999);
    }
}
