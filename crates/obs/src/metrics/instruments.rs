//! The plain instruments: counters, gauges and fixed-bucket histograms,
//! each bumped with single atomic ops.

use std::sync::atomic::{AtomicU64, Ordering};

/// Default histogram buckets for query-scale latencies, in seconds
/// (100 µs – 10 s, roughly logarithmic; Prometheus-style `le` bounds).
pub const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Default histogram buckets for per-query heap-allocation counts
/// (roughly logarithmic; a warm scratch-reusing query sits in the low
/// thousands, a cold one an order of magnitude higher).
pub const ALLOC_COUNT_BUCKETS: &[f64] = &[
    16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
];

/// Default histogram buckets for per-query peak heap bytes (4 KiB – 1 GiB,
/// powers of four).
pub const ALLOC_BYTES_BUCKETS: &[f64] = &[
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
    67108864.0,
    268435456.0,
    1073741824.0,
];

/// A monotonically increasing integer counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(super) const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (thread counts, cache sizes).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub(super) const fn new() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with cumulative (`le`) bucket counts, in the
/// Prometheus style. Percentiles ([`HistogramSnapshot::quantile`]) are
/// estimated by linear interpolation inside the owning bucket.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds, strictly increasing; an implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts, one per bound plus the `+Inf`
    /// overflow bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, as f64 bits (CAS-updated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub(super) fn new(bounds: &[f64]) -> Self {
        let bounds: Vec<f64> = bounds.to_vec();
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Zeroes every bucket, the sum and the count (a rolling window's
    /// slot, rotated to a new tick).
    pub(super) fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Records one observation given as a [`std::time::Duration`].
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Observations that exceeded the top finite bucket bound (landed in
    /// the implicit `+Inf` bucket). A non-zero overflow means the bucket
    /// layout saturates: quantile estimates are clamped to the top bound
    /// and under-report the true tail.
    pub fn overflow(&self) -> u64 {
        self.counts.last().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// A consistent-enough point-in-time copy for rendering and
    /// percentile estimation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the final `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; `counts.len() == bounds.len()+1`.
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Observations above the top finite bound (the `+Inf` bucket count):
    /// the saturation counterpart of [`Histogram::overflow`]. When this is
    /// non-zero, [`quantile`](Self::quantile) estimates touching the tail
    /// are clamped to the largest finite bound.
    pub fn overflow(&self) -> u64 {
        self.counts.last().copied().unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation inside the bucket that holds the target rank. Returns
    /// `None` when the histogram is empty. Values landing in the `+Inf`
    /// bucket are reported as the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = seen + c;
            if (upto as f64) >= rank {
                let Some(&hi) = self.bounds.get(i) else {
                    // +Inf bucket: the honest answer is "beyond the last
                    // bound"; report that bound.
                    return self.bounds.last().copied();
                };
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            seen = upto;
        }
        self.bounds.last().copied()
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}
