//! Engine-level instruments: per-query memory-accounting histograms.
//!
//! The engine is where per-query allocation behaviour is visible (each
//! query runs under an [`soi_obs::AllocScope`] on its worker thread), so
//! the distribution instruments live here. The scratch-reuse design means
//! warm queries should sit in the lowest buckets; a drift towards the
//! upper buckets is the earliest sign of an allocation regression in the
//! query path.

use soi_obs::metrics::{register_histogram, Histogram, ALLOC_BYTES_BUCKETS, ALLOC_COUNT_BUCKETS};
use std::sync::OnceLock;

/// Global instruments fed by engine batch execution.
pub(crate) struct EngineMetrics {
    /// `soi_engine_query_allocations`: heap allocations per k-SOI query
    /// (worker-thread scope).
    pub(crate) query_allocations: &'static Histogram,
    /// `soi_engine_query_alloc_peak_bytes`: peak live heap bytes per
    /// k-SOI query above the scope baseline.
    pub(crate) query_alloc_peak_bytes: &'static Histogram,
}

/// The engine instruments (registered on first use).
pub(crate) fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        query_allocations: register_histogram(
            "soi_engine_query_allocations",
            "Heap allocations per k-SOI query on its worker thread",
            ALLOC_COUNT_BUCKETS,
        ),
        query_alloc_peak_bytes: register_histogram(
            "soi_engine_query_alloc_peak_bytes",
            "Peak live heap bytes per k-SOI query above the scope baseline",
            ALLOC_BYTES_BUCKETS,
        ),
    })
}

/// Forces registration of the engine metrics, and of the core-algorithm
/// metrics its jobs feed, so a gather performed before any batch still
/// exposes the full series set and no job's allocation scope pays for it.
pub fn register_metrics() {
    soi_core::obs::register_metrics();
    let _ = engine_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exposes_alloc_series() {
        register_metrics();
        let text = soi_obs::metrics::gather_prefixed("soi_engine_");
        assert!(text.contains("soi_engine_query_allocations"));
        assert!(text.contains("soi_engine_query_alloc_peak_bytes"));
    }
}
