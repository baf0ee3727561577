//! Process-wide metric instruments for the index layer.

use soi_obs::metrics::{
    register_counter, register_gauge, register_histogram, Counter, Gauge, Histogram,
    DEFAULT_LATENCY_BUCKETS,
};
use std::sync::OnceLock;

/// Global instruments fed by the index layer.
pub(crate) struct IndexMetrics {
    /// `soi_index_builds_total`: POI index builds.
    pub(crate) builds: &'static Counter,
    /// `soi_index_build_seconds`: wall-clock POI index build time.
    pub(crate) build_seconds: &'static Histogram,
    /// `soi_index_build_alloc_bytes`: heap bytes allocated process-wide
    /// (all build workers) during the most recent index build.
    pub(crate) build_alloc_bytes: &'static Gauge,
    /// `soi_index_build_allocations`: heap allocations process-wide during
    /// the most recent index build.
    pub(crate) build_allocations: &'static Gauge,
    /// `soi_index_build_peak_live_bytes`: process live-heap high-water mark
    /// observed by the end of the most recent index build.
    pub(crate) build_peak_live_bytes: &'static Gauge,
    /// `soi_snapshot_load_seconds`: wall-clock time of the most recent
    /// snapshot load (cold start from disk, validation included).
    pub(crate) snapshot_load_seconds: &'static Gauge,
    /// `soi_snapshot_write_seconds`: wall-clock time of the most recent
    /// snapshot write (encode + atomic rename).
    pub(crate) snapshot_write_seconds: &'static Gauge,
    /// `soi_snapshot_bytes`: on-disk size of the most recently
    /// loaded or written snapshot.
    pub(crate) snapshot_bytes: &'static Gauge,
    /// `soi_snapshot_loads_total`: successful snapshot loads.
    pub(crate) snapshot_loads: &'static Counter,
    /// `soi_snapshot_writes_total`: successful snapshot writes.
    pub(crate) snapshot_writes: &'static Counter,
    /// `soi_snapshot_rebuilds_total`: cache misses resolved by a fresh
    /// build (stale fingerprint, missing file, or a corrupt snapshot).
    pub(crate) snapshot_rebuilds: &'static Counter,
}

/// The index instruments (registered on first use).
pub(crate) fn index_metrics() -> &'static IndexMetrics {
    static METRICS: OnceLock<IndexMetrics> = OnceLock::new();
    METRICS.get_or_init(|| IndexMetrics {
        builds: register_counter("soi_index_builds_total", "POI index builds"),
        build_seconds: register_histogram(
            "soi_index_build_seconds",
            "Wall-clock POI index build time",
            DEFAULT_LATENCY_BUCKETS,
        ),
        build_alloc_bytes: register_gauge(
            "soi_index_build_alloc_bytes",
            "Heap bytes allocated process-wide during the most recent index build",
        ),
        build_allocations: register_gauge(
            "soi_index_build_allocations",
            "Heap allocations process-wide during the most recent index build",
        ),
        build_peak_live_bytes: register_gauge(
            "soi_index_build_peak_live_bytes",
            "Process live-heap high-water mark at the end of the most recent index build",
        ),
        snapshot_load_seconds: register_gauge(
            "soi_snapshot_load_seconds",
            "Wall-clock time of the most recent snapshot load",
        ),
        snapshot_write_seconds: register_gauge(
            "soi_snapshot_write_seconds",
            "Wall-clock time of the most recent snapshot write",
        ),
        snapshot_bytes: register_gauge(
            "soi_snapshot_bytes",
            "On-disk size of the most recently loaded or written snapshot",
        ),
        snapshot_loads: register_counter("soi_snapshot_loads_total", "Successful snapshot loads"),
        snapshot_writes: register_counter(
            "soi_snapshot_writes_total",
            "Successful snapshot writes",
        ),
        snapshot_rebuilds: register_counter(
            "soi_snapshot_rebuilds_total",
            "Index-cache misses resolved by a fresh build",
        ),
    })
}

/// Records the allocator deltas of one index build into the build gauges.
///
/// Build phases fan out over worker threads, so the per-thread
/// [`soi_obs::AllocScope`] cannot see all build allocations; the caller
/// passes process-wide [`soi_obs::alloc::totals`] snapshots taken on the
/// coordinating thread before and after the build instead.
pub fn record_build_alloc(before: soi_obs::alloc::AllocTotals, after: soi_obs::alloc::AllocTotals) {
    let m = index_metrics();
    m.build_alloc_bytes
        .set(after.allocated_bytes.saturating_sub(before.allocated_bytes) as f64);
    m.build_allocations
        .set(after.allocs.saturating_sub(before.allocs) as f64);
    m.build_peak_live_bytes.set(after.peak_bytes as f64);
}

/// Forces registration of every index metric so a gather performed before
/// any query still exposes the full series set.
pub fn register_metrics() {
    let _ = index_metrics();
}
