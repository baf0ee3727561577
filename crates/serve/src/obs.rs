//! Serving-layer metric instruments.
//!
//! Registered in the same process-wide registry as the algorithm metrics,
//! so `GET /metrics` gathers one coherent Prometheus text exposition:
//! query-level counters from `soi-core`, batch instruments from
//! `soi-engine`, and the request/overload series here.
//!
//! Alongside the cumulative series, the serving layer exports
//! rolling-window instruments (`*_window_*`, an 8 × 15 s wheel — a two
//! minute window) so dashboards and `/status` can answer "what is the
//! latency/shed rate *right now*" without deriving rates from counters.

use soi_obs::metrics::{
    register_counter, register_gauge, register_histogram, register_windowed_counter,
    register_windowed_histogram, Counter, Gauge, Histogram, WindowedCounter, WindowedHistogram,
    DEFAULT_LATENCY_BUCKETS,
};
use soi_obs::names::metrics as names;
use std::sync::OnceLock;

/// Slots in the rolling-window wheel.
pub(crate) const WINDOW_SLOTS: usize = 8;
/// Seconds per rolling-window slot.
pub(crate) const WINDOW_SLOT_SECS: u64 = 15;

/// Global instruments fed by the HTTP serving layer.
pub(crate) struct ServeMetrics {
    /// `soi_serve_requests_total`: HTTP requests that parsed successfully.
    pub(crate) requests: &'static Counter,
    /// `soi_serve_connections_total`: TCP connections accepted.
    pub(crate) connections: &'static Counter,
    /// `soi_serve_shed_total`: requests shed by admission control (the
    /// bounded queue was full; the client got an immediate 503).
    pub(crate) shed: &'static Counter,
    /// `soi_serve_rejected_total`: connections rejected at the HTTP edge
    /// (malformed request line, oversized body, slow or closed peer).
    pub(crate) rejected: &'static Counter,
    /// `soi_serve_deadline_expired_total`: accepted queries whose deadline
    /// expired mid-run; the response carried `partial: true`.
    pub(crate) deadline_expired: &'static Counter,
    /// `soi_serve_panics_total`: worker panics caught by the isolation
    /// guard (always expected to be zero; the overload suite asserts it).
    pub(crate) panics: &'static Counter,
    /// `soi_serve_slow_queries_total`: requests whose total latency
    /// crossed the `--slow-query-ms` threshold and were logged.
    pub(crate) slow_queries: &'static Counter,
    /// `soi_serve_queue_depth`: current admission-queue depth.
    pub(crate) queue_depth: &'static Gauge,
    /// `soi_serve_request_latency_seconds`: accepted-request latency from
    /// parse completion to response written.
    pub(crate) latency: &'static Histogram,
    /// `soi_serve_request_latency_window_seconds`: rolling-window latency,
    /// all endpoints.
    pub(crate) latency_window: &'static WindowedHistogram,
    /// `soi_serve_soi_latency_window_seconds`: rolling-window latency of
    /// `POST /soi` requests.
    pub(crate) soi_latency_window: &'static WindowedHistogram,
    /// `soi_serve_describe_latency_window_seconds`: rolling-window latency
    /// of `POST /describe` requests.
    pub(crate) describe_latency_window: &'static WindowedHistogram,
    /// `soi_serve_requests_window`: requests completed inside the window.
    pub(crate) requests_window: &'static WindowedCounter,
    /// `soi_serve_shed_window`: requests shed inside the window.
    pub(crate) shed_window: &'static WindowedCounter,
    /// `soi_serve_errors_window`: error responses inside the window.
    pub(crate) errors_window: &'static WindowedCounter,
    /// `soi_serve_partials_window`: partial responses inside the window.
    pub(crate) partials_window: &'static WindowedCounter,
    /// `soi_serve_describe_contexts_built_total`: `/describe` jobs that
    /// built their street's context (the first touch of the street in its
    /// epoch).
    pub(crate) describe_contexts_built: &'static Counter,
    /// `soi_serve_describe_contexts_reused_total`: `/describe` jobs that
    /// read a context an earlier job of the same epoch built.
    pub(crate) describe_contexts_reused: &'static Counter,
    /// `soi_ingest_batches_total`: accepted `POST /ingest` batches.
    pub(crate) ingest_batches: &'static Counter,
    /// `soi_ingest_ops_total`: delta ops accepted across all batches.
    pub(crate) ingest_ops: &'static Counter,
    /// `soi_ingest_rejected_total`: ingest batches rejected whole (parse
    /// or validation failure; state unchanged).
    pub(crate) ingest_rejected: &'static Counter,
    /// `soi_ingest_folds_total`: epoch folds (delta compacted into a
    /// fresh base and the epoch swapped).
    pub(crate) ingest_folds: &'static Counter,
    /// `soi_ingest_epoch`: current epoch id (monotone across swaps).
    pub(crate) ingest_epoch: &'static Gauge,
    /// `soi_ingest_pending_ops`: ops in the live (unfolded) delta.
    pub(crate) ingest_pending: &'static Gauge,
}

/// The serving instruments (registered on first use).
pub(crate) fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        requests: register_counter("soi_serve_requests_total", "HTTP requests parsed"),
        connections: register_counter("soi_serve_connections_total", "TCP connections accepted"),
        shed: register_counter(
            "soi_serve_shed_total",
            "Requests shed by admission control (queue full)",
        ),
        rejected: register_counter(
            "soi_serve_rejected_total",
            "Connections rejected at the HTTP edge (malformed, oversized, slow, or closed)",
        ),
        deadline_expired: register_counter(
            "soi_serve_deadline_expired_total",
            "Accepted queries that hit their deadline and returned partial results",
        ),
        panics: register_counter(
            "soi_serve_panics_total",
            "Worker panics caught by the isolation guard",
        ),
        slow_queries: register_counter(
            "soi_serve_slow_queries_total",
            "Requests slower than the slow-query threshold",
        ),
        queue_depth: register_gauge("soi_serve_queue_depth", "Current admission-queue depth"),
        latency: register_histogram(
            "soi_serve_request_latency_seconds",
            "Accepted-request latency, parse to response",
            DEFAULT_LATENCY_BUCKETS,
        ),
        latency_window: register_windowed_histogram(
            "soi_serve_request_latency_window_seconds",
            "Rolling-window accepted-request latency (all endpoints)",
            DEFAULT_LATENCY_BUCKETS,
            WINDOW_SLOTS,
            WINDOW_SLOT_SECS,
        ),
        soi_latency_window: register_windowed_histogram(
            "soi_serve_soi_latency_window_seconds",
            "Rolling-window POST /soi latency",
            DEFAULT_LATENCY_BUCKETS,
            WINDOW_SLOTS,
            WINDOW_SLOT_SECS,
        ),
        describe_latency_window: register_windowed_histogram(
            "soi_serve_describe_latency_window_seconds",
            "Rolling-window POST /describe latency",
            DEFAULT_LATENCY_BUCKETS,
            WINDOW_SLOTS,
            WINDOW_SLOT_SECS,
        ),
        requests_window: register_windowed_counter(
            "soi_serve_requests_window",
            "Requests completed inside the rolling window",
            WINDOW_SLOTS,
            WINDOW_SLOT_SECS,
        ),
        shed_window: register_windowed_counter(
            "soi_serve_shed_window",
            "Requests shed inside the rolling window",
            WINDOW_SLOTS,
            WINDOW_SLOT_SECS,
        ),
        errors_window: register_windowed_counter(
            "soi_serve_errors_window",
            "Error responses inside the rolling window",
            WINDOW_SLOTS,
            WINDOW_SLOT_SECS,
        ),
        partials_window: register_windowed_counter(
            "soi_serve_partials_window",
            "Partial responses inside the rolling window",
            WINDOW_SLOTS,
            WINDOW_SLOT_SECS,
        ),
        describe_contexts_built: register_counter(
            names::DESCRIBE_CONTEXTS_BUILT,
            "/describe jobs that built their street context (first touch in the epoch)",
        ),
        describe_contexts_reused: register_counter(
            names::DESCRIBE_CONTEXTS_REUSED,
            "/describe jobs that read a street context stored in the epoch",
        ),
        ingest_batches: register_counter(
            "soi_ingest_batches_total",
            "Accepted POST /ingest batches",
        ),
        ingest_ops: register_counter("soi_ingest_ops_total", "Delta ops accepted via ingestion"),
        ingest_rejected: register_counter(
            "soi_ingest_rejected_total",
            "Ingest batches rejected whole (parse or validation failure)",
        ),
        ingest_folds: register_counter(
            "soi_ingest_folds_total",
            "Epoch folds: pending delta compacted into a fresh base",
        ),
        ingest_epoch: register_gauge("soi_ingest_epoch", "Current serving epoch id"),
        ingest_pending: register_gauge(
            "soi_ingest_pending_ops",
            "Ops in the live (unfolded) ingestion delta",
        ),
    })
}

/// Forces registration of every serving metric so a `GET /metrics` before
/// the first request still exposes the full series set (at zero).
pub(crate) fn register_metrics() {
    let _ = serve_metrics();
    soi_core::obs::register_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exposes_serve_series() {
        register_metrics();
        let text = soi_obs::metrics::gather_prefixed("soi_");
        for name in [
            "soi_serve_requests_total",
            "soi_serve_shed_total",
            "soi_serve_panics_total",
            "soi_serve_slow_queries_total",
            "soi_serve_queue_depth",
            "soi_serve_request_latency_seconds",
            "soi_serve_request_latency_window_seconds",
            "soi_serve_soi_latency_window_seconds",
            "soi_serve_describe_latency_window_seconds",
            "soi_serve_requests_window",
            "soi_serve_shed_window",
            "soi_serve_errors_window",
            "soi_serve_partials_window",
            names::DESCRIBE_CONTEXTS_BUILT,
            names::DESCRIBE_CONTEXTS_REUSED,
            "soi_ingest_batches_total",
            "soi_ingest_ops_total",
            "soi_ingest_rejected_total",
            "soi_ingest_folds_total",
            "soi_ingest_epoch",
            "soi_ingest_pending_ops",
        ] {
            assert!(text.contains(name), "{name} missing from gather");
        }
    }
}
