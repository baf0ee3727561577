//! The read-only operator routes: `GET /status` and the recent-requests
//! ring behind `GET /debug/requests`.

use super::routes::{error_body, HttpTuple};
use super::Shared;
use crate::http::{self, Request};
use soi_obs::json::JsonWriter;
use std::sync::atomic::Ordering;

/// `GET /status`: liveness, the epoch, the queue, and the rolling-window
/// summary.
pub(super) fn status_body(shared: &Shared<'_>) -> String {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let metrics = crate::obs::serve_metrics();
    let state = shared.epochs.pin();
    let mut obj = JsonWriter::object();
    obj.field_str("status", if draining { "draining" } else { "serving" });
    obj.field_str("dataset", &state.dataset.name);
    // The live-ingestion epoch: monotone across ingest batches and folds.
    let mut epoch = JsonWriter::object();
    epoch.field_u64("id", state.epoch);
    epoch.field_u64("pending_ops", state.pending() as u64);
    epoch.field_u64("applied_ops", state.applied_ops);
    epoch.field_u64("folds", state.folds);
    if let Some(delta) = &state.delta {
        epoch.field_u64("delta_added_pois", delta.added_pois().len() as u64);
        epoch.field_u64("delta_added_photos", delta.added_photos().len() as u64);
        epoch.field_u64("delta_deleted_pois", delta.num_deleted_pois() as u64);
        epoch.field_u64("delta_deleted_photos", delta.num_deleted_photos() as u64);
    }
    obj.field_raw("epoch", &epoch.finish());
    obj.field_u64("queue_depth", shared.queue.depth() as u64);
    obj.field_u64("queue_capacity", shared.queue.capacity() as u64);
    obj.field_u64("engine_threads", shared.engine_threads as u64);
    obj.field_u64("requests", shared.counters.requests.load(Ordering::Relaxed));
    obj.field_u64("sheds", shared.counters.sheds.load(Ordering::Relaxed));
    obj.field_u64("partials", shared.counters.partials.load(Ordering::Relaxed));
    obj.field_f64("uptime_seconds", shared.started.elapsed().as_secs_f64());
    // The rolling-window SLO summary (what is happening *now*, as opposed
    // to the cumulative counters above).
    let mut window = JsonWriter::object();
    window.field_u64("window_seconds", metrics.latency_window.window_secs());
    window.field_u64("requests", metrics.requests_window.sum());
    window.field_u64("sheds", metrics.shed_window.sum());
    window.field_u64("errors", metrics.errors_window.sum());
    window.field_u64("partials", metrics.partials_window.sum());
    let snap = metrics.latency_window.snapshot();
    for (key, q) in [
        ("latency_p50_ms", 0.5),
        ("latency_p95_ms", 0.95),
        ("latency_p99_ms", 0.99),
    ] {
        match snap.quantile(q) {
            Some(v) => window.field_f64(key, v * 1e3),
            None => window.field_raw(key, "null"),
        }
    }
    obj.field_raw("window", &window.finish());
    obj.finish()
}

/// `GET /debug/requests/<id>`: one ring record with artifacts embedded.
pub(super) fn debug_request_by_id(shared: &Shared<'_>, path: &str) -> HttpTuple {
    const JSON: &str = "application/json";
    let raw = &path["/debug/requests/".len()..];
    match raw.parse::<u64>() {
        Ok(id) => match shared.ring.get(id) {
            Some(record) => (200, "OK", JSON, record.to_json(true)),
            None => (
                404,
                "Not Found",
                JSON,
                error_body(
                    "request not in the ring (evicted or never seen)",
                    "not-found",
                ),
            ),
        },
        Err(_) => (
            400,
            "Bad Request",
            JSON,
            error_body("request id must be an integer", "usage"),
        ),
    }
}

/// `GET /debug/requests[?limit=N][&endpoint=soi|describe]`: the ring
/// listing, optionally truncated and/or filtered by endpoint.
pub(super) fn debug_requests_list(shared: &Shared<'_>, request: &Request) -> HttpTuple {
    const JSON: &str = "application/json";
    let usage = |message: &str| (400, "Bad Request", JSON, error_body(message, "usage"));
    let mut limit: Option<usize> = None;
    let mut endpoint: Option<&'static str> = None;
    for (name, value) in http::query_pairs(request.query().unwrap_or("")) {
        match name {
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = Some(n),
                Err(_) => return usage("limit must be a non-negative integer"),
            },
            "endpoint" => {
                // Short names map onto the endpoint strings the ring
                // records.
                endpoint = match value {
                    "soi" => Some("/soi"),
                    "describe" => Some("/describe"),
                    _ => return usage("endpoint must be soi or describe"),
                };
            }
            other => return usage(&format!("unknown parameter {other:?}")),
        }
    }
    (200, "OK", JSON, shared.ring.list_json(limit, endpoint))
}
