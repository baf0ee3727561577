//! Routing, and the parsing of each route's request into a query job.

use super::debug::{debug_request_by_id, debug_requests_list, status_body};
use super::ingest::ingest_post;
use super::io::{meta_for, submit_and_wait, RequestMeta, Submission};
use super::{ServeConfig, Shared};
use crate::http::Request;
use crate::queue::JobKind;
use soi_common::{ErrorCategory, Result, SoiError};
use soi_core::describe::DescribeParams;
use soi_core::soi::SoiQuery;
use soi_core::QueryBudget;
use soi_data::Dataset;
use soi_obs::json::{Json, JsonWriter};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The HTTP response tuple the router produces.
pub(super) type HttpTuple = (u16, &'static str, &'static str, String);

/// Routes one parsed request to its handler.
pub(super) fn route(
    shared: &Shared<'_>,
    request: &Request,
    request_id: u64,
) -> (HttpTuple, RequestMeta) {
    const JSON: &str = "application/json";
    // A query route's answer, or the error that kept it out of the queue.
    let queued = |endpoint, submitted: Result<(HttpTuple, RequestMeta)>| {
        submitted.unwrap_or_else(|e| (error_tuple(&e), meta_for(endpoint)))
    };
    match (request.method.as_str(), request.path()) {
        ("GET", "/metrics") => {
            // Refresh uptime and the trace dropped-event counter so the
            // scrape reflects now, not startup.
            soi_obs::metrics::publish_process_metrics(env!("CARGO_PKG_VERSION"));
            (
                (
                    200,
                    "OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    soi_obs::metrics::gather(),
                ),
                meta_for("/metrics"),
            )
        }
        ("GET", "/status") => ((200, "OK", JSON, status_body(shared)), meta_for("/status")),
        ("GET", "/debug/requests") => {
            let mut meta = meta_for("/debug/requests");
            meta.params = request.query().unwrap_or("").to_string();
            (debug_requests_list(shared, request), meta)
        }
        ("GET", path) if path.starts_with("/debug/requests/") => (
            debug_request_by_id(shared, path),
            meta_for("/debug/requests/<id>"),
        ),
        ("POST", "/soi") => queued("/soi", submit_soi(shared, request, request_id)),
        ("POST", "/describe") => queued("/describe", submit_describe(shared, request, request_id)),
        ("POST", "/ingest") => {
            let mut meta = meta_for("/ingest");
            match ingest_post(shared, request, request_id) {
                Ok((body, params, epoch)) => {
                    meta.params = params;
                    meta.job.epoch = epoch;
                    ((200, "OK", JSON, body), meta)
                }
                Err(e) => {
                    crate::obs::serve_metrics().ingest_rejected.inc();
                    (error_tuple(&e), meta)
                }
            }
        }
        ("GET" | "POST", _) => (
            (
                404,
                "Not Found",
                JSON,
                error_body("no such route", "not-found"),
            ),
            RequestMeta::default(),
        ),
        _ => (
            (
                405,
                "Method Not Allowed",
                JSON,
                error_body("unsupported method", "usage"),
            ),
            RequestMeta::default(),
        ),
    }
}

/// Maps a [`SoiError`] to an HTTP response tuple.
pub(super) fn error_tuple(e: &SoiError) -> HttpTuple {
    let (status, reason) = match e.category() {
        ErrorCategory::Usage | ErrorCategory::Data => (400, "Bad Request"),
        ErrorCategory::NotFound => (404, "Not Found"),
        ErrorCategory::Io => (500, "Internal Server Error"),
    };
    (
        status,
        reason,
        "application/json",
        error_body(&e.to_string(), &e.category().to_string()),
    )
}

pub(super) fn error_body(message: &str, category: &str) -> String {
    let mut obj = JsonWriter::object();
    obj.field_str("error", message);
    obj.field_str("category", category);
    obj.finish()
}

pub(super) fn parse_body(bytes: &[u8]) -> Result<Json> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| SoiError::invalid("body must be UTF-8 JSON"))?;
    if text.trim().is_empty() {
        return Err(SoiError::invalid("body must be a JSON object"));
    }
    soi_obs::json::parse(text).map_err(|e| SoiError::invalid(format!("bad JSON body: {e}")))
}

/// Resolves the request's deadline: `deadline_ms` clamped to the cap, or
/// the server default.
fn request_budget(config: &ServeConfig, body: &Json) -> Result<QueryBudget> {
    let timeout = match body.get("deadline_ms") {
        None => config.default_deadline,
        Some(v) => {
            let ms = v
                .as_f64()
                .filter(|ms| *ms > 0.0 && ms.is_finite())
                .ok_or_else(|| SoiError::invalid("deadline_ms must be a positive number"))?;
            // Clamped as a float first: `from_secs_f64` panics above
            // `Duration`'s range.
            Duration::from_secs_f64((ms / 1e3).min(config.max_deadline.as_secs_f64()))
        }
    };
    Ok(QueryBudget::from_timeout(timeout))
}

/// Parses the `/soi` JSON body into a validated query plus a short
/// human-readable parameter digest for the ring.
fn parse_soi_query(
    config: &ServeConfig,
    dataset: &Dataset,
    body: &Json,
) -> Result<(SoiQuery, String)> {
    let words: Vec<&str> = match body.get("keywords").and_then(|v| v.as_arr()) {
        Some(items) if !items.is_empty() => {
            let words: Vec<&str> = items.iter().filter_map(|v| v.as_str()).collect();
            if words.len() != items.len() {
                return Err(SoiError::invalid("keywords must be an array of strings"));
            }
            words
        }
        _ => return Err(SoiError::invalid("body needs a keywords array")),
    };
    let k = match body.get("k") {
        None => 10,
        Some(v) => v
            .as_f64()
            .filter(|k| *k >= 1.0 && k.fract() == 0.0)
            .ok_or_else(|| SoiError::invalid("k must be a positive integer"))?
            as usize,
    };
    let eps = match body.get("eps") {
        None => config.eps,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| SoiError::invalid("eps must be a number"))?,
    };
    let digest = format!("keywords=[{}] k={k} eps={eps}", words.join(","));
    let keywords = dataset.query_keywords(&words);
    Ok((SoiQuery::new(keywords, k, eps)?, digest))
}

/// Reads an optional boolean capture flag (`"trace"` / `"explain"`).
fn capture_flag(body: &Json, name: &str) -> Result<bool> {
    match body.get(name) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| SoiError::invalid(format!("{name} must be a boolean"))),
    }
}

/// Advances the sampling tick; true when this query is the 1-in-N sample.
fn sampled_trace(shared: &Shared<'_>) -> bool {
    let n = shared.config.trace_sample;
    n > 0
        && shared
            .trace_tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(n)
}

/// Parses the body, admits a k-SOI job, and waits for its response.
fn submit_soi(
    shared: &Shared<'_>,
    request: &Request,
    request_id: u64,
) -> Result<(HttpTuple, RequestMeta)> {
    let body = parse_body(&request.body)?;
    let (query, params) = {
        let state = shared.epochs.pin();
        parse_soi_query(shared.config, &state.dataset, &body)?
    };
    let submission = Submission {
        endpoint: "/soi",
        params,
        kind: JobKind::Soi(query),
        budget: request_budget(shared.config, &body)?,
        request_id,
        embed_trace: capture_flag(&body, "trace")?,
        embed_explain: capture_flag(&body, "explain")?,
        sampled: sampled_trace(shared),
    };
    Ok(submit_and_wait(shared, submission))
}

/// Parses the body, admits a describe job, and waits for its response.
fn submit_describe(
    shared: &Shared<'_>,
    request: &Request,
    request_id: u64,
) -> Result<(HttpTuple, RequestMeta)> {
    let body = parse_body(&request.body)?;
    // Street ids and names live in the road network, which is static
    // across epochs — resolving against any pinned epoch is sound.
    let state = shared.epochs.pin();
    let street = match body.get("street") {
        Some(Json::Str(name)) => state
            .dataset
            .street_by_name(name)
            .ok_or_else(|| SoiError::not_found(format!("street {name:?}")))?,
        Some(Json::Num(id)) => {
            // Range-checked as a float: `as usize` saturates, so -1 (or
            // NaN) would otherwise answer for street 0.
            let streets = state.dataset.network.streets();
            if !(*id >= 0.0 && *id < streets.len() as f64 && id.fract() == 0.0) {
                return Err(SoiError::not_found(format!("street id {id}")));
            }
            streets[*id as usize].id
        }
        _ => return Err(SoiError::invalid("body needs a street (name or id)")),
    };
    drop(state);
    let number = |name: &str, default: f64| -> Result<f64> {
        match body.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_f64()
                .ok_or_else(|| SoiError::invalid(format!("{name} must be a number"))),
        }
    };
    let k = number("k", 5.0)?;
    if k < 1.0 || k.fract() != 0.0 {
        return Err(SoiError::invalid("k must be a positive integer"));
    }
    let lambda = number("lambda", 0.5)?;
    let w = number("w", 0.5)?;
    let params = DescribeParams::new(k as usize, lambda, w)?;
    let budget = request_budget(shared.config, &body)?;
    let submission = Submission {
        endpoint: "/describe",
        params: format!(
            "street={} k={k} lambda={lambda} w={w}",
            u64::from(street.raw())
        ),
        kind: JobKind::Describe { street, params },
        budget,
        request_id,
        embed_trace: capture_flag(&body, "trace")?,
        embed_explain: capture_flag(&body, "explain")?,
        sampled: sampled_trace(shared),
    };
    Ok(submit_and_wait(shared, submission))
}
