//! The edge of the server: the accept loop, the IO workers that parse and
//! answer connections, and admission of query jobs into the engine queue.

use super::routes::{error_body, route, HttpTuple};
use super::Shared;
use crate::http::{self, Limits};
use crate::queue::{BoundedQueue, Job, JobKind, Slot, SlotMeta};
use crate::ring::RequestRecord;
use soi_core::QueryBudget;
use soi_obs::json::JsonWriter;
use soi_obs::log::{self, Value};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closes a connection we rejected without reading its full request.
///
/// Closing with unread bytes in the receive buffer makes the kernel send a
/// TCP RST, which can destroy the rejection response before the client
/// reads it. Half-close the write side (flushing the response with a FIN),
/// then drain what the client already sent, bounded by `limit` so a
/// hostile peer cannot hold the worker.
fn graceful_reject_close(stream: &mut TcpStream, limit: Duration) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + limit.min(Duration::from_millis(500));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    loop {
        if Instant::now() >= deadline {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Accepts connections until shutdown; sheds at the edge when the handoff
/// backlog is full.
pub(super) fn accept_loop(
    listener: &TcpListener,
    conns: &BoundedQueue<TcpStream>,
    shared: &Shared<'_>,
) {
    let metrics = crate::obs::serve_metrics();
    loop {
        let accepted = listener.accept();
        // Checked after every return from `accept`: the connection that
        // ends the wait at shutdown is the waker's own and is dropped.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                metrics.connections.inc();
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_read_timeout(Some(shared.config.socket_timeout));
                let _ = stream.set_write_timeout(Some(shared.config.socket_timeout));
                if let Err(mut stream) = conns.try_push(stream) {
                    metrics.shed.inc();
                    metrics.shed_window.inc();
                    shared.counters.sheds.fetch_add(1, Ordering::Relaxed);
                    let _ = http::write_error(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        "connection backlog full, shedding load",
                    );
                    graceful_reject_close(&mut stream, shared.config.socket_timeout);
                }
            }
            // A failing accept (descriptor exhaustion, an aborted
            // handshake) must not spin the loop.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Ends the accept loop's blocking `accept` at shutdown.
///
/// A flag flip (from a signal handler or a caller) cannot interrupt
/// `accept`, so this thread watches the flag and, once it is set, connects
/// to the listener until the accept loop reports it has left.
pub(super) fn wake_accept_on_shutdown(
    shutdown: &AtomicBool,
    accepting: &AtomicBool,
    listener: SocketAddr,
) {
    const POLL: Duration = Duration::from_millis(5);
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(POLL);
    }
    // A wildcard bind is reached through loopback.
    let mut target = listener;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    while accepting.load(Ordering::SeqCst) {
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(250));
        std::thread::sleep(POLL);
    }
}

/// One IO worker: pops connections and handles them, isolating panics so a
/// poisoned request can never wedge the pool. It exits once the queue is
/// closed and drained.
pub(super) fn io_worker_loop(shared: &Shared<'_>, conns: &BoundedQueue<TcpStream>) {
    while let Some(mut stream) = conns.pop() {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle_connection(shared, &mut stream);
        }));
        if outcome.is_err() {
            crate::obs::serve_metrics().panics.inc();
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_error(
                &mut stream,
                500,
                "Internal Server Error",
                "request handler panicked",
            );
        }
    }
}

/// Per-request observability the router returns alongside the response:
/// what [`finish_request`] folds into the ring record, the windowed
/// instruments, and the slow-query check.
#[derive(Debug, Default)]
pub(super) struct RequestMeta {
    pub(super) endpoint: &'static str,
    pub(super) params: String,
    pub(super) shed: bool,
    /// What the engine worker published for a queued request; `/ingest`
    /// sets the epoch it produced, other inline routes leave it all zero.
    pub(super) job: SlotMeta,
}

pub(super) fn meta_for(endpoint: &'static str) -> RequestMeta {
    RequestMeta {
        endpoint,
        ..RequestMeta::default()
    }
}

/// Parses and answers one connection (one request: `Connection: close`).
fn handle_connection(shared: &Shared<'_>, stream: &mut TcpStream) {
    let metrics = crate::obs::serve_metrics();
    let limits = Limits {
        max_body_bytes: shared.config.max_body_bytes,
        // One socket-timeout interval bounds the whole parse, so even a
        // drip-feed client costs a worker at most that long.
        max_parse_time: shared.config.socket_timeout,
        ..Limits::default()
    };
    let request = match http::read_request(stream, &limits) {
        Ok(request) => request,
        Err(e) => {
            metrics.rejected.inc();
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            if let Some((status, reason)) = e.status() {
                let _ = http::write_error(stream, status, reason, &e.describe());
                graceful_reject_close(stream, shared.config.socket_timeout);
            }
            return;
        }
    };
    metrics.requests.inc();
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    // Ids start at 1; 0 means "no request" in the capture plumbing.
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let started = Instant::now();
    let ((status, reason, content_type, body), meta) =
        soi_obs::trace::with_request_id(request_id, || {
            let _span = soi_obs::trace::span(soi_obs::names::spans::SERVE_REQUEST);
            route(shared, &request, request_id)
        });
    let id_value = request_id.to_string();
    let _ = http::write_response_with_headers(
        stream,
        status,
        reason,
        content_type,
        body.as_bytes(),
        &[("x-soi-request-id", &id_value)],
    );
    finish_request(shared, request_id, status, started.elapsed(), meta);
}

/// Folds one finished request into the observability surfaces: cumulative
/// and windowed instruments, the recent-requests ring, and the slow-query
/// log.
fn finish_request(
    shared: &Shared<'_>,
    request_id: u64,
    status: u16,
    total: Duration,
    meta: RequestMeta,
) {
    let metrics = crate::obs::serve_metrics();
    metrics.latency.observe_duration(total);
    metrics.latency_window.observe_duration(total);
    match meta.endpoint {
        "/soi" => metrics.soi_latency_window.observe_duration(total),
        "/describe" => metrics.describe_latency_window.observe_duration(total),
        _ => {}
    }
    metrics.requests_window.inc();
    let error = meta.job.error || (status >= 400 && !meta.shed);
    if meta.shed {
        metrics.shed_window.inc();
    }
    if error {
        metrics.errors_window.inc();
    }
    if meta.job.partial {
        metrics.partials_window.inc();
    }
    let total_ms = total.as_secs_f64() * 1e3;
    let queue_ms = meta.job.queue.as_secs_f64() * 1e3;
    let exec_ms = meta.job.exec.as_secs_f64() * 1e3;
    if shared.config.slow_query.is_some_and(|t| total >= t) {
        metrics.slow_queries.inc();
        log::event(
            "serve.slow_query",
            "request crossed the slow-query threshold",
            &[
                ("request_id", Value::U64(request_id)),
                ("endpoint", Value::Str(meta.endpoint)),
                ("params", Value::Str(&meta.params)),
                ("status", Value::U64(u64::from(status))),
                ("total_ms", Value::F64(total_ms)),
                ("queue_ms", Value::F64(queue_ms)),
                ("exec_ms", Value::F64(exec_ms)),
                ("partial", Value::Bool(meta.job.partial)),
            ],
        );
    }
    shared.ring.push(RequestRecord {
        id: request_id,
        endpoint: meta.endpoint.to_string(),
        params: meta.params,
        status,
        total_ms,
        shed: meta.shed,
        error,
        job: meta.job,
    });
}

/// One parsed query request on its way into the admission queue.
pub(super) struct Submission {
    pub(super) endpoint: &'static str,
    pub(super) params: String,
    pub(super) kind: JobKind,
    pub(super) budget: QueryBudget,
    pub(super) request_id: u64,
    /// `"trace": true` — capture a request trace and embed it.
    pub(super) embed_trace: bool,
    /// `"explain": true` — run the explain collector and embed its rows.
    pub(super) embed_explain: bool,
    /// The 1-in-N sample: capture a trace into the ring, don't embed.
    pub(super) sampled: bool,
}

/// Splices `request_id` (and, when explicitly requested, the captured
/// trace/explain artifacts) into an already-rendered JSON object body.
fn embed_response_fields(
    body: String,
    request_id: u64,
    trace: Option<&str>,
    explain: Option<&str>,
) -> String {
    let Some(pos) = body.rfind('}') else {
        return body;
    };
    let mut fields = format!("\"request_id\":{request_id}");
    if let Some(trace) = trace {
        fields.push_str(",\"trace\":");
        fields.push_str(trace);
    }
    if let Some(explain) = explain {
        fields.push_str(",\"explain\":");
        fields.push_str(explain);
    }
    let insert = if body[..pos].trim_end().ends_with('{') {
        fields
    } else {
        format!(",{fields}")
    };
    let mut out = body;
    out.insert_str(pos, &insert);
    out
}

/// Admits the job (shedding with 503 when the queue is full) and waits for
/// the response of the engine worker that claims it.
pub(super) fn submit_and_wait(
    shared: &Shared<'_>,
    submission: Submission,
) -> (HttpTuple, RequestMeta) {
    const JSON: &str = "application/json";
    let metrics = crate::obs::serve_metrics();
    let slot = Arc::new(Slot::default());
    let budget = submission.budget;
    let job = Job {
        kind: submission.kind,
        budget,
        slot: Arc::clone(&slot),
        enqueued: Instant::now(),
        request_id: submission.request_id,
        trace: submission.embed_trace || submission.sampled,
        explain: submission.embed_explain,
    };
    if shared.queue.try_push(job).is_err() {
        metrics.shed.inc();
        shared.counters.sheds.fetch_add(1, Ordering::Relaxed);
        let mut obj = JsonWriter::object();
        obj.field_str("error", "admission queue full, shedding load");
        obj.field_u64("request_id", submission.request_id);
        obj.field_u64("queue_depth", shared.queue.depth() as u64);
        obj.field_u64("queue_capacity", shared.queue.capacity() as u64);
        let meta = RequestMeta {
            endpoint: submission.endpoint,
            params: submission.params,
            shed: true,
            ..RequestMeta::default()
        };
        return ((503, "Service Unavailable", JSON, obj.finish()), meta);
    }
    // Backstop only: a worker answers every admitted job (deadlines bound
    // the work, a panic is answered 500), so this grace window fires only
    // if every worker is gone.
    let grace = budget.remaining().unwrap_or(shared.config.max_deadline) + Duration::from_secs(30);
    match slot.wait(grace) {
        Some((status, body, slot_meta)) => {
            let reason = match status {
                200 => "OK",
                400 => "Bad Request",
                404 => "Not Found",
                _ => "Internal Server Error",
            };
            // Sampled captures stay ring-only; explicit asks embed.
            let body = if status == 200 {
                embed_response_fields(
                    body,
                    submission.request_id,
                    submission
                        .embed_trace
                        .then_some(slot_meta.trace_json.as_deref())
                        .flatten(),
                    submission
                        .embed_explain
                        .then_some(slot_meta.explain_json.as_deref())
                        .flatten(),
                )
            } else {
                body
            };
            let meta = RequestMeta {
                endpoint: submission.endpoint,
                params: submission.params,
                shed: false,
                job: slot_meta,
            };
            ((status, reason, JSON, body), meta)
        }
        None => (
            (
                500,
                "Internal Server Error",
                JSON,
                error_body("no engine worker answered in time", "io"),
            ),
            RequestMeta {
                endpoint: submission.endpoint,
                params: submission.params,
                shed: false,
                job: SlotMeta {
                    error: true,
                    ..SlotMeta::default()
                },
            },
        ),
    }
}
