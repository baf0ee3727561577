//! Spans and trace recording.
//!
//! Recording is off by default; [`set_enabled`]`(true)` (the CLI's
//! `--trace-out`) turns it on process-wide. Every entry
//! point first checks one relaxed atomic load, so instrumentation compiled
//! into a release binary is near-free while disabled — the overhead guard
//! test in `tests/obs.rs` and the PR 3 entry of CHANGES.md keep that honest.
//!
//! While enabled, events go into a **per-thread** buffer (a plain
//! `RefCell<Vec<_>>` push: no locks, no atomics on the record path). A
//! thread's buffer is flushed into the global drain list when the thread
//! exits (worker threads of an engine batch) or when the thread itself
//! calls [`take_events`] / [`flush_thread`]. Draining therefore sees every
//! event of joined threads plus the calling thread; long-lived helper
//! threads should call [`flush_thread`] at a quiescent point.
//!
//! [`chrome_trace_json`] renders drained events as Chrome `trace_event`
//! JSON — open the file at `chrome://tracing` or <https://ui.perfetto.dev>.
//! Span guards emit complete (`"X"`) events; [`begin`]/[`end`] emit `"B"`/
//! `"E"` pairs (used by `PhaseTimer`, whose phases are not lexically
//! scoped); [`counter`] emits `"C"` counter tracks (sampled UB/LBk values).
//!
//! ### Per-request capture
//!
//! Besides the process-wide switch, a caller can scope recording to one
//! unit of work with [`capture`]: events recorded on the calling thread
//! inside the closure go into a private buffer returned to the caller,
//! without touching the global enable flag — concurrent threads that are
//! not capturing keep paying only the single relaxed load of the disabled
//! path. The serving layer uses this for `"trace": true` requests, so one
//! traced request never taxes its neighbours. While capturing (or inside
//! [`with_request_id`]), recorded events carry the request id in
//! [`TraceEvent::req`], rendered as `args.request_id` in the Chrome JSON.

use crate::json::JsonWriter;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cap on buffered events per thread; beyond it events are dropped and
/// counted in [`dropped_events`] (a runaway trace must not OOM the
/// process).
const MAX_EVENTS_PER_THREAD: usize = 1 << 21;

/// Cap on events buffered by one [`capture`] scope; beyond it events are
/// dropped and counted in [`dropped_events`] (a single traced request must
/// stay bounded in memory).
const MAX_EVENTS_PER_CAPTURE: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn drained() -> &'static Mutex<Vec<TraceEvent>> {
    static DRAINED: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    DRAINED.get_or_init(|| Mutex::new(Vec::new()))
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns trace recording on or off process-wide.
///
/// Enabling also pins the trace epoch (timestamps are nanoseconds since
/// the first enable). Disabling does not discard already-buffered events.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before any event can be recorded.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether trace recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of events dropped because a thread buffer hit its cap.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A span with a known duration (Chrome `"X"`).
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A span opening (Chrome `"B"`), closed by a matching [`EventKind::End`].
    Begin,
    /// A span closing (Chrome `"E"`).
    End,
    /// A sampled counter value (Chrome `"C"`), plotted as a track.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event (span / track) name — one of [`crate::names`].
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Recording thread (small dense ids, 1 = first recording thread).
    pub tid: u64,
    /// Request id in effect when the event was recorded (see
    /// [`with_request_id`] / [`capture`]); `0` = no request association.
    pub req: u64,
    /// Payload.
    pub kind: EventKind,
}

struct LocalBuf {
    tid: u64,
    depth: Cell<usize>,
    events: RefCell<Vec<TraceEvent>>,
}

impl LocalBuf {
    fn push(&self, ev: TraceEvent) {
        let mut events = self.events.borrow_mut();
        if events.len() >= MAX_EVENTS_PER_THREAD {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(ev);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        let events = self.events.get_mut();
        if !events.is_empty() {
            if let Ok(mut sink) = drained().lock() {
                sink.append(events);
            }
        }
    }
}

thread_local! {
    static LOCAL: LocalBuf = LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        depth: Cell::new(0),
        events: RefCell::new(Vec::new()),
    };
    /// Request id stamped into events recorded on this thread (0 = none).
    /// Const-initialised `Cell`s: reading them costs a TLS address load,
    /// no lazy-init branch and no destructor registration.
    static CURRENT_REQ: Cell<u64> = const { Cell::new(0) };
    /// Whether a [`capture`] scope is active on this thread.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// The active capture scope's private event buffer.
    static CAPTURED: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

/// Whether the calling thread is inside a [`capture`] scope.
#[inline]
fn capturing() -> bool {
    CAPTURING.with(Cell::get)
}

/// Whether the record path is live for the calling thread: the global
/// switch first (one relaxed load — the only cost of the fully disabled
/// path), then the thread's capture flag.
#[inline]
fn recording() -> bool {
    enabled() || capturing()
}

fn record(name: &'static str, kind: EventKind, ts_ns: u64) {
    let req = CURRENT_REQ.with(Cell::get);
    let tid = LOCAL.with(|local| local.tid);
    let ev = TraceEvent {
        name,
        ts_ns,
        tid,
        req,
        kind,
    };
    if capturing() {
        CAPTURED.with(|captured| {
            let mut events = captured.borrow_mut();
            if events.len() >= MAX_EVENTS_PER_CAPTURE {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            } else {
                events.push(ev.clone());
            }
        });
    }
    if enabled() {
        LOCAL.with(|local| local.push(ev));
    }
}

/// Runs `f` with `request_id` stamped into every event the calling thread
/// records (global trace or capture) for the duration of the call.
///
/// Scopes nest: the previous id is restored on exit. When recording is
/// fully off this is two thread-local stores around the call.
pub fn with_request_id<R>(request_id: u64, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT_REQ.with(|cell| cell.replace(request_id));
    let out = f();
    CURRENT_REQ.with(|cell| cell.set(previous));
    out
}

/// Runs `f` with per-request trace capture active on the calling thread
/// and returns its result alongside the events recorded inside the scope.
///
/// Capture is independent of the global [`set_enabled`] switch: it records
/// even while the process-wide trace is off, and its events go into a
/// private buffer (bounded by an internal cap, overflow counted in
/// [`dropped_events`]) — they are *not* added to the global drain list
/// unless the global trace is also enabled. Events carry `request_id` in
/// [`TraceEvent::req`]. Scopes do not nest (the work of one request is a
/// single scope); a nested call records into the outer scope's buffer.
///
/// Other threads are untouched: a thread that is neither capturing nor
/// globally enabled still pays only one relaxed atomic load per probe.
pub fn capture<R>(request_id: u64, f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
    // Pin the epoch so captured timestamps are meaningful even when the
    // global trace was never enabled.
    let _ = epoch();
    let nested = CAPTURING.with(|cell| cell.replace(true));
    let out = with_request_id(request_id, f);
    if nested {
        // Outer scope owns the buffer; report no events here.
        return (out, Vec::new());
    }
    CAPTURING.with(|cell| cell.set(false));
    let mut events = CAPTURED.with(|captured| std::mem::take(&mut *captured.borrow_mut()));
    events.sort_by_key(|e| e.ts_ns);
    (out, events)
}

/// An RAII span guard: records a complete event from creation to drop.
///
/// Created by [`span`]; a disabled guard is inert (no timestamp taken, no
/// event recorded on drop).
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    start_ns: Option<u64>,
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start_ns) = self.start_ns else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        LOCAL.with(|local| local.depth.set(local.depth.get().saturating_sub(1)));
        record(self.name, EventKind::Complete { dur_ns }, start_ns);
    }
}

/// Opens a span named `name`, measured until the returned guard drops.
///
/// When tracing is disabled (globally and for this thread's capture
/// scope) this is one relaxed atomic load plus a thread-local read and
/// returns an inert guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !recording() {
        return Span {
            name,
            start_ns: None,
        };
    }
    LOCAL.with(|local| local.depth.set(local.depth.get() + 1));
    Span {
        name,
        start_ns: Some(now_ns()),
    }
}

/// Current span-stack depth of the calling thread (recording spans only).
pub fn current_depth() -> usize {
    LOCAL.with(|local| local.depth.get())
}

/// Records the opening of a non-lexical span (Chrome `"B"`). Pair with
/// [`end`] on the same thread; used by `PhaseTimer`, whose phases close at
/// the next `enter` rather than at scope exit.
#[inline]
pub fn begin(name: &'static str) {
    if !recording() {
        return;
    }
    record(name, EventKind::Begin, now_ns());
}

/// Records the closing of a non-lexical span (Chrome `"E"`).
#[inline]
pub fn end(name: &'static str) {
    if !recording() {
        return;
    }
    record(name, EventKind::End, now_ns());
}

/// Records a sampled counter value (Chrome `"C"` track), e.g. the UB/LBk
/// convergence during Alg. 1 filtering.
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if !recording() {
        return;
    }
    record(name, EventKind::Counter { value }, now_ns());
}

/// Flushes the calling thread's buffered events into the global drain
/// list. Worker threads that exit (engine batches, scoped pools) flush
/// automatically; call this from long-lived threads at quiescent points.
pub fn flush_thread() {
    LOCAL.with(|local| {
        let mut events = local.events.borrow_mut();
        if !events.is_empty() {
            if let Ok(mut sink) = drained().lock() {
                sink.append(&mut events);
            }
        }
    });
}

/// Drains every flushed event (joined threads + the calling thread),
/// ordered by timestamp. Buffers of other still-live threads are not
/// included until they flush.
pub fn take_events() -> Vec<TraceEvent> {
    flush_thread();
    let mut events = match drained().lock() {
        Ok(mut sink) => std::mem::take(&mut *sink),
        Err(_) => Vec::new(),
    };
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Renders events as a Chrome `trace_event` JSON document (the
/// "JSON object format": `{"traceEvents": [...]}`).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut arr = JsonWriter::array();
    for ev in events {
        let mut obj = JsonWriter::object();
        obj.field_str("name", ev.name);
        obj.field_str("cat", category_of(ev.name));
        let ph = match ev.kind {
            EventKind::Complete { .. } => "X",
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Counter { .. } => "C",
        };
        obj.field_str("ph", ph);
        // Chrome expects microseconds; keep nanosecond precision as a
        // fractional part.
        obj.field_f64("ts", ev.ts_ns as f64 / 1e3);
        if let EventKind::Complete { dur_ns } = ev.kind {
            obj.field_f64("dur", dur_ns as f64 / 1e3);
        }
        obj.field_u64("pid", 1);
        obj.field_u64("tid", ev.tid);
        let mut args = JsonWriter::object();
        let mut has_args = false;
        if let EventKind::Counter { value } = ev.kind {
            args.field_f64("value", value);
            has_args = true;
        }
        if ev.req != 0 {
            args.field_u64("request_id", ev.req);
            has_args = true;
        }
        if has_args {
            obj.field_raw("args", &args.finish());
        }
        arr.elem_raw(&obj.finish());
    }
    let mut doc = JsonWriter::object();
    doc.field_raw("traceEvents", &arr.finish());
    doc.field_str("displayTimeUnit", "ms");
    doc.finish()
}

/// The span taxonomy's top-level layer (`soi.filtering` → `soi`), used as
/// the Chrome trace category.
fn category_of(name: &'static str) -> &'static str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        // Bare phase names ("filtering") come from PhaseTimer.
        None => "phase",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    static GUARD: Mutex<()> = Mutex::new(());

    // Tracing state is process-global; every test here serializes on this
    // lock and drains before and after to stay independent of its siblings.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_events();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        let _ = take_events();
        out
    }

    // Same serialization, but with the global trace left *off* — the
    // capture tests assert exactly that scoped capture works without it.
    fn without_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let _ = take_events();
        let out = f();
        let _ = take_events();
        out
    }

    #[test]
    fn disabled_records_nothing() {
        with_tracing(|| {
            set_enabled(false);
            drop(span("soi.query"));
            begin("filtering");
            end("filtering");
            counter("soi.UB", 1.0);
            assert!(take_events().is_empty());
        });
    }

    #[test]
    fn span_guard_records_complete_event() {
        with_tracing(|| {
            {
                let _outer = span("engine.batch");
                let _inner = span("soi.query");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 0);
            let events = take_events();
            assert_eq!(events.len(), 2);
            // Drop order: inner closes first but sorting is by start ts, so
            // the outer span comes first.
            assert_eq!(events[0].name, "engine.batch");
            assert_eq!(events[1].name, "soi.query");
            for e in &events {
                assert!(matches!(e.kind, EventKind::Complete { .. }));
            }
            // The outer span encloses the inner one.
            let dur = |e: &TraceEvent| match e.kind {
                EventKind::Complete { dur_ns } => dur_ns,
                _ => 0,
            };
            assert!(events[0].ts_ns <= events[1].ts_ns);
            assert!(events[0].ts_ns + dur(&events[0]) >= events[1].ts_ns + dur(&events[1]));
        });
    }

    #[test]
    fn begin_end_and_counter_events() {
        with_tracing(|| {
            begin("construction");
            counter("soi.UB", 41.5);
            end("construction");
            let events = take_events();
            assert_eq!(
                events.iter().map(|e| &e.kind).collect::<Vec<_>>(),
                vec![
                    &EventKind::Begin,
                    &EventKind::Counter { value: 41.5 },
                    &EventKind::End
                ]
            );
        });
    }

    #[test]
    fn threads_flush_on_exit_and_keep_distinct_tids() {
        with_tracing(|| {
            let main_tid = LOCAL.with(|l| l.tid);
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    std::thread::spawn(|| {
                        let _s = span("engine.query");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let _s = span("engine.batch");
            drop(_s);
            let events = take_events();
            assert_eq!(events.len(), 3);
            let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
            assert_eq!(tids.len(), 3, "each thread gets its own tid");
            assert!(tids.contains(&main_tid));
        });
    }

    #[test]
    fn chrome_json_is_valid_and_typed() {
        with_tracing(|| {
            {
                let _s = span("soi.query");
                counter("soi.LBk", 3.25);
            }
            let events = take_events();
            let doc = chrome_trace_json(&events);
            let parsed = json::parse(&doc).expect("chrome trace parses");
            let items = parsed
                .get("traceEvents")
                .and_then(|v| v.as_arr())
                .expect("traceEvents array");
            assert_eq!(items.len(), 2);
            let phs: Vec<&str> = items
                .iter()
                .map(|e| e.get("ph").and_then(|p| p.as_str()).unwrap())
                .collect();
            assert!(phs.contains(&"X"));
            assert!(phs.contains(&"C"));
            for e in items {
                assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
                assert_eq!(e.get("pid").and_then(|p| p.as_f64()), Some(1.0));
            }
            let x = items
                .iter()
                .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .unwrap();
            assert_eq!(x.get("cat").and_then(|c| c.as_str()), Some("soi"));
            assert!(x.get("dur").and_then(|d| d.as_f64()).is_some());
            let c = items
                .iter()
                .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
                .unwrap();
            assert_eq!(
                c.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(|v| v.as_f64()),
                Some(3.25)
            );
        });
    }

    #[test]
    fn capture_scopes_events_to_the_caller() {
        without_tracing(|| {
            let ((), events) = capture(42, || {
                let _s = span("soi.query");
                counter("soi.UB", 2.0);
            });
            assert_eq!(events.len(), 2);
            assert!(events.iter().all(|e| e.req == 42));
            assert!(events.iter().any(|e| e.name == "soi.query"));
            // Nothing leaked into the global drain while tracing was off.
            assert!(take_events().is_empty());
        });
    }

    #[test]
    fn capture_and_global_trace_both_see_events() {
        with_tracing(|| {
            let ((), events) = capture(7, || {
                let _s = span("engine.query");
            });
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].req, 7);
            let global = take_events();
            assert_eq!(global.len(), 1, "global trace keeps its own copy");
            assert_eq!(global[0].req, 7);
        });
    }

    #[test]
    fn nested_capture_yields_outer_buffer_only() {
        without_tracing(|| {
            let ((), outer) = capture(1, || {
                let ((), inner) = capture(2, || {
                    let _s = span("soi.query");
                });
                assert!(inner.is_empty(), "nested capture defers to the outer");
            });
            assert_eq!(outer.len(), 1);
            // The inner scope still re-stamps the request id for its extent.
            assert_eq!(outer[0].req, 2);
        });
    }

    #[test]
    fn capture_overflow_counts_dropped_events() {
        without_tracing(|| {
            let before = dropped_events();
            let ((), events) = capture(9, || {
                for _ in 0..(MAX_EVENTS_PER_CAPTURE + 5) {
                    counter("soi.UB", 1.0);
                }
            });
            assert_eq!(events.len(), MAX_EVENTS_PER_CAPTURE);
            assert_eq!(dropped_events() - before, 5);
        });
    }

    #[test]
    fn with_request_id_restores_previous_id() {
        without_tracing(|| {
            let ((), events) = capture(1, || {
                with_request_id(5, || {
                    counter("soi.UB", 1.0);
                    with_request_id(6, || counter("soi.UB", 2.0));
                    counter("soi.UB", 3.0);
                });
                counter("soi.UB", 4.0);
            });
            let reqs: Vec<u64> = events.iter().map(|e| e.req).collect();
            assert_eq!(reqs, [5, 6, 5, 1]);
        });
    }

    #[test]
    fn chrome_json_carries_request_id_args() {
        without_tracing(|| {
            let ((), events) = capture(31, || {
                let _s = span("soi.query");
            });
            let doc = chrome_trace_json(&events);
            let parsed = json::parse(&doc).expect("chrome trace parses");
            let items = parsed
                .get("traceEvents")
                .and_then(|v| v.as_arr())
                .expect("traceEvents array");
            assert_eq!(items.len(), 1);
            assert_eq!(
                items[0]
                    .get("args")
                    .and_then(|a| a.get("request_id"))
                    .and_then(|v| v.as_f64()),
                Some(31.0)
            );
        });
    }

    #[test]
    fn empty_trace_still_renders_valid_json() {
        let doc = chrome_trace_json(&[]);
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(|v| v.as_arr())
                .map(<[_]>::len),
            Some(0)
        );
    }
}
