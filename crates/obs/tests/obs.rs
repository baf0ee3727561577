//! Integration tests for the observability substrate: cross-thread span
//! collection, end-to-end trace serde, and the disabled-overhead guard
//! that keeps "near-zero cost when off" an enforced property rather than
//! a comment.

use soi_obs::json;
use soi_obs::metrics::{self, DEFAULT_LATENCY_BUCKETS};
use soi_obs::trace::{self, EventKind};
use std::sync::Mutex;

/// Tracing state is process-global; every test that enables it *or relies
/// on it being off* holds this lock for as long as that matters.
fn trace_state() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with tracing on, draining both sides so tests cannot observe
/// each other's events.
fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
    let _guard = trace_state();
    let _ = trace::take_events();
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    let _ = trace::take_events();
    out
}

#[test]
fn spans_nest_within_and_across_threads() {
    with_tracing(|| {
        // Engine-shaped workload: an outer batch span on the main thread,
        // worker threads each running nested query spans.
        let outer = trace::span("engine.batch");
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let _q = trace::span("engine.query");
                    assert_eq!(trace::current_depth(), 1, "fresh thread starts at depth 0");
                    let _inner = trace::span("soi.query");
                    assert_eq!(trace::current_depth(), 2);
                    std::hint::black_box(i)
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(outer);

        let events = trace::take_events();
        // 1 batch span + 3 × (engine.query + soi.query), all flushed by
        // worker-thread exit without an explicit drain call.
        assert_eq!(events.len(), 7);
        let count = |n: &str| events.iter().filter(|e| e.name == n).count();
        assert_eq!(count("engine.batch"), 1);
        assert_eq!(count("engine.query"), 3);
        assert_eq!(count("soi.query"), 3);

        // Per thread, soi.query nests inside engine.query.
        let dur = |e: &soi_obs::TraceEvent| match e.kind {
            EventKind::Complete { dur_ns } => dur_ns,
            _ => panic!("span events are Complete"),
        };
        for worker in events.iter().filter(|e| e.name == "engine.query") {
            let inner = events
                .iter()
                .find(|e| e.name == "soi.query" && e.tid == worker.tid)
                .expect("matching inner span on the same thread");
            assert!(worker.ts_ns <= inner.ts_ns);
            assert!(worker.ts_ns + dur(worker) >= inner.ts_ns + dur(inner));
        }
        // The batch span encloses every worker span.
        let batch = events.iter().find(|e| e.name == "engine.batch").unwrap();
        for e in &events {
            assert!(batch.ts_ns <= e.ts_ns);
            assert!(batch.ts_ns + dur(batch) >= e.ts_ns + dur(e));
        }
    });
}

#[test]
fn chrome_trace_round_trips_through_the_parser() {
    with_tracing(|| {
        trace::begin("construction");
        trace::counter("soi.UB", 12.5);
        trace::counter("soi.LBk", 3.0);
        trace::end("construction");
        {
            let _s = trace::span("soi.query");
        }
        let events = trace::take_events();
        let doc = trace::chrome_trace_json(&events);
        let parsed = json::parse(&doc).expect("trace JSON parses");
        let items = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents present");
        assert_eq!(items.len(), events.len());
        // Rebuild (name, ph) pairs from the JSON and compare against the
        // in-memory events — the round trip must preserve identity, order,
        // and kind.
        for (ev, obj) in events.iter().zip(items) {
            assert_eq!(obj.get("name").and_then(|v| v.as_str()), Some(ev.name));
            let ph = obj.get("ph").and_then(|v| v.as_str()).unwrap();
            let expect_ph = match ev.kind {
                EventKind::Complete { .. } => "X",
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Counter { .. } => "C",
            };
            assert_eq!(ph, expect_ph);
            let ts_us = obj.get("ts").and_then(|v| v.as_f64()).unwrap();
            assert!((ts_us - ev.ts_ns as f64 / 1e3).abs() < 1e-6);
            if let EventKind::Counter { value } = ev.kind {
                assert_eq!(
                    obj.get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(|v| v.as_f64()),
                    Some(value)
                );
            }
        }
    });
}

#[test]
fn histogram_percentiles_track_a_known_distribution() {
    let h = metrics::register_histogram(
        "obs_it_latency_seconds",
        "integration-test latencies",
        DEFAULT_LATENCY_BUCKETS,
    );
    // 100 observations: 50 fast (~0.8 ms), 45 medium (~8 ms), 5 slow (~80 ms).
    for _ in 0..50 {
        h.observe(0.0008);
    }
    for _ in 0..45 {
        h.observe(0.008);
    }
    for _ in 0..5 {
        h.observe(0.08);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 100);
    let p50 = snap.p50().unwrap();
    let p95 = snap.p95().unwrap();
    let p99 = snap.p99().unwrap();
    assert!(p50 <= 0.001, "p50 {p50} should sit in the fast bucket");
    assert!(p95 <= 0.01, "p95 {p95} should sit in the medium bucket");
    assert!(
        p99 > 0.01 && p99 <= 0.1,
        "p99 {p99} should sit in the slow bucket"
    );
    assert!(p50 <= p95 && p95 <= p99);

    // And the rendered exposition is internally consistent: +Inf bucket
    // equals _count, buckets are cumulative.
    let text = metrics::gather_prefixed("obs_it_latency_seconds");
    assert!(text.contains("# TYPE obs_it_latency_seconds histogram"));
    assert!(text.contains("obs_it_latency_seconds_bucket{le=\"+Inf\"} 100"));
    assert!(text.contains("obs_it_latency_seconds_count 100"));
}

/// Metrics hygiene golden test: one instrument of every kind goes into
/// the registry, then the full export (including everything other tests
/// and `publish_process_metrics` registered) must lint clean — every
/// sample preceded by `# HELP` and `# TYPE`. Catches any new instrument
/// kind or sub-series (like the histogram `_overflow` guard) that ships
/// without documentation.
#[test]
fn full_exposition_lints_clean() {
    metrics::register_counter("obs_lint_events_total", "lint-test counter").inc();
    metrics::register_gauge("obs_lint_depth", "lint-test gauge").set(2.0);
    metrics::register_histogram(
        "obs_lint_latency_seconds",
        "lint-test histogram",
        DEFAULT_LATENCY_BUCKETS,
    )
    .observe(0.003);
    metrics::register_windowed_histogram(
        "obs_lint_latency_window_seconds",
        "lint-test windowed histogram",
        DEFAULT_LATENCY_BUCKETS,
        4,
        10,
    )
    .observe(0.004);
    metrics::register_windowed_counter(
        "obs_lint_events_window",
        "lint-test windowed counter",
        4,
        10,
    )
    .inc();
    metrics::register_info("obs_lint_info", "lint-test info", &[("flavour", "golden")]);
    metrics::publish_process_metrics("lint-test");
    let text = metrics::gather();
    let problems = metrics::lint_exposition(&text);
    assert!(
        problems.is_empty(),
        "metrics export has undocumented series:\n{}",
        problems.join("\n")
    );
    // The lint must have real samples to walk, including the overflow
    // sub-series that historically shipped untyped.
    assert!(text.contains("obs_lint_latency_seconds_overflow"));
    assert!(text.contains("# TYPE obs_lint_latency_seconds_overflow counter"));
}

/// `WindowedHistogram` after a long idle gap (several whole wheel
/// revolutions between observations): old observations must be excluded
/// from the merged snapshot even though their slots were never rotated
/// by intervening traffic.
#[test]
fn windowed_histogram_survives_long_idle_gaps() {
    let h = metrics::register_windowed_histogram(
        "obs_it_idle_gap_window_seconds",
        "idle-gap windowed histogram",
        DEFAULT_LATENCY_BUCKETS,
        4,
        10,
    );
    // Fill every slot of the wheel at ticks 0..4.
    for tick in 0..4u64 {
        h.observe_at(tick, 0.002);
    }
    assert_eq!(h.snapshot_at(3).count, 4, "wheel full before the gap");
    // Idle for three whole revolutions, then a single observation.
    let late = 3 * 4 * 4 + 1; // tick 49: slots still hold ticks 0..4
    h.observe_at(late, 0.08);
    let snap = h.snapshot_at(late);
    assert_eq!(
        snap.count, 1,
        "stale slots from before the gap must be excluded"
    );
    assert!((snap.sum - 0.08).abs() < 1e-12, "sum {} is stale", snap.sum);
    // A snapshot strictly after the window drains back to empty.
    assert_eq!(h.snapshot_at(late + 4).count, 0);
    // And traffic resumes normally: the next revolution refills cleanly.
    for tick in (late + 10)..(late + 14) {
        h.observe_at(tick, 0.001);
    }
    assert_eq!(h.snapshot_at(late + 13).count, 4);
}

/// Disabled instrumentation must be within noise of no instrumentation.
/// This bounds the *absolute* cost of a disabled span pair (create+drop)
/// instead of comparing two timed loops, which is robust to scheduler
/// jitter: one relaxed load plus a branch has no business costing even a
/// fraction of a microsecond.
#[test]
fn disabled_instrumentation_is_near_free() {
    // A test enabling tracing beside this loop would make it record.
    let _guard = trace_state();
    assert!(!trace::enabled(), "test assumes the disabled path");
    const ITERS: u32 = 200_000;
    // Warm up.
    for _ in 0..1000 {
        let s = trace::span("soi.query");
        std::hint::black_box(&s);
    }
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        let s = trace::span("soi.query");
        trace::counter("soi.UB", 1.0);
        std::hint::black_box(&s);
    }
    let per_iter_ns = start.elapsed().as_nanos() as f64 / ITERS as f64;
    // Generous ceiling (real cost is a few ns): catches any regression
    // that puts a lock, a syscall, or a TLS-destructor registration on
    // the disabled path, while staying robust on slow shared CI runners.
    assert!(
        per_iter_ns < 1000.0,
        "disabled span+counter costs {per_iter_ns:.1} ns/iter; the off path must stay trivial"
    );
    assert!(
        trace::take_events().is_empty(),
        "disabled path recorded events"
    );
}
