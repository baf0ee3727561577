//! Process-wide metrics: counters, gauges, and latency histograms.
//!
//! Metrics are registered once by name ([`register_counter`],
//! [`register_gauge`], [`register_histogram`]) and live for the process
//! (`Box::leak`), so instruments are plain `&'static` handles that hot
//! paths can cache in `OnceLock`s and bump with a single atomic op — no
//! locking and no hashing on the record path. Registration is idempotent:
//! re-registering a name returns the existing instrument, which keeps
//! per-crate `register_metrics()` hooks and parallel tests safe.
//!
//! [`gather`] renders the whole registry in the Prometheus text
//! exposition format (the `soi metrics` CLI command); [`gather_prefixed`]
//! restricts to one name prefix, which tests use to stay independent of
//! whatever else the process has recorded.
//!
//! The instruments live in `metrics/instruments.rs` (counters, gauges,
//! histograms) and `metrics/windowed.rs` (the rolling-window wheel); this
//! file holds the registry and the exposition.

mod instruments;
mod windowed;

pub use instruments::{
    Counter, Gauge, Histogram, HistogramSnapshot, ALLOC_BYTES_BUCKETS, ALLOC_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
};
pub use windowed::{WindowedCounter, WindowedHistogram};

use crate::json::write_f64;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The instant the process metrics clock was first touched. Callers that
/// care about accurate uptime ([`publish_process_metrics`]) should call
/// this (or that) once early at startup to pin the epoch.
pub fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A constant "info" metric: a gauge fixed at `1` whose payload is its
/// label set (the `soi_build_info{version="…"} 1` idiom).
#[derive(Debug)]
pub struct Info {
    labels: Vec<(&'static str, String)>,
}

enum Instrument {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    WindowedHistogram(&'static WindowedHistogram),
    WindowedCounter(&'static WindowedCounter),
    Info(&'static Info),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    instrument: Instrument,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn with_registry<R>(f: impl FnOnce(&mut Vec<Entry>) -> R) -> R {
    // A poisoned registry only means some other panicking thread held the
    // lock mid-push; the Vec itself is still usable.
    let mut entries = registry().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut entries)
}

/// The instrument of kind `T` registered as `name`, or `make`'s, registered
/// now. The first registration wins; later calls return the existing
/// instrument and ignore `help`.
fn register<T>(
    name: &'static str,
    help: &'static str,
    find: impl Fn(&Instrument) -> Option<&'static T>,
    wrap: fn(&'static T) -> Instrument,
    make: impl FnOnce() -> T,
) -> &'static T {
    with_registry(|entries| {
        let existing = entries.iter().filter(|e| e.name == name);
        if let Some(found) = existing.filter_map(|e| find(&e.instrument)).next() {
            return found;
        }
        let made: &'static T = Box::leak(Box::new(make()));
        entries.push(Entry {
            name,
            help,
            instrument: wrap(made),
        });
        made
    })
}

/// Registers (or fetches) the counter `name`. The first registration wins;
/// later calls return the existing instrument and ignore `help`.
pub fn register_counter(name: &'static str, help: &'static str) -> &'static Counter {
    let find = |i: &Instrument| match *i {
        Instrument::Counter(c) => Some(c),
        _ => None,
    };
    register(name, help, find, Instrument::Counter, Counter::new)
}

/// Registers (or fetches) the gauge `name`.
pub fn register_gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    let find = |i: &Instrument| match *i {
        Instrument::Gauge(g) => Some(g),
        _ => None,
    };
    register(name, help, find, Instrument::Gauge, Gauge::new)
}

/// Registers (or fetches) the histogram `name` with the given bucket
/// upper bounds (strictly increasing; a `+Inf` bucket is implicit).
pub fn register_histogram(
    name: &'static str,
    help: &'static str,
    buckets: &[f64],
) -> &'static Histogram {
    let find = |i: &Instrument| match *i {
        Instrument::Histogram(h) => Some(h),
        _ => None,
    };
    register(name, help, find, Instrument::Histogram, || {
        Histogram::new(buckets)
    })
}

/// Registers (or fetches) the rolling-window histogram `name`: a wheel of
/// `slots` sub-histograms of `slot_secs` seconds each.
pub fn register_windowed_histogram(
    name: &'static str,
    help: &'static str,
    buckets: &[f64],
    slots: usize,
    slot_secs: u64,
) -> &'static WindowedHistogram {
    let find = |i: &Instrument| match *i {
        Instrument::WindowedHistogram(h) => Some(h),
        _ => None,
    };
    register(name, help, find, Instrument::WindowedHistogram, || {
        WindowedHistogram::new(buckets, slots, slot_secs)
    })
}

/// Registers (or fetches) the rolling-window counter `name` (rendered as a
/// gauge: the windowed sum moves both ways).
pub fn register_windowed_counter(
    name: &'static str,
    help: &'static str,
    slots: usize,
    slot_secs: u64,
) -> &'static WindowedCounter {
    let find = |i: &Instrument| match *i {
        Instrument::WindowedCounter(c) => Some(c),
        _ => None,
    };
    register(name, help, find, Instrument::WindowedCounter, || {
        WindowedCounter::new(slots, slot_secs)
    })
}

/// Registers (or fetches) the info metric `name`: a constant `1` gauge
/// whose payload is its label set. The first registration's labels win.
pub fn register_info(name: &'static str, help: &'static str, labels: &[(&'static str, &str)]) {
    with_registry(|entries| {
        if entries.iter().any(|e| e.name == name) {
            return;
        }
        let info: &'static Info = Box::leak(Box::new(Info {
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        }));
        entries.push(Entry {
            name,
            help,
            instrument: Instrument::Info(info),
        });
    });
}

/// Publishes (and refreshes) process-level metrics: uptime since
/// [`process_epoch`], a `soi_build_info{version=…}` info gauge, and the
/// cumulative trace-drop counter mirrored from
/// [`crate::trace::dropped_events`]. Call once early at startup to pin the
/// uptime epoch, then again right before each [`gather`] so the snapshot
/// values are current.
pub fn publish_process_metrics(version: &str) {
    let uptime = register_gauge(
        "soi_process_uptime_seconds",
        "Seconds since the process metrics epoch was pinned.",
    );
    uptime.set(process_epoch().elapsed().as_secs_f64());
    register_info(
        "soi_build_info",
        "Build information (constant 1; payload is the labels).",
        &[("version", version)],
    );
    let dropped = register_counter(
        "soi_trace_dropped_events_total",
        "Trace events dropped by backpressure caps (global drain or per-request capture).",
    );
    let seen = crate::trace::dropped_events();
    dropped.add(seen.saturating_sub(dropped.get()));
}

/// `v` as the exposition writes numbers.
fn fmt_f64(v: f64) -> String {
    let mut s = String::new();
    write_f64(&mut s, v);
    s
}

fn render_entry(out: &mut String, e: &Entry) {
    let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
    match e.instrument {
        Instrument::Counter(c) => {
            let _ = writeln!(out, "# TYPE {} counter", e.name);
            let _ = writeln!(out, "{} {}", e.name, c.get());
        }
        Instrument::Gauge(g) => {
            let _ = writeln!(out, "# TYPE {} gauge", e.name);
            let _ = writeln!(out, "{} {}", e.name, fmt_f64(g.get()));
        }
        Instrument::Histogram(h) => {
            let _ = writeln!(out, "# TYPE {} histogram", e.name);
            render_histogram_snapshot(out, e.name, &h.snapshot());
        }
        Instrument::WindowedHistogram(h) => {
            // Windowed contents shrink as slots expire, so strictly this
            // is a gauge histogram; the classic text format has no such
            // type, and `histogram` keeps scrapers working.
            let _ = writeln!(out, "# TYPE {} histogram", e.name);
            render_histogram_snapshot(out, e.name, &h.snapshot());
        }
        Instrument::WindowedCounter(c) => {
            let _ = writeln!(out, "# TYPE {} gauge", e.name);
            let _ = writeln!(out, "{} {}", e.name, c.sum());
        }
        Instrument::Info(info) => {
            let _ = writeln!(out, "# TYPE {} gauge", e.name);
            let mut labels = String::new();
            for (i, (k, v)) in info.labels.iter().enumerate() {
                if i > 0 {
                    labels.push(',');
                }
                let _ = write!(
                    labels,
                    "{k}=\"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                );
            }
            let _ = writeln!(out, "{}{{{labels}}} 1", e.name);
        }
    }
}

fn render_histogram_snapshot(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, &b) in snap.bounds.iter().enumerate() {
        cumulative += snap.counts[i];
        let _ = writeln!(
            out,
            "{}_bucket{{le=\"{}\"}} {}",
            name,
            fmt_f64(b),
            cumulative
        );
    }
    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", name, snap.count);
    let _ = writeln!(out, "{name}_sum {}", fmt_f64(snap.sum));
    let _ = writeln!(out, "{name}_count {}", snap.count);
    // Saturation guard: how many observations exceeded the top finite
    // bucket (quantiles are clamped for these). `_overflow` is not a
    // standard histogram sub-series, so it carries its own HELP/TYPE.
    let _ = writeln!(
        out,
        "# HELP {name}_overflow Observations above the top finite bucket of {name}"
    );
    let _ = writeln!(out, "# TYPE {name}_overflow counter");
    let _ = writeln!(out, "{name}_overflow {}", snap.overflow());
}

/// Renders every registered metric in the Prometheus text exposition
/// format, sorted by name.
pub fn gather() -> String {
    gather_prefixed("")
}

/// Renders registered metrics whose name starts with `prefix` (tests use
/// a unique prefix to stay independent of the shared registry).
pub fn gather_prefixed(prefix: &str) -> String {
    with_registry(|entries| {
        let mut selected: Vec<&Entry> = entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .collect();
        selected.sort_by_key(|e| e.name);
        let mut out = String::new();
        for e in selected {
            render_entry(&mut out, e);
        }
        out
    })
}

/// Lints a Prometheus text exposition: every sample must be preceded by
/// `# HELP` and `# TYPE` lines for its metric (histogram `_bucket` /
/// `_sum` / `_count` sub-series inherit their base series' metadata).
/// Returns one message per violation; empty means the export is clean.
///
/// Used by the metrics-hygiene golden test and by the serve e2e suite
/// against a live `/metrics` scrape, so a new series registered without
/// documentation fails CI instead of shipping untyped.
pub fn lint_exposition(text: &str) -> Vec<String> {
    use std::collections::HashSet;
    let mut helped: HashSet<&str> = HashSet::new();
    let mut typed: HashSet<&str> = HashSet::new();
    let mut problems = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if rest.split_whitespace().nth(1).is_none() {
                problems.push(format!("line {lineno}: HELP for {name} has no text"));
            }
            helped.insert(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                problems.push(format!("line {lineno}: {name} has invalid type {kind:?}"));
            }
            typed.insert(name);
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // A sample: `name{labels} value` or `name value`.
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(line.len());
        let sample = &line[..name_end];
        if sample.is_empty() {
            problems.push(format!("line {lineno}: unparsable sample line {line:?}"));
            continue;
        }
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let stripped = sample.strip_suffix(suffix)?;
                // Only inherit when the stripped name is itself a
                // documented series (e.g. a histogram base).
                (helped.contains(stripped) || typed.contains(stripped)).then_some(stripped)
            })
            .unwrap_or(sample);
        if !helped.contains(base) {
            problems.push(format!("line {lineno}: {sample} has no # HELP"));
        }
        if !typed.contains(base) {
            problems.push(format!("line {lineno}: {sample} has no # TYPE"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_registration_is_idempotent() {
        let a = register_counter("obs_test_counter_total", "test counter");
        let b = register_counter("obs_test_counter_total", "other help");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn lint_accepts_documented_series_and_histogram_suffixes() {
        let clean = "# HELP soi_x_total things\n# TYPE soi_x_total counter\nsoi_x_total 3\n\
                     # HELP soi_lat_seconds latency\n# TYPE soi_lat_seconds histogram\n\
                     soi_lat_seconds_bucket{le=\"+Inf\"} 1\nsoi_lat_seconds_sum 0.5\n\
                     soi_lat_seconds_count 1\n";
        assert!(lint_exposition(clean).is_empty());
    }

    #[test]
    fn lint_flags_untyped_undocumented_and_bogus_series() {
        let problems = lint_exposition("soi_mystery 1\n");
        assert_eq!(problems.len(), 2, "{problems:?}");
        let problems = lint_exposition("# TYPE soi_y gauge\nsoi_y 1\n");
        assert_eq!(problems.len(), 1, "missing HELP: {problems:?}");
        let problems = lint_exposition("# HELP soi_z z\n# TYPE soi_z flavour\nsoi_z 1\n");
        assert!(
            problems.iter().any(|p| p.contains("invalid type")),
            "{problems:?}"
        );
        // `_sum` does not inherit from an undocumented base.
        let problems = lint_exposition("soi_w_sum 1\n");
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = register_gauge("obs_test_gauge", "test gauge");
        g.set(4.0);
        g.add(-1.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 5.0, 5.0, 7.0, 100.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.counts, vec![1, 2, 3, 3, 1]);
        assert!((snap.sum - 129.5).abs() < 1e-9);
        // Rank 5 of 10 falls in the (2,4] bucket.
        let p50 = snap.p50().unwrap();
        assert!(p50 > 2.0 && p50 <= 4.0, "p50 = {p50}");
        // Rank 9.5 of 10 falls in the (4,8] bucket.
        let p95 = snap.p95().unwrap();
        assert!(p95 > 4.0 && p95 <= 8.0, "p95 = {p95}");
        // Rank 9.9 lands in the +Inf bucket → clamped to the last bound.
        assert_eq!(snap.p99(), Some(8.0));
        assert_eq!(Histogram::new(&[1.0]).snapshot().p50(), None);
    }

    #[test]
    fn overflow_counts_saturated_observations() {
        let h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.overflow(), 0);
        h.observe(0.5);
        h.observe(10.0); // le="10" exactly: not overflow
        assert_eq!(h.overflow(), 0);
        h.observe(11.0);
        h.observe(1e9);
        assert_eq!(h.overflow(), 2);
        let snap = h.snapshot();
        assert_eq!(snap.overflow(), 2);
        // The tail quantile is clamped to the top finite bound — the
        // overflow count is what flags that the estimate saturated.
        assert_eq!(snap.quantile(1.0), Some(10.0));
        // And the saturation count reaches the text exposition.
        let hr = register_histogram("obs_sat_overflow_test", "saturation", &[1.0]);
        hr.observe(5.0);
        let text = gather_prefixed("obs_sat_overflow_test");
        assert!(
            text.contains("obs_sat_overflow_test_overflow 1"),
            "overflow line missing:\n{text}"
        );
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let h = Histogram::new(&[10.0, 20.0]);
        for _ in 0..10 {
            h.observe(15.0);
        }
        let snap = h.snapshot();
        // All mass in (10,20]: q=0.5 → 10 + 10*0.5 = 15.
        assert!((snap.quantile(0.5).unwrap() - 15.0).abs() < 1e-9);
        assert!((snap.quantile(1.0).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_text_format() {
        let c = register_counter("obs_fmt_requests_total", "requests seen");
        c.add(7);
        let h = register_histogram("obs_fmt_latency_seconds", "latency", &[0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.05);
        h.observe(3.0);
        let text = gather_prefixed("obs_fmt_");
        let expected = "\
# HELP obs_fmt_latency_seconds latency
# TYPE obs_fmt_latency_seconds histogram
obs_fmt_latency_seconds_bucket{le=\"0.001\"} 1
obs_fmt_latency_seconds_bucket{le=\"0.01\"} 1
obs_fmt_latency_seconds_bucket{le=\"0.1\"} 2
obs_fmt_latency_seconds_bucket{le=\"+Inf\"} 3
obs_fmt_latency_seconds_sum 3.0505
obs_fmt_latency_seconds_count 3
# HELP obs_fmt_latency_seconds_overflow Observations above the top finite bucket of obs_fmt_latency_seconds
# TYPE obs_fmt_latency_seconds_overflow counter
obs_fmt_latency_seconds_overflow 1
# HELP obs_fmt_requests_total requests seen
# TYPE obs_fmt_requests_total counter
obs_fmt_requests_total 7
";
        assert_eq!(text, expected);
    }

    #[test]
    fn gather_prefixed_filters() {
        register_counter("obs_filter_a_total", "a");
        register_counter("obs_filter_b_total", "b");
        let text = gather_prefixed("obs_filter_a");
        assert!(text.contains("obs_filter_a_total"));
        assert!(!text.contains("obs_filter_b_total"));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let snap = Histogram::new(&[1.0, 2.0]).snapshot();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(snap.quantile(q), None);
        }
        assert_eq!(snap.overflow(), 0);
    }

    #[test]
    fn quantile_of_single_observation_interpolates_its_bucket() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.5);
        let snap = h.snapshot();
        // The single observation lives in (1,2]: every quantile must land
        // inside that bucket, whatever the interpolated fraction.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = snap.quantile(q).unwrap();
            assert!((1.0..=2.0).contains(&v), "q={q} -> {v}");
        }
        assert_eq!(snap.quantile(1.0), Some(2.0));
    }

    #[test]
    fn quantile_with_all_mass_in_overflow_clamps_to_top_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(50.0);
        h.observe(60.0);
        let snap = h.snapshot();
        assert_eq!(snap.overflow(), 2);
        // Everything saturated: the honest clamp is the top finite bound,
        // for every quantile.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snap.quantile(q), Some(2.0), "q={q}");
        }
    }

    #[test]
    fn windowed_histogram_merges_live_slots() {
        let w = WindowedHistogram::new(&[1.0, 10.0], 4, 15);
        assert_eq!(w.window_secs(), 60);
        w.observe_at(100, 0.5);
        w.observe_at(101, 5.0);
        w.observe_at(103, 20.0);
        let snap = w.snapshot_at(103);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.counts, vec![1, 1, 1]);
        assert!((snap.sum - 25.5).abs() < 1e-9);
        assert_eq!(snap.overflow(), 1);
        // Quantile machinery is shared with the cumulative histogram.
        assert!(snap.p50().is_some());
    }

    #[test]
    fn windowed_histogram_expires_stale_slots() {
        let w = WindowedHistogram::new(&[1.0], 4, 15);
        w.observe_at(100, 0.5);
        w.observe_at(100, 0.5);
        // Still visible while tick 100 is inside (now-4, now].
        assert_eq!(w.snapshot_at(103).count, 2);
        // One tick later the slot has aged out, even though its wheel
        // position has not yet been reclaimed by a new observation.
        assert_eq!(w.snapshot_at(104).count, 0);
    }

    #[test]
    fn windowed_histogram_rotation_zeroes_reused_slots() {
        let w = WindowedHistogram::new(&[1.0], 2, 1);
        w.observe_at(10, 0.5);
        w.observe_at(11, 0.5);
        assert_eq!(w.snapshot_at(11).count, 2);
        // Tick 12 reuses tick 10's wheel position; the old contents must
        // not bleed into the fresh slot.
        w.observe_at(12, 2.0);
        let snap = w.snapshot_at(12);
        assert_eq!(snap.count, 2, "tick 11 + tick 12 only");
        assert_eq!(snap.counts, vec![1, 1]);
    }

    #[test]
    fn windowed_counter_rolls_off() {
        let c = WindowedCounter::new(3, 15);
        assert_eq!(c.window_secs(), 45);
        c.add_at(50, 2);
        c.add_at(51, 1);
        assert_eq!(c.sum_at(51), 3);
        assert_eq!(c.sum_at(52), 3);
        // Tick 50 ages out of the 3-slot window…
        assert_eq!(c.sum_at(53), 1);
        // …and its position is zeroed on reuse.
        c.add_at(53, 5);
        assert_eq!(c.sum_at(53), 6);
        assert_eq!(c.sum_at(60), 0);
    }

    #[test]
    fn windowed_and_info_render_in_text_format() {
        let w = register_windowed_histogram("obs_win_latency_seconds", "windowed", &[0.1], 8, 15);
        w.observe_at(0, 0.05);
        let c = register_windowed_counter("obs_win_sheds", "windowed sheds", 8, 15);
        c.add_at(0, 4);
        register_info(
            "obs_win_info",
            "info",
            &[("version", "1.2.3"), ("q", "a\"b")],
        );
        let text = gather_prefixed("obs_win_");
        assert!(text.contains("# TYPE obs_win_latency_seconds histogram"));
        assert!(text.contains("obs_win_latency_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("obs_win_latency_seconds_count 1"));
        assert!(text.contains("# TYPE obs_win_sheds gauge"));
        assert!(text.contains("obs_win_sheds 4"));
        assert!(
            text.contains("obs_win_info{version=\"1.2.3\",q=\"a\\\"b\"} 1"),
            "info line missing or mis-escaped:\n{text}"
        );
    }

    #[test]
    fn process_metrics_publish_and_refresh() {
        publish_process_metrics("0.0-test");
        let text = gather_prefixed("soi_process_uptime_seconds");
        assert!(text.contains("# TYPE soi_process_uptime_seconds gauge"));
        let info = gather_prefixed("soi_build_info");
        assert!(
            info.contains("soi_build_info{version=\"0.0-test\"} 1"),
            "{info}"
        );
        let dropped = gather_prefixed("soi_trace_dropped_events_total");
        assert!(dropped.contains("# TYPE soi_trace_dropped_events_total counter"));
        // Re-publishing is idempotent and keeps the first build label.
        publish_process_metrics("9.9-other");
        let info = gather_prefixed("soi_build_info");
        assert!(info.contains("version=\"0.0-test\""));
        assert!(!info.contains("9.9-other"));
    }

    #[test]
    fn default_latency_buckets_are_increasing() {
        assert!(DEFAULT_LATENCY_BUCKETS.windows(2).all(|w| w[0] < w[1]));
        assert!(ALLOC_COUNT_BUCKETS.windows(2).all(|w| w[0] < w[1]));
        assert!(ALLOC_BYTES_BUCKETS.windows(2).all(|w| w[0] < w[1]));
    }
}
