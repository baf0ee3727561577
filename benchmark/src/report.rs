//! Metric names, units, directions and bounds — the vocabulary every later
//! performance claim in this repository is stated in — and the run's
//! outputs: `name value unit` lines, `results.json`, and the one-line JSON
//! result the driver reads.

use soi_obs::json::JsonWriter;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline value.
    Relative(f64),
    /// An absolute amount, for a metric whose baseline is normally 0.
    Absolute(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub meaning: &'static str,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        meaning,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics `BENCHMARK.json` gates, with their bounds. Each
/// is reported by every workload, is never 0, and held its bound over ten
/// seeds on a host whose speed swings ±20 % for minutes at a time.
pub const END_TO_END: [(MetricDef, f64); 3] = [
    (
        metric(
            "setup_s",
            "s",
            Lower,
            "spawn of `soi serve` to the first 200 on /status, median of 3 boots",
        ),
        0.25,
    ),
    (
        metric(
            "sat_qps",
            "req/s",
            Higher,
            "complete answers per second in the closed-loop saturation phase",
        ),
        0.25,
    ),
    (
        metric(
            "rss_mb",
            "MB",
            Lower,
            "server peak resident set (VmHWM) at shutdown",
        ),
        0.25,
    ),
];

/// End-to-end metrics that `compare` gates but `BENCHMARK.json` does not.
/// The first three could not hold a bound of 25 % over ten seeds on this
/// host (README, "Steadiness") and are listed there as per-layer metrics,
/// as the issue provides; `fail_share` is 0 on a healthy run and
/// `ingest_ack_p50_ms` exists on one workload only, so `BENCHMARK.json`
/// cannot list them at all.
pub const UNGATED_END_TO_END: [(MetricDef, Bound); 5] = [
    (
        metric(
            "p50_ms",
            "ms",
            Lower,
            "rate-phase latency from due time, median (reads only on mixed_ingest)",
        ),
        Bound::Relative(0.25),
    ),
    (
        metric(
            "p95_over_p50",
            "x",
            Lower,
            "rate-phase 95th-percentile latency over the median: the tail, with the host's speed divided out",
        ),
        Bound::Relative(0.25),
    ),
    (
        metric(
            "cpu_ms_per_req",
            "ms",
            Lower,
            "server utime+stime over the rate phase per request answered",
        ),
        Bound::Relative(0.25),
    ),
    (
        metric(
            "fail_share",
            "ratio",
            Lower,
            "(transport errors + non-200 + shed + partial + wrong answers) / attempted, all phases",
        ),
        Bound::Absolute(0.001),
    ),
    (
        metric(
            "ingest_ack_p50_ms",
            "ms",
            Lower,
            "mixed_ingest only: /ingest round trip (journal fsync + seal + swap), median",
        ),
        Bound::Relative(0.25),
    ),
];

/// How many of [`UNGATED_END_TO_END`] every workload reports; these lead
/// the per-layer list of `BENCHMARK.json`.
const MOVED_TO_PER_LAYER: usize = 3;

/// The bound `compare` applies to an end-to-end metric.
pub fn end_to_end_bound(name: &str) -> Option<(Better, Bound)> {
    END_TO_END
        .iter()
        .map(|(def, bound)| (def, Bound::Relative(*bound)))
        .chain(UNGATED_END_TO_END.iter().map(|(def, bound)| (def, *bound)))
        .find(|(def, _)| def.name == name)
        .map(|(def, bound)| (def.better, bound))
}

/// The per-layer metrics of `BENCHMARK.json`, in its order: the three
/// moved end-to-end metrics, then [`LAYERS`]. Every workload's
/// `--trace 1` run reports all of them; none is gated.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    UNGATED_END_TO_END[..MOVED_TO_PER_LAYER]
        .iter()
        .map(|(def, _)| def)
        .chain(LAYERS.iter())
}

/// What the layers themselves report (one row a metric).
#[rustfmt::skip]
pub const LAYERS: [MetricDef; 70] = [
    // data / index / snapshot → setup_s, rss_mb
    metric("datagen.generate_s", "s", Lower, "soi_datagen::generate of the city"),
    metric("data.load_s", "s", Lower, "soi_data::io::load_dataset of the saved city"),
    metric("index.build_bundle_s", "s", Lower, "soi_index::build_bundle with the server's parameters"),
    metric("index.build_poi_s", "s", Lower, "PoiIndex::build_with_threads"),
    metric("index.build_photo_grid_s", "s", Lower, "PhotoGrid::build_with_threads"),
    metric("index.eps_maps_build_ms", "ms", Lower, "EpsilonMaps::build at the server's eps"),
    metric("snapshot.write_s", "s", Lower, "soi_index::write_bundle"),
    metric("snapshot.read_s", "s", Lower, "soi_index::read_bundle"),
    metric("snapshot.bytes", "B", Lower, "size of the bundle snapshot"),
    // index deltas → ingest_ack_p50_ms, read p95_ms on mixed_ingest
    metric("index.delta_parse_us_per_op", "us", Lower, "DeltaOp::parse_line per op"),
    metric("index.delta_seal_ms.n16", "ms", Lower, "DeltaIndex::seal at 16 pending ops"),
    metric("index.delta_seal_ms.n256", "ms", Lower, "DeltaIndex::seal at 256 pending ops"),
    metric("index.delta_seal_ms.n496", "ms", Lower, "DeltaIndex::seal at 496 pending ops"),
    metric("index.fold_ms", "ms", Lower, "fold_dataset + build_bundle for 512 ops"),
    metric("index.view_overhead_pct", "%", Lower, "Alg. 1 p50 through a 256-op base+delta view over the plain base"),
    // core.soi → p50_ms, p95_ms, cpu_ms_per_req, sat_qps on /soi workloads
    metric("core.soi.exec_p50_ms", "ms", Lower, "run_soi_with_scratch, median"),
    metric("core.soi.exec_p95_ms", "ms", Lower, "run_soi_with_scratch, 95th percentile"),
    metric("core.soi.construction_p50_ms", "ms", Lower, "Alg. 1 source-list construction phase, median"),
    metric("core.soi.filtering_p50_ms", "ms", Lower, "Alg. 1 filtering phase, median"),
    metric("core.soi.refinement_p50_ms", "ms", Lower, "Alg. 1 refinement phase, median"),
    metric("core.soi.accesses", "count", Lower, "source-list accesses per query"),
    metric("core.soi.cells_popped", "count", Lower, "SL1 cells popped per query"),
    metric("core.soi.segments_popped", "count", Lower, "SL2/SL3 segments popped per query"),
    metric("core.soi.cell_visits", "count", Lower, "effective UpdateInterest calls per query"),
    metric("core.soi.segments_seen", "count", Lower, "segments that entered the partial state per query"),
    metric("core.soi.bounded_out", "count", Higher, "segments dismissed by the mass bound per query"),
    metric("core.soi.finalized", "count", Lower, "segments whose exact interest was computed per query"),
    metric("core.soi.seen_share", "ratio", Lower, "segments seen / all segments"),
    metric("core.soi.allocs", "count", Lower, "heap allocations per query"),
    metric("core.soi.speedup_vs_bl", "x", Higher, "run_baseline time / Alg. 1 time on 20 queries"),
    // core.describe → the same four on describe_hot
    metric("core.describe.context_p50_ms", "ms", Lower, "ContextBuilder::build, median"),
    metric("core.describe.exec_p50_ms", "ms", Lower, "st_rel_div_with_scratch, median"),
    metric("core.describe.exec_p95_ms", "ms", Lower, "st_rel_div_with_scratch, 95th percentile"),
    metric("core.describe.members", "count", Lower, "photos within eps of the street (Rs) per request"),
    metric("core.describe.photos_evaluated", "count", Lower, "exact mmr evaluations per request"),
    metric("core.describe.cells_pruned", "count", Higher, "cells pruned by the bounds per request"),
    metric("core.describe.cells_refined", "count", Lower, "cells whose photos were refined per request"),
    metric("core.describe.eval_share", "ratio", Lower, "mmr evaluations / (Rs size x k)"),
    metric("core.describe.speedup_vs_greedy", "x", Higher, "greedy_select time / Alg. 2 time on 20 requests"),
    // engine → sat_qps
    metric("engine.one_p50_ms", "ms", Lower, "QueryEngine batch of one /soi query, median"),
    metric("engine.batch_qps.w1", "1/s", Higher, "one engine batch of the list, 1 worker"),
    metric("engine.batch_qps.wN", "1/s", Higher, "one engine batch of the list, nproc workers"),
    metric("engine.scaling", "x", Higher, "batch_qps.wN / batch_qps.w1"),
    // serve, obs → p50_ms everywhere, most on describe_hot
    metric("serve.http.read_us", "us", Lower, "http::read_request over loopback, median"),
    metric("serve.http.write_us", "us", Lower, "http::write_response of 2 KB over loopback, median"),
    metric("serve.queue.handoff_us", "us", Lower, "try_push -> pop_batch -> put -> wait across two threads, median"),
    metric("obs.json.parse_us", "us", Lower, "soi_obs::json::parse of a request body, median"),
    metric("client.connect_us", "us", Lower, "loopback TCP connect, median"),
    // observed on the served run
    metric("serve.ring.queue_p50_ms", "ms", Lower, "admission-queue wait of rate-phase requests (ring)"),
    metric("serve.ring.exec_p50_ms", "ms", Lower, "engine time of rate-phase requests (ring)"),
    metric("serve.ring.total_p50_ms", "ms", Lower, "parse-complete to response-written of rate-phase requests (ring)"),
    metric("serve.ring.sat_queue_p50_ms", "ms", Lower, "admission-queue wait under saturation (ring)"),
    metric("serve.edge_p50_ms", "ms", Lower, "served p50 - ring total p50: connect, read, parse, write, client"),
    metric("serve.sheds", "count", Lower, "requests shed by admission control"),
    metric("serve.partials", "count", Lower, "answers cut short by the deadline"),
    metric("serve.folds", "count", Lower, "epoch folds during the run"),
    metric("serve.accesses_per_query", "count", Lower, "soi_source_accesses_total / soi_queries_total over the rate phase"),
    metric("index.eps_cache_lookups", "count", Higher, "eps-map cache hits + misses over the rate phase"),
    metric("client.late_p95_ms", "ms", Lower, "how late the generator sent, 95th percentile"),
    metric("client.p95_ms", "ms", Lower, "rate-phase latency from due time, 95th percentile"),
    metric("client.p99_ms", "ms", Lower, "rate-phase latency, 99th percentile or the highest the sample supports"),
    metric("client.max_ms", "ms", Lower, "slowest rate-phase request"),
    // traced replay
    metric("trace.self_p50_ms.request", "ms", Lower, "replay: request span self time"),
    metric("trace.self_p50_ms.obs.json.parse", "ms", Lower, "replay: body parse self time"),
    metric("trace.self_p50_ms.serve.parse_query", "ms", Lower, "replay: query validation self time"),
    metric("trace.self_p50_ms.engine.dispatch", "ms", Lower, "replay: engine call minus the algorithm inside it"),
    metric("trace.self_p50_ms.core", "ms", Lower, "replay: Alg. 1, or street context + Alg. 2"),
    metric("trace.self_p50_ms.serve.http.write", "ms", Lower, "replay: response write self time"),
    metric("trace.coverage_pct", "%", Higher, "replay request p50 / served p50_ms"),
    metric("trace.overhead_pct", "%", Lower, "replay wall-clock with the recorder on over off"),
];

/// `benchmark metrics`: every metric with its unit, direction, bound and
/// meaning, as the Markdown table `README.md` carries.
pub fn print_registry() {
    println!("| metric | unit | better | bound | meaning |");
    println!("|---|---|---|---|---|");
    let row = |def: &MetricDef, bound: String| {
        println!(
            "| `{}` | {} | {} | {bound} | {} |",
            def.name,
            def.unit,
            def.better.as_str(),
            def.meaning
        );
    };
    for (def, bound) in &END_TO_END {
        row(def, format!("{:.0} %", bound * 100.0));
    }
    for (def, bound) in &UNGATED_END_TO_END {
        row(
            def,
            match bound {
                Bound::Relative(share) => format!("{:.0} % (compare only)", share * 100.0),
                Bound::Absolute(amount) => format!("+{amount} absolute (compare only)"),
            },
        );
    }
    for def in &LAYERS {
        row(def, "-".to_string());
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Value {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Looks `name` up among all defined metrics for its unit; metrics the
/// registry does not name (workload-specific diagnostics) carry their own.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(def, _)| def)
        .chain(UNGATED_END_TO_END.iter().map(|(def, _)| def))
        .chain(LAYERS.iter())
        .find(|def| def.name == name)
        .map(|def| def.unit)
}

pub fn print_values(workload: &str, values: &[Value]) {
    for v in values {
        println!("{workload} {} {} {}", v.name, fmt_f64(v.value), v.unit);
    }
}

/// Every digit as measured (`{:?}` is the shortest text that round-trips).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    soi_obs::json::write_f64(&mut out, v);
    out
}

pub fn values_json(values: &[Value]) -> String {
    let mut obj = JsonWriter::object();
    for v in values {
        let mut entry = JsonWriter::object();
        entry.field_f64("value", v.value);
        entry.field_str("unit", &v.unit);
        obj.field_raw(&v.name, &entry.finish());
    }
    obj.finish()
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding exactly the metrics named in `defs`.
pub fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[&MetricDef],
    values: &[Value],
) -> Result<String, String> {
    let mut selected = Vec::with_capacity(defs.len());
    for def in defs {
        let value = values
            .iter()
            .find(|v| v.name == def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.value.is_finite() {
            return Err(format!("metric {} is not finite", def.name));
        }
        selected.push(Value::new(def.name, value.value, def.unit));
    }
    let mut obj = JsonWriter::object();
    obj.field_bool("correct", correct);
    obj.field_u64("attempted", attempted.max(1));
    obj.field_u64("failed", failed);
    obj.field_raw("metrics", &values_json(&selected));
    Ok(obj.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use soi_obs::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|(d, _)| d)
            .chain(UNGATED_END_TO_END.iter().map(|(d, _)| d))
            .chain(LAYERS.iter());
        for def in all {
            assert!(seen.insert(def.name), "{} defined twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (def, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(d, _)| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    /// `BENCHMARK.json` at the repository root is written by hand; this
    /// keeps it equal to the registry the binary reports from.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = soi_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("missing {key}"))
                .to_string()
        };

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (listed, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text_of(listed, "name"), workload.name());
            assert_eq!(text_of(listed, "why"), workload.why());
        }

        let end_to_end = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, (def, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(listed, "name"), def.name);
            assert_eq!(text_of(listed, "unit"), def.unit);
            assert_eq!(text_of(listed, "better"), def.better.as_str());
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(bound));
        }

        let listed_layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(listed_layers.len(), per_layer().count());
        for (listed, def) in listed_layers.iter().zip(per_layer()) {
            assert_eq!(text_of(listed, "name"), def.name);
            assert_eq!(text_of(listed, "unit"), def.unit);
            assert_eq!(text_of(listed, "better"), def.better.as_str());
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let values = vec![
            Value::new("sat_qps", 160.25, "req/s"),
            Value::new("setup_s", 0.4375, "s"),
            Value::new("extra", 1.0, "count"),
        ];
        let defs: Vec<&MetricDef> = END_TO_END
            .iter()
            .map(|(d, _)| d)
            .filter(|d| d.name == "setup_s" || d.name == "sat_qps")
            .collect();
        let line = driver_line(true, 1200, 0, &defs, &values).expect("complete");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1200,"failed":0,"metrics":{"setup_s":{"value":0.4375,"unit":"s"},"sat_qps":{"value":160.25,"unit":"req/s"}}}"#
        );
        let missing: Vec<&MetricDef> = END_TO_END.iter().map(|(d, _)| d).collect();
        assert!(driver_line(true, 1, 0, &missing, &values).is_err());
    }
}
