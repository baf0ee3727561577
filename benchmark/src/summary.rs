//! From what a served run observed to the numbers it reports.

use crate::loadgen::Sample;
use crate::report::Value;
use crate::scrape::RingRow;
use crate::served::{self, Served};
use crate::stats::{self, Samples};
use crate::verify;
use crate::workload::{Endpoint, Request};

fn is_complete(sample: &&Sample) -> bool {
    verify::incomplete(sample.status, &sample.body).is_none()
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    Samples::new(values.collect()).median()
}

/// The end-to-end metrics of one served run, and the sample counts behind
/// them. Latency metrics are medians over the rate phase's slices,
/// `sat_qps` the median over the saturation phase's completion blocks.
pub fn end_to_end(served: &Served, check: &verify::Check) -> (Vec<Value>, Vec<(String, u64)>) {
    let slices: Vec<Samples> = served
        .rate
        .iter()
        .map(|slice| {
            Samples::new(
                slice
                    .iter()
                    .filter(is_complete)
                    .map(|s| s.latency_ms)
                    .collect(),
            )
        })
        .collect();
    // The tail percentile the whole phase supports, read in each slice.
    let rate_samples: usize = slices.iter().map(Samples::len).sum();
    let p95_used = stats::supported_percentile(rate_samples, 95.0);
    // Saturation throughput in blocks of completions after the ramp: the
    // rate of each block is continuous, where a count per window is not.
    let mut done: Vec<f64> = served
        .sat
        .iter()
        .filter(is_complete)
        .map(|s| s.done_ms / 1e3)
        .filter(|&t| t >= served::SAT_RAMP.as_secs_f64().min(served.sat_wall_s / 2.0))
        .collect();
    done.sort_by(f64::total_cmp);
    let block_rates = stats::block_rates(&done, served::SAT_BLOCK);
    let mut values = vec![
        Value::new("setup_s", median(served.boots_s.iter().copied()), "s"),
        Value::new("p50_ms", median(slices.iter().map(Samples::median)), "ms"),
        Value::new(
            "p95_over_p50",
            median(
                slices
                    .iter()
                    .map(|s| s.at(p95_used) / s.median().max(f64::MIN_POSITIVE)),
            ),
            "x",
        ),
        Value::new("sat_qps", median(block_rates.iter().copied()), "req/s"),
        Value::new(
            "cpu_ms_per_req",
            served.cpu_rate_s * 1e3 / rate_samples.max(1) as f64,
            "ms",
        ),
        Value::new("rss_mb", served.rss_mb, "MB"),
        Value::new(
            "fail_share",
            check.failed() as f64 / check.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let mut counts = vec![
        ("setup_boots".to_string(), served.boots_s.len() as u64),
        ("rate_slices".to_string(), slices.len() as u64),
        ("rate_samples".to_string(), rate_samples as u64),
        (
            "p95_percentile_used_x10".to_string(),
            (p95_used * 10.0) as u64,
        ),
        ("sat_blocks".to_string(), block_rates.len() as u64),
        ("sat_samples".to_string(), done.len() as u64),
    ];
    if !served.ingest.is_empty() {
        let acks = Samples::new(served.ingest.iter().map(|a| a.round_trip_ms).collect());
        values.push(Value::new("ingest_ack_p50_ms", acks.median(), "ms"));
        counts.push(("ingest_acks".to_string(), acks.len() as u64));
    }
    (values, counts)
}

/// Per-layer numbers only a served run shows: the server's own ring and
/// counters, and the generator's view of its schedule and tail.
pub fn observed(served: &Served, requests: &[Request], p50_ms: f64) -> Vec<Value> {
    let ring = |rows: &[RingRow], f: fn(&RingRow) -> f64| {
        Samples::new(rows.iter().filter(|r| r.status == 200).map(f).collect()).median()
    };
    let ring_total = ring(&served.ring_rate, |r| r.total_ms);
    let (before, after) = &served.metrics_rate;
    let queries = after.delta(before, "soi_queries_total");
    let latency = Samples::new(
        served
            .rate_samples()
            .filter(is_complete)
            .map(|s| s.latency_ms)
            .collect(),
    );
    let late = Samples::new(served.rate_samples().map(|s| s.late_ms).collect());
    let mut values = vec![
        Value::new(
            "serve.ring.queue_p50_ms",
            ring(&served.ring_rate, |r| r.queue_ms),
            "ms",
        ),
        Value::new(
            "serve.ring.exec_p50_ms",
            ring(&served.ring_rate, |r| r.exec_ms),
            "ms",
        ),
        Value::new("serve.ring.total_p50_ms", ring_total, "ms"),
        Value::new(
            "serve.ring.sat_queue_p50_ms",
            ring(&served.ring_sat, |r| r.queue_ms),
            "ms",
        ),
        Value::new("serve.edge_p50_ms", p50_ms - ring_total, "ms"),
        Value::new("serve.sheds", served.status.sheds as f64, "count"),
        Value::new("serve.partials", served.status.partials as f64, "count"),
        Value::new(
            "serve.folds",
            served.ingest.iter().filter(|a| a.folded).count() as f64,
            "count",
        ),
        Value::new(
            "serve.accesses_per_query",
            if queries > 0.0 {
                after.delta(before, "soi_source_accesses_total") / queries
            } else {
                0.0
            },
            "count",
        ),
        Value::new(
            "index.eps_cache_lookups",
            after.delta(before, "soi_epsilon_cache_hits_total")
                + after.delta(before, "soi_epsilon_cache_misses_total"),
            "count",
        ),
        Value::new("client.late_p95_ms", late.tail(95.0).1, "ms"),
        Value::new("client.p95_ms", latency.tail(95.0).1, "ms"),
        Value::new("client.p99_ms", latency.tail(99.0).1, "ms"),
        Value::new("client.max_ms", latency.max(), "ms"),
    ];
    // Diagnostics that exist only where the workload sends that kind.
    for (name, endpoint) in [
        ("client.soi_p50_ms", Endpoint::Soi),
        ("client.describe_p50_ms", Endpoint::Describe),
    ] {
        let of_kind = Samples::new(
            served
                .rate_samples()
                .filter(is_complete)
                .filter(|s| requests[s.index].endpoint() == endpoint)
                .map(|s| s.latency_ms)
                .collect(),
        );
        if of_kind.len() > 0 {
            values.push(Value::new(name, of_kind.median(), "ms"));
        }
    }
    if !served.ingest.is_empty() {
        let acks = Samples::new(served.ingest.iter().map(|a| a.round_trip_ms).collect());
        values.push(Value::new("client.ingest_ack_max_ms", acks.max(), "ms"));
    }
    values
}
