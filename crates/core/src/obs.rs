//! Process-wide metric instruments for the core algorithms.
//!
//! Hot loops keep their counters in the per-query [`QueryStats`] /
//! [`DescribeStats`] structs (plain field increments); the whole bundle is
//! *absorbed* into these global atomics once per query, so enabling
//! metrics costs a handful of atomic adds per query rather than per
//! source access. [`register_metrics`] forces registration so `soi
//! metrics` reports the full series set (at zero) even before the first
//! query runs.

use crate::describe::DescribeStats;
use crate::soi::QueryStats;
use soi_obs::metrics::{
    register_counter, register_histogram, Counter, Histogram, DEFAULT_LATENCY_BUCKETS,
};
use std::sync::OnceLock;

/// Global instruments fed by k-SOI query evaluations.
pub(crate) struct SoiMetrics {
    /// `soi_queries_total`: k-SOI queries evaluated.
    pub(crate) queries: &'static Counter,
    /// `soi_query_latency_seconds`: end-to-end `run_soi` latency.
    pub(crate) latency: &'static Histogram,
    /// `soi_cell_visits_total`: effective `UpdateInterest` executions.
    pub(crate) cell_visits: &'static Counter,
    /// `soi_segments_bounded_out_total`: segments dismissed by bounds
    /// without distance work.
    pub(crate) segments_bounded_out: &'static Counter,
    /// `soi_source_accesses_total`: total source-list accesses.
    pub(crate) accesses: &'static Counter,
    /// `soi_queries_partial_total`: queries whose deadline expired before
    /// the bounds converged (anytime partial results returned).
    pub(crate) partials: &'static Counter,
}

/// The SOI instruments (registered on first use).
pub(crate) fn soi_metrics() -> &'static SoiMetrics {
    static METRICS: OnceLock<SoiMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SoiMetrics {
        queries: register_counter("soi_queries_total", "k-SOI queries evaluated"),
        latency: register_histogram(
            "soi_query_latency_seconds",
            "End-to-end run_soi latency",
            DEFAULT_LATENCY_BUCKETS,
        ),
        cell_visits: register_counter(
            "soi_cell_visits_total",
            "Effective UpdateInterest executions",
        ),
        segments_bounded_out: register_counter(
            "soi_segments_bounded_out_total",
            "Segments dismissed by upper bounds without distance work",
        ),
        accesses: register_counter("soi_source_accesses_total", "Source-list accesses"),
        partials: register_counter(
            "soi_queries_partial_total",
            "k-SOI queries that hit their deadline and returned partial lower-bound results",
        ),
    })
}

/// Folds one finished query's counters into the global SOI instruments.
pub(crate) fn absorb_query_stats(stats: &QueryStats) {
    let m = soi_metrics();
    m.queries.inc();
    m.latency.observe_duration(stats.total_time());
    m.cell_visits.add(stats.cell_visits as u64);
    m.segments_bounded_out
        .add(stats.segments_bounded_out as u64);
    m.accesses.add(stats.accesses as u64);
    if stats.deadline_expired {
        m.partials.inc();
    }
}

/// Global instruments fed by description (ST_Rel+Div) queries.
pub(crate) struct DescribeMetrics {
    /// `soi_describe_queries_total`: description queries evaluated.
    pub(crate) queries: &'static Counter,
    /// `soi_describe_latency_seconds`: end-to-end `st_rel_div` latency.
    pub(crate) latency: &'static Histogram,
    /// `soi_describe_photos_evaluated_total`: exact `mmr` evaluations.
    pub(crate) photos_evaluated: &'static Counter,
    /// `soi_describe_cells_pruned_total`: cells discarded by the
    /// filtering-phase bounds (Alg. 2).
    pub(crate) cells_pruned_filtering: &'static Counter,
    /// `soi_describe_cells_skipped_total`: cells skipped in refinement.
    pub(crate) cells_pruned_refinement: &'static Counter,
    /// `soi_describe_cells_refined_total`: cells whose photos were refined.
    pub(crate) cells_refined: &'static Counter,
    /// `soi_describe_queries_partial_total`: describe queries whose deadline
    /// expired mid-selection (anytime partial summaries returned).
    pub(crate) partials: &'static Counter,
}

/// The describe instruments (registered on first use).
pub(crate) fn describe_metrics() -> &'static DescribeMetrics {
    static METRICS: OnceLock<DescribeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DescribeMetrics {
        queries: register_counter(
            "soi_describe_queries_total",
            "Description queries evaluated",
        ),
        latency: register_histogram(
            "soi_describe_latency_seconds",
            "End-to-end st_rel_div latency",
            DEFAULT_LATENCY_BUCKETS,
        ),
        photos_evaluated: register_counter(
            "soi_describe_photos_evaluated_total",
            "Exact mmr evaluations",
        ),
        cells_pruned_filtering: register_counter(
            "soi_describe_cells_pruned_total",
            "Cells discarded by Alg. 2 filtering bounds",
        ),
        cells_pruned_refinement: register_counter(
            "soi_describe_cells_skipped_total",
            "Cells skipped during Alg. 2 refinement",
        ),
        cells_refined: register_counter(
            "soi_describe_cells_refined_total",
            "Cells whose photos were refined",
        ),
        partials: register_counter(
            "soi_describe_queries_partial_total",
            "Describe queries that hit their deadline and returned a partial summary",
        ),
    })
}

/// Folds one finished description query into the global instruments.
pub(crate) fn absorb_describe_stats(stats: &DescribeStats) {
    let m = describe_metrics();
    m.queries.inc();
    m.latency.observe_duration(stats.timer.total());
    m.photos_evaluated.add(stats.photos_evaluated as u64);
    m.cells_pruned_filtering
        .add(stats.cells_pruned_filtering as u64);
    m.cells_pruned_refinement
        .add(stats.cells_pruned_refinement as u64);
    m.cells_refined.add(stats.cells_refined as u64);
    if stats.deadline_expired {
        m.partials.inc();
    }
}

/// Forces registration of every core-algorithm metric so a gather
/// performed before any query still exposes the full series set.
pub fn register_metrics() {
    let _ = soi_metrics();
    let _ = describe_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_counters() {
        let before = soi_metrics().accesses.get();
        let stats = QueryStats {
            accesses: 9,
            ..Default::default()
        };
        absorb_query_stats(&stats);
        assert!(soi_metrics().accesses.get() >= before + 9);
        assert!(soi_metrics().queries.get() >= 1);
    }

    #[test]
    fn register_exposes_full_series_set() {
        register_metrics();
        let text = soi_obs::metrics::gather_prefixed("soi_");
        for name in [
            "soi_queries_total",
            "soi_query_latency_seconds",
            "soi_describe_queries_total",
            "soi_describe_latency_seconds",
        ] {
            assert!(text.contains(name), "{name} missing from gather");
        }
    }
}
