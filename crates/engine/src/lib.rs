//! Batched query execution over a shared, immutable context.
//!
//! The paper's evaluation (and any production deployment) runs *many* k-SOI
//! and describe queries against one static dataset. This crate turns that
//! shape into throughput:
//!
//! - a [`QueryContext`] bundles the immutable inputs (network, POIs, index,
//!   delta) behind an [`Arc`] so every worker shares one copy;
//! - a [`QueryEngine`] fans a slice of queries out over a scoped worker
//!   pool; workers pull small contiguous chunks of query indices from a
//!   shared atomic counter (work stealing at chunk granularity — cheap,
//!   amortising counter contention on large batches while staying
//!   naturally load-balancing for skewed per-query costs);
//! - each worker owns an [`EngineWorker`] — the scratch space of both
//!   algorithms and the one per-job execution body (allocation scope,
//!   latency clock, request-id stamping, trace/explain capture) — so
//!   steady-state queries reuse buffers instead of re-allocating them.
//!   `soi serve` holds the same type on its long-lived engine workers and
//!   calls it one job at a time, without going through a batch;
//! - results are returned **in input order** regardless of worker count or
//!   scheduling: `results[i]` always answers `queries[i]`, and each result
//!   is bit-identical to a sequential [`run_soi`](soi_core::soi::run_soi)
//!   or [`st_rel_div`](soi_core::describe::st_rel_div()) call.
//!
//! Worker count resolves through [`soi_common::effective_threads`]
//! (explicit → `SOI_THREADS` → available parallelism); `threads == 1` runs
//! inline on the calling thread with no pool at all, so single-query latency
//! is unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod obs;

use soi_common::{effective_threads, Result};
use soi_core::describe::{
    st_rel_div_full, DescribeExplain, DescribeOutcome, DescribeParams, DescribeScratch,
    StreetContext,
};
use soi_core::soi::{
    run_soi_full, QueryStats, SoiConfig, SoiExplain, SoiOutcome, SoiQuery, SoiScratch,
};
use soi_core::QueryBudget;
use soi_data::{PhotoView, PoiCollection, PoiView};
use soi_index::{DeltaIndex, IndexView, PoiIndex};
use soi_network::RoadNetwork;
use soi_obs::{AllocScope, AllocStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The immutable inputs shared by every query of a batch.
///
/// Borrows the dataset (datasets are large and already owned by the caller
/// — fixtures, CLI state); the context itself is cheap and lives in an
/// [`Arc`] cloned into each worker.
#[derive(Debug, Clone)]
pub struct QueryContext<'a> {
    /// The road network.
    pub network: &'a RoadNetwork,
    /// The POI collection.
    pub pois: &'a PoiCollection,
    /// The spatio-textual POI index.
    pub index: &'a PoiIndex,
    /// The sealed live-ingestion delta overlaid on the base structures for
    /// every query of the batch (`None` = base only). The batch pins this
    /// one delta for its whole run: queries within a batch always see a
    /// single consistent epoch.
    pub delta: Option<&'a DeltaIndex>,
    /// The epoch id the batch is pinned to (0 before any ingestion).
    pub epoch: u64,
    /// Inert: read by nothing in this crate. Kept only because the frozen
    /// `benchmark/` package passes `&ctx.config` to
    /// [`run_soi_with_scratch`](soi_core::soi::run_soi_with_scratch)
    /// (ROADMAP 16(c)).
    pub config: SoiConfig,
}

impl<'a> QueryContext<'a> {
    /// Creates a context over the base structures, with no delta.
    pub fn new(network: &'a RoadNetwork, pois: &'a PoiCollection, index: &'a PoiIndex) -> Self {
        Self {
            network,
            pois,
            index,
            delta: None,
            epoch: 0,
            config: SoiConfig::default(),
        }
    }

    /// Creates a context pinned to epoch `epoch` with `delta` overlaid on
    /// the base structures.
    pub fn with_delta(
        network: &'a RoadNetwork,
        pois: &'a PoiCollection,
        index: &'a PoiIndex,
        delta: Option<&'a DeltaIndex>,
        epoch: u64,
    ) -> Self {
        Self {
            network,
            pois,
            index,
            delta,
            epoch,
            config: SoiConfig::default(),
        }
    }

    /// The POI read view of this context (base + delta adds).
    pub fn poi_view(&self) -> PoiView<'a> {
        match self.delta {
            Some(d) => d.poi_view(self.pois),
            None => self.pois.into(),
        }
    }

    /// The index read view of this context (base + delta overlay).
    pub fn index_view(&self) -> IndexView<'a> {
        IndexView::new(self.index, self.delta)
    }
}

/// Aggregated counters over a batch (summed per-query [`QueryStats`],
/// successful queries only) plus batch-level wall-clock and worker count.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries that returned an error.
    pub errors: usize,
    /// Queries whose deadline expired: they returned anytime *partial*
    /// results (counted as successes, not errors).
    pub partials: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Summed effective `UpdateInterest` executions.
    pub cell_visits: usize,
    /// Summed segments dismissed by bounds.
    pub segments_bounded_out: usize,
    /// Summed source-list accesses.
    pub accesses: usize,
}

/// One failed query of a batch: which slot failed, at which stage, and why.
///
/// The engine emits `stage == "query"` records for evaluation failures;
/// callers that pre-validate or parse their inputs (the `soi batch` CLI)
/// prepend their own records with other stages (e.g. `"parse"`), so one
/// artifact lists every failure of the run with its input index.
#[derive(Debug, Clone)]
pub struct BatchErrorRecord {
    /// Input index of the failed query (`results[index]` holds the error).
    pub index: usize,
    /// Pipeline stage that rejected it (`"query"` for engine evaluation).
    pub stage: &'static str,
    /// The [`soi_common::ErrorCategory`] name (`usage`, `data`, …).
    pub category: String,
    /// The rendered error message.
    pub message: String,
}

impl BatchErrorRecord {
    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = soi_obs::json::JsonWriter::object();
        obj.field_u64("index", self.index as u64);
        obj.field_str("stage", self.stage);
        obj.field_str("category", &self.category);
        obj.field_str("message", &self.message);
        obj.finish()
    }
}

/// Machine-readable telemetry snapshot of one batch: the aggregated
/// [`BatchStats`] plus the per-query latency and allocation distributions
/// — the superset the `--stats-json` CLI flag emits.
///
/// The latency list holds one entry per *successful* query, in input
/// order, so exact percentiles (not histogram estimates) are available
/// per batch.
#[derive(Debug, Clone, Default)]
pub struct EngineTelemetry {
    /// The aggregated batch counters.
    pub stats: BatchStats,
    /// Per-query wall-clock latency of each successful query, input order.
    pub query_latencies: Vec<Duration>,
    /// Heap allocations performed by each successful query on its worker
    /// thread (an [`AllocScope`] around the algorithm call), input order.
    pub query_allocs: Vec<u64>,
    /// Peak live heap bytes above the scope baseline for each successful
    /// query, input order.
    pub query_alloc_peaks: Vec<u64>,
    /// The epoch id the batch was pinned to (0 before any ingestion).
    pub epoch: u64,
    /// Pending delta ops overlaid on the base index during the batch
    /// (0 when the batch ran on a compacted base).
    pub delta_ops: u64,
    /// Delta POI inserts visible to the batch.
    pub delta_added_pois: u64,
    /// Delta POI deletes visible to the batch.
    pub delta_deleted_pois: u64,
    /// One record per failed query, input order — the engine emits
    /// `stage == "query"` entries; callers may prepend their own stages.
    pub error_records: Vec<BatchErrorRecord>,
}

impl EngineTelemetry {
    /// Exact `q`-quantile (`0 ≤ q ≤ 1`) of the per-query latencies: the
    /// `⌈q·n⌉`-th smallest. `None` when no query succeeded.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        exact_quantile(&self.query_latencies, q)
    }

    /// Renders the snapshot as a JSON object (the `--stats-json` payload).
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut obj = soi_obs::json::JsonWriter::object();
        obj.field_u64("queries", self.stats.queries as u64);
        obj.field_u64("errors", self.stats.errors as u64);
        obj.field_u64("partials", self.stats.partials as u64);
        obj.field_u64("threads", self.stats.threads as u64);
        obj.field_f64("wall_time_ms", ms(self.stats.wall_time));
        obj.field_f64("queries_per_second", self.stats.queries_per_second());
        let mut counters = soi_obs::json::JsonWriter::object();
        counters.field_u64("cell_visits", self.stats.cell_visits as u64);
        counters.field_u64(
            "segments_bounded_out",
            self.stats.segments_bounded_out as u64,
        );
        counters.field_u64("accesses", self.stats.accesses as u64);
        obj.field_raw("counters", &counters.finish());
        let mut latency = soi_obs::json::JsonWriter::object();
        latency.field_u64("samples", self.query_latencies.len() as u64);
        for (key, q) in [("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)] {
            match self.latency_quantile(q) {
                Some(d) => latency.field_f64(key, ms(d)),
                None => latency.field_raw(key, "null"),
            }
        }
        match self.query_latencies.iter().max() {
            Some(&d) => latency.field_f64("max_ms", ms(d)),
            None => latency.field_raw("max_ms", "null"),
        }
        obj.field_raw("latency", &latency.finish());
        let mut alloc = soi_obs::json::JsonWriter::object();
        alloc.field_u64("samples", self.query_allocs.len() as u64);
        for (key, vals) in [
            ("allocations", &self.query_allocs),
            ("peak_bytes", &self.query_alloc_peaks),
        ] {
            let mut dist = soi_obs::json::JsonWriter::object();
            match exact_quantile(vals, 0.50) {
                Some(v) => dist.field_u64("p50", v),
                None => dist.field_raw("p50", "null"),
            }
            match vals.iter().max() {
                Some(&v) => dist.field_u64("max", v),
                None => dist.field_raw("max", "null"),
            }
            dist.field_u64("total", vals.iter().sum());
            alloc.field_raw(key, &dist.finish());
        }
        obj.field_raw("alloc", &alloc.finish());
        let mut epoch = soi_obs::json::JsonWriter::object();
        epoch.field_u64("id", self.epoch);
        epoch.field_u64("delta_ops", self.delta_ops);
        epoch.field_u64("delta_added_pois", self.delta_added_pois);
        epoch.field_u64("delta_deleted_pois", self.delta_deleted_pois);
        obj.field_raw("epoch", &epoch.finish());
        let mut records = soi_obs::json::JsonWriter::array();
        for rec in &self.error_records {
            records.elem_raw(&rec.to_json());
        }
        obj.field_raw("error_records", &records.finish());
        obj.finish()
    }
}

/// Exact `q`-quantile of `vals` (the `⌈q·n⌉`-th smallest), `None` when
/// empty.
fn exact_quantile<T: Copy + Ord>(vals: &[T], q: f64) -> Option<T> {
    let mut sorted = vals.to_vec();
    sorted.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied()
}

impl BatchStats {
    fn absorb(&mut self, stats: &QueryStats) {
        self.cell_visits += stats.cell_visits;
        self.segments_bounded_out += stats.segments_bounded_out;
        self.accesses += stats.accesses;
    }

    /// Successful queries per second over the batch wall-clock (0 for an
    /// empty or unmeasured batch).
    pub fn queries_per_second(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.queries - self.errors) as f64 / secs
    }
}

/// Per-job observability directives: which request the job belongs to and
/// which artifacts to collect while it runs.
///
/// The default (`request_id == 0`, nothing captured) is free: the engine
/// worker takes the exact same path as before per-request capture existed.
/// A non-zero `request_id` stamps every trace event the job emits (global
/// or captured) with the id; `trace`/`explain` additionally collect a
/// request-scoped Chrome trace / explain report for that one job, without
/// touching the process-global trace switch.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCapture {
    /// Request id to stamp into trace events (`0` = none).
    pub request_id: u64,
    /// Capture this job's trace events into a private per-request buffer.
    pub trace: bool,
    /// Run the job with an explain collector and render it to JSON.
    pub explain: bool,
}

impl QueryCapture {
    /// True when the job needs a capture buffer or an explain collector.
    pub fn is_active(&self) -> bool {
        self.trace || self.explain
    }
}

/// Artifacts captured for one job whose [`QueryCapture`] asked for them.
#[derive(Debug, Clone, Default)]
pub struct CapturedArtifacts {
    /// Chrome-trace JSON of the events this job emitted on its worker.
    pub trace_json: Option<String>,
    /// Rendered explain report (`SoiExplain`/`DescribeExplain` JSON).
    pub explain_json: Option<String>,
}

/// The outcome of a k-SOI batch: per-query results in input order plus
/// aggregated statistics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// `results[i]` answers `queries[i]` — invalid queries yield their
    /// validation error without failing the rest of the batch.
    pub results: Vec<Result<SoiOutcome>>,
    /// Aggregated batch statistics.
    pub stats: BatchStats,
    /// The machine-readable telemetry snapshot (per-query latencies and
    /// allocations) superseding the plain `stats`.
    pub telemetry: EngineTelemetry,
    /// `captures[i]` holds the artifacts requested by `jobs[i]`'s
    /// [`QueryCapture`]; `None` for jobs that asked for nothing.
    pub captures: Vec<Option<CapturedArtifacts>>,
}

/// One finished job: its result, measurements, and captured artifacts.
#[derive(Debug)]
pub struct JobRun<T> {
    /// The algorithm's outcome (a deadline hit is a partial success).
    pub result: Result<T>,
    /// Wall clock of the algorithm call on the worker.
    pub latency: Duration,
    /// Allocation work of the call: it runs entirely on the worker thread,
    /// so a thread-local scope sees exactly its allocations.
    pub alloc: AllocStats,
    /// `Some` when the capture directives asked for a trace or explain.
    pub artifacts: Option<CapturedArtifacts>,
}

/// One worker's reusable scratch space and the single per-job execution
/// body: allocation scope, latency clock, request-id stamping, and
/// trace/explain capture around one algorithm call.
///
/// Hold one per worker thread (the batch API: per pool worker per batch;
/// `soi serve`: per engine worker for the whole run) so steady-state jobs
/// run out of retained buffers. Results never depend on what the scratch
/// held (buffers are cleared on entry, never read); after a panic unwound
/// through a job, replace the worker with a fresh one.
///
/// Making one registers the metric instruments its jobs feed, so their
/// one-off registration is never counted in a job's allocation scope.
#[derive(Debug)]
pub struct EngineWorker {
    soi: SoiScratch,
    describe: DescribeScratch,
}

impl Default for EngineWorker {
    fn default() -> Self {
        obs::register_metrics();
        Self {
            soi: SoiScratch::default(),
            describe: DescribeScratch::default(),
        }
    }
}

impl EngineWorker {
    /// Runs one k-SOI query against `ctx` under `budget`.
    pub fn run_soi(
        &mut self,
        ctx: &QueryContext<'_>,
        query: &SoiQuery,
        budget: QueryBudget,
        capture: QueryCapture,
    ) -> JobRun<SoiOutcome> {
        let scratch = &mut self.soi;
        let run = run_job(capture, SoiExplain::to_json, |explain| {
            run_soi_full(
                ctx.network,
                ctx.poi_view(),
                ctx.index_view(),
                query,
                scratch,
                explain,
                budget,
            )
        });
        if run.result.is_ok() {
            let metrics = obs::engine_metrics();
            metrics.query_allocations.observe(run.alloc.allocs as f64);
            metrics
                .query_alloc_peak_bytes
                .observe(run.alloc.peak_bytes as f64);
        }
        run
    }

    /// Runs one describe job over `photos` under `budget`. `context`
    /// resolves the street context inside the job body, so the job's
    /// latency, allocation count, trace capture and `engine.query` span
    /// cover a context it builds (a [`StreetContexts`] first touch) as well
    /// as Alg. 2; it returns the context and whether it built it, which
    /// the explain report records as `context_built`.
    ///
    /// [`StreetContexts`]: soi_core::describe::StreetContexts
    pub fn run_describe<'c>(
        &mut self,
        context: impl FnOnce() -> Result<(&'c StreetContext, bool)>,
        photos: PhotoView<'_>,
        params: &DescribeParams,
        budget: QueryBudget,
        capture: QueryCapture,
    ) -> JobRun<DescribeOutcome> {
        let scratch = &mut self.describe;
        run_job(capture, DescribeExplain::to_json, |mut explain| {
            let (ctx, built) = context()?;
            if let Some(explain) = explain.as_deref_mut() {
                explain.context_built = Some(built);
            }
            st_rel_div_full(ctx, photos, params, scratch, explain, budget)
        })
    }
}

/// The per-job body shared by both algorithms: `run` is the algorithm call
/// (taking the optional explain collector), `render` turns a filled
/// collector into JSON. A default `capture` adds nothing to the call but
/// the engine.query span probe.
fn run_job<T, E: Default>(
    capture: QueryCapture,
    render: impl FnOnce(&E) -> String,
    run: impl FnOnce(Option<&mut E>) -> Result<T>,
) -> JobRun<T> {
    let scope = AllocScope::start();
    let started = Instant::now();
    let mut explain = capture.explain.then(E::default);
    // The span lives inside `run` so its Complete event falls within the
    // capture scope (spans record on drop).
    let run = |explain: Option<&mut E>| {
        let _span = soi_obs::trace::span(soi_obs::names::spans::ENGINE_QUERY);
        run(explain)
    };
    let (result, trace_json) = if capture.trace {
        let (result, events) =
            soi_obs::trace::capture(capture.request_id, || run(explain.as_mut()));
        (result, Some(soi_obs::trace::chrome_trace_json(&events)))
    } else if capture.request_id != 0 {
        let result = soi_obs::trace::with_request_id(capture.request_id, || run(explain.as_mut()));
        (result, None)
    } else {
        (run(explain.as_mut()), None)
    };
    let latency = started.elapsed();
    let artifacts = capture.is_active().then(|| CapturedArtifacts {
        trace_json,
        explain_json: explain.as_ref().map(render),
    });
    JobRun {
        result,
        latency,
        alloc: scope.finish(),
        artifacts,
    }
}

/// A batched query executor with a fixed worker count.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    threads: usize,
}

impl QueryEngine {
    /// Creates an engine with `threads` workers (`0` = resolve automatically
    /// via [`effective_threads`]).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: effective_threads((threads > 0).then_some(threads)),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every query of `queries` against `ctx`.
    ///
    /// Results come back in input order and are bit-identical to calling
    /// [`run_soi`](soi_core::soi::run_soi) sequentially, for any worker
    /// count.
    pub fn run_soi_batch(&self, ctx: &Arc<QueryContext<'_>>, queries: &[SoiQuery]) -> BatchOutcome {
        self.run_soi_batch_inner(ctx, queries, |q| {
            (q, QueryBudget::unlimited(), QueryCapture::default())
        })
    }

    /// [`run_soi_batch`](Self::run_soi_batch) with a per-job execution budget and per-job
    /// observability directives.
    ///
    /// Budgets give anytime semantics for serving: a query whose deadline
    /// expires mid-run returns its current lower-bound top-k with
    /// [`partial`](SoiOutcome::partial) set (a success, counted in
    /// [`BatchStats::partials`]), never an error. The [`QueryCapture`]
    /// stamps the job's request id and optionally collects a
    /// request-scoped trace and explain report, returned in
    /// [`BatchOutcome::captures`], input order. Jobs with an unlimited
    /// budget and a default capture are bit-identical to [`run_soi_batch`](Self::run_soi_batch).
    pub fn run_soi_batch_captured(
        &self,
        ctx: &Arc<QueryContext<'_>>,
        jobs: &[(SoiQuery, QueryBudget, QueryCapture)],
    ) -> BatchOutcome {
        self.run_soi_batch_inner(ctx, jobs, |(q, b, c)| (q, *b, *c))
    }

    /// The shared k-SOI batch executor: `get` projects each item to its
    /// query, budget, and capture directives.
    fn run_soi_batch_inner<T, G>(
        &self,
        ctx: &Arc<QueryContext<'_>>,
        items: &[T],
        get: G,
    ) -> BatchOutcome
    where
        T: Sync,
        G: Fn(&T) -> (&SoiQuery, QueryBudget, QueryCapture) + Sync,
    {
        let _batch_span = soi_obs::trace::span(soi_obs::names::spans::ENGINE_BATCH);
        let start = Instant::now();
        let get = &get;
        let runs = self.dispatch(items, || {
            let ctx = Arc::clone(ctx);
            let mut worker = EngineWorker::default();
            move |item: &T| {
                let (query, budget, capture) = get(item);
                worker.run_soi(&ctx, query, budget, capture)
            }
        });
        let mut stats = BatchStats {
            queries: items.len(),
            threads: self.threads,
            ..BatchStats::default()
        };
        let mut query_latencies = Vec::with_capacity(items.len());
        let mut query_allocs = Vec::with_capacity(items.len());
        let mut query_alloc_peaks = Vec::with_capacity(items.len());
        let mut results = Vec::with_capacity(items.len());
        let mut captures = Vec::with_capacity(items.len());
        let mut error_records = Vec::new();
        // Every slot is claimed exactly once by the counter protocol, so no
        // `None` survives; `flatten` keeps the invariant checked without
        // panicking.
        for (index, run) in runs.into_iter().flatten().enumerate() {
            match &run.result {
                Ok(outcome) => {
                    stats.absorb(&outcome.stats);
                    if outcome.partial {
                        stats.partials += 1;
                    }
                    query_latencies.push(run.latency);
                    query_allocs.push(run.alloc.allocs);
                    query_alloc_peaks.push(run.alloc.peak_bytes);
                }
                Err(err) => {
                    stats.errors += 1;
                    error_records.push(BatchErrorRecord {
                        index,
                        stage: "query",
                        category: err.category().to_string(),
                        message: err.to_string(),
                    });
                }
            }
            results.push(run.result);
            captures.push(run.artifacts);
        }
        stats.wall_time = start.elapsed();
        let telemetry = EngineTelemetry {
            stats: stats.clone(),
            query_latencies,
            query_allocs,
            query_alloc_peaks,
            epoch: ctx.epoch,
            delta_ops: ctx.delta.map_or(0, |d| d.num_ops() as u64),
            delta_added_pois: ctx.delta.map_or(0, |d| d.added_pois().len() as u64),
            delta_deleted_pois: ctx.delta.map_or(0, |d| d.num_deleted_pois() as u64),
            error_records,
        };
        BatchOutcome {
            results,
            stats,
            telemetry,
            captures,
        }
    }

    /// Evaluates every `(street context, params, budget, capture)` describe
    /// job in `jobs` against `photos` (the describe analogue of
    /// [`run_soi_batch_captured`](Self::run_soi_batch_captured)): returns results and the per-job
    /// artifacts, both in input order.
    ///
    /// Results are bit-identical to calling
    /// [`st_rel_div`](soi_core::describe::st_rel_div()) sequentially, for any
    /// worker count. A job whose deadline expires mid-selection returns the
    /// photos chosen so far with [`partial`](DescribeOutcome::partial) set
    /// (a success, not an error).
    #[allow(clippy::type_complexity)]
    pub fn run_describe_batch_captured<'p>(
        &self,
        photos: impl Into<PhotoView<'p>>,
        jobs: &[(&StreetContext, DescribeParams, QueryBudget, QueryCapture)],
    ) -> (Vec<Result<DescribeOutcome>>, Vec<Option<CapturedArtifacts>>) {
        let _batch_span = soi_obs::trace::span(soi_obs::names::spans::ENGINE_BATCH);
        let photos = photos.into();
        let runs = self.dispatch(jobs, || {
            let mut worker = EngineWorker::default();
            move |&(ctx, ref params, budget, capture)| {
                worker.run_describe(|| Ok((ctx, false)), photos, params, budget, capture)
            }
        });
        runs.into_iter()
            .flatten()
            .map(|run| (run.result, run.artifacts))
            .unzip()
    }

    /// Fans `items` out over the worker pool: each worker claims the next
    /// unprocessed chunk of indices from a shared counter and runs
    /// `make_worker()`'s closure on each item. Returns one slot per item,
    /// in input order.
    fn dispatch<T, R, W, F>(&self, items: &[T], make_worker: W) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        W: Fn() -> F + Sync,
        F: FnMut(&T) -> R,
    {
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        if self.threads <= 1 || items.len() <= 1 {
            let mut worker = make_worker();
            for (slot, item) in slots.iter_mut().zip(items) {
                *slot = Some(worker(item));
            }
            return slots;
        }
        let next = AtomicUsize::new(0);
        let next = &next;
        let make_worker = &make_worker;
        let workers = self.threads.min(items.len());
        // Claim granularity: single-index claims hit the shared counter once
        // per query, which shows up as cache-line ping-pong on large batches
        // of cheap queries. Claiming small contiguous chunks (~8 claims per
        // worker over the batch, capped so skewed per-query costs still
        // balance) amortises the contention without giving up stealing.
        let chunk = (items.len() / (workers * 8)).clamp(1, 32);
        let mut partials: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        partials.resize_with(workers, Vec::new);
        let run = crossbeam::thread::scope(|s| {
            for partial in partials.iter_mut() {
                s.spawn(move |_| {
                    // Root span for this worker thread: its engine.query
                    // slices nest below engine.worker in a Chrome trace.
                    let worker_span = soi_obs::trace::span(soi_obs::names::spans::ENGINE_WORKER);
                    let mut worker = make_worker();
                    loop {
                        let base = next.fetch_add(chunk, Ordering::Relaxed);
                        if base >= items.len() {
                            break;
                        }
                        let end = (base + chunk).min(items.len());
                        for (offset, item) in items[base..end].iter().enumerate() {
                            partial.push((base + offset, worker(item)));
                        }
                    }
                    // The scope returns once this closure has; the thread's
                    // TLS destructor — which would flush its trace events —
                    // may run after that, when the caller has already
                    // collected the trace. So flush here, span included.
                    drop(worker_span);
                    soi_obs::trace::flush_thread();
                });
            }
        });
        if let Err(panic) = run {
            std::panic::resume_unwind(panic);
        }
        for (i, result) in partials.into_iter().flatten() {
            slots[i] = Some(result);
        }
        slots
    }
}

impl Default for QueryEngine {
    /// An engine with the automatically resolved worker count.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_core::soi::run_soi;

    fn fixture() -> (soi_data::Dataset, PoiIndex) {
        let (dataset, _) = soi_datagen::generate(&soi_datagen::vienna(0.02));
        let index = PoiIndex::build(&dataset.network, &dataset.pois, 0.001);
        (dataset, index)
    }

    fn queries(dataset: &soi_data::Dataset) -> Vec<SoiQuery> {
        let mut queries = Vec::new();
        for (k, kws) in [
            (5usize, &["shop"][..]),
            (10, &["food", "cafe"][..]),
            (3, &["museum"][..]),
            (7, &["shop", "food", "bar"][..]),
        ] {
            let keywords = dataset.query_keywords(kws);
            queries.push(SoiQuery::new(keywords, k, 0.0005).expect("valid query"));
        }
        queries
    }

    #[test]
    fn batch_matches_sequential_for_every_worker_count() {
        let (dataset, index) = fixture();
        let queries = queries(&dataset);
        let expected: Vec<SoiOutcome> = queries
            .iter()
            .map(|q| run_soi(&dataset.network, &dataset.pois, &index, q).expect("valid query"))
            .collect();
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        for workers in [1usize, 2, 8] {
            let engine = QueryEngine::new(workers);
            assert_eq!(engine.threads(), workers);
            let batch = engine.run_soi_batch(&ctx, &queries);
            assert_eq!(batch.results.len(), queries.len());
            assert_eq!(batch.stats.queries, queries.len());
            assert_eq!(batch.stats.errors, 0);
            for (got, want) in batch.results.iter().zip(&expected) {
                let got = got.as_ref().expect("valid query");
                assert_eq!(got.results.len(), want.results.len());
                for (g, w) in got.results.iter().zip(&want.results) {
                    assert_eq!(g.street, w.street);
                    assert_eq!(g.interest.to_bits(), w.interest.to_bits());
                    assert_eq!(g.best_segment, w.best_segment);
                    assert_eq!(g.best_segment_mass.to_bits(), w.best_segment_mass.to_bits());
                }
            }
        }
    }

    #[test]
    fn invalid_query_fails_alone() {
        let (dataset, index) = fixture();
        let mut queries = queries(&dataset);
        queries[1].k = 0; // invalid
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let batch = QueryEngine::new(2).run_soi_batch(&ctx, &queries);
        assert!(batch.results[0].is_ok());
        assert!(batch.results[1].is_err());
        assert!(batch.results[2].is_ok());
        assert_eq!(batch.stats.errors, 1);
    }

    /// `queries` as `_captured` jobs sharing one budget, nothing captured.
    fn budgeted(
        queries: &[SoiQuery],
        budget: QueryBudget,
    ) -> Vec<(SoiQuery, QueryBudget, QueryCapture)> {
        queries
            .iter()
            .map(|q| (q.clone(), budget, QueryCapture::default()))
            .collect()
    }

    #[test]
    fn unlimited_deadlines_match_plain_batch() {
        let (dataset, index) = fixture();
        let queries = queries(&dataset);
        let jobs = budgeted(&queries, QueryBudget::unlimited());
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let engine = QueryEngine::new(2);
        let plain = engine.run_soi_batch(&ctx, &queries);
        let budgeted = engine.run_soi_batch_captured(&ctx, &jobs);
        assert_eq!(budgeted.stats.partials, 0);
        for (got, want) in budgeted.results.iter().zip(&plain.results) {
            let (got, want) = (got.as_ref().expect("valid"), want.as_ref().expect("valid"));
            assert!(!got.partial);
            assert_eq!(got.street_ids(), want.street_ids());
            for (g, w) in got.results.iter().zip(&want.results) {
                assert_eq!(g.interest.to_bits(), w.interest.to_bits());
            }
        }
    }

    #[test]
    fn expired_deadlines_yield_partials_not_errors() {
        let (dataset, index) = fixture();
        let queries = queries(&dataset);
        // A deadline already in the past: every query stops at its first
        // budget check and reports partial.
        let jobs = budgeted(&queries, QueryBudget::with_deadline(Instant::now()));
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let batch = QueryEngine::new(2).run_soi_batch_captured(&ctx, &jobs);
        assert_eq!(batch.stats.errors, 0);
        assert_eq!(batch.stats.partials, queries.len());
        for result in &batch.results {
            let outcome = result.as_ref().expect("deadline hit is not an error");
            assert!(outcome.partial);
            assert!(outcome.stats.deadline_expired);
        }
    }

    #[test]
    fn one_worker_answers_like_a_fresh_one_after_any_history() {
        // The serving shape: one long-lived worker, one job at a time. Its
        // scratch meets two datasets with different segment, street and
        // grid-cell counts in turn (the dense tables re-fit), the second
        // both bare and under a live delta (the same cells gather other
        // POIs), shapes that grow and shrink it (wide keyword sets at a
        // large ε, then one keyword at a small one, then wide again), and a
        // deadline-expired partial before every full run. Every full answer
        // must equal a fresh worker's, every work counter included — which
        // also fails if the per-segment bound column, SL2's entries or its
        // read position outlive a query or a dataset (mutation-checked).
        let (vienna, vienna_index) = fixture();
        let (berlin, _) = soi_datagen::generate(&soi_datagen::berlin(0.05));
        let berlin_index = PoiIndex::build(&berlin.network, &berlin.pois, 0.002);
        assert_ne!(vienna.network.num_segments(), berlin.network.num_segments());
        assert_ne!(
            vienna_index.grid().num_cells(),
            berlin_index.grid().num_cells()
        );
        // Every third POI goes; every seventh comes back twice as heavy.
        let ops: Vec<soi_index::DeltaOp> = berlin
            .pois
            .iter()
            .step_by(3)
            .map(|p| soi_index::DeltaOp::DeletePoi { id: p.id })
            .chain(
                berlin
                    .pois
                    .iter()
                    .step_by(7)
                    .map(|p| soi_index::DeltaOp::AddPoi {
                        pos: p.pos,
                        keywords: p.keywords.clone(),
                        weight: 2.0 * p.weight,
                    }),
            )
            .collect();
        let berlin_delta =
            DeltaIndex::seal(&berlin_index, &berlin.pois, &berlin.photos, &ops).expect("valid ops");
        let worlds = [
            (
                QueryContext::new(&vienna.network, &vienna.pois, &vienna_index),
                &vienna,
            ),
            (
                QueryContext::new(&berlin.network, &berlin.pois, &berlin_index),
                &berlin,
            ),
            (
                QueryContext::with_delta(
                    &berlin.network,
                    &berlin.pois,
                    &berlin_index,
                    Some(&berlin_delta),
                    1,
                ),
                &berlin,
            ),
        ];
        let shapes: [(&[&str], usize, f64); 3] = [
            (&["shop", "food", "bar", "cafe", "museum"], 40, 0.002), // big
            (&["museum"], 1, 0.0002),                                // small
            (&["shop", "food"], 10, 0.0005),
        ];
        let counters = |s: &QueryStats| {
            [
                s.accesses,
                s.cells_popped,
                s.segments_popped,
                s.cell_visits,
                s.duplicate_visits,
                s.segments_seen,
                s.segments_finalized_filtering,
                s.segments_finalized_refinement,
                s.segments_bounded_out,
            ]
        };
        let unlimited = QueryBudget::unlimited();
        let capture = QueryCapture::default();
        let mut worker = EngineWorker::default();
        let mut answered = 0;
        for &(world, shape) in &[
            (0usize, 0usize),
            (0, 1),
            (0, 0),
            (1, 0),
            (2, 0),
            (0, 2),
            (1, 1),
            (2, 2),
            (1, 0),
            (0, 0),
        ] {
            let (ctx, dataset) = &worlds[world];
            let (keywords, k, eps) = shapes[shape];
            let query = SoiQuery::new(dataset.query_keywords(keywords), k, eps).expect("valid");
            let expired = QueryBudget::with_deadline(Instant::now());
            let partial = worker.run_soi(ctx, &query, expired, capture);
            assert!(partial.result.expect("a deadline hit is a success").partial);
            let got = worker.run_soi(ctx, &query, unlimited, capture);
            let want = EngineWorker::default().run_soi(ctx, &query, unlimited, capture);
            let (got, want) = (got.result.expect("valid"), want.result.expect("valid"));
            assert!(!got.partial);
            assert_eq!(got.results.len(), want.results.len());
            for (g, w) in got.results.iter().zip(&want.results) {
                assert_eq!(g.street, w.street);
                assert_eq!(g.interest.to_bits(), w.interest.to_bits());
                assert_eq!(g.best_segment, w.best_segment);
                assert_eq!(g.best_segment_mass.to_bits(), w.best_segment_mass.to_bits());
            }
            assert_eq!(counters(&got.stats), counters(&want.stats));
            assert_eq!(
                got.stats.termination_ub.to_bits(),
                want.stats.termination_ub.to_bits()
            );
            answered += got.results.len();
        }
        assert!(answered > 0, "degenerate fixture: every answer was empty");
    }

    #[test]
    fn one_worker_answers_any_describe_history_like_a_fresh_one() {
        // The serving shape for /describe: one long-lived worker whose
        // Alg. 2 tables are refilled job after job, over street contexts
        // read from per-epoch tables. They meet two datasets, streets that grow
        // and shrink every table (the largest Rs, a handful of photos, the
        // largest again, one photo, untagged photos only), a base+delta
        // photo view with added and deleted photos, and a deadline-expired
        // partial before every full run. Every full answer — selection,
        // objective bits, work counters, explain rounds — must equal a
        // fresh worker's over a freshly built context, and the selection the
        // naive greedy's.
        use soi_common::{PhotoId, StreetId};
        use soi_core::describe::{greedy_select, ContextBuilder, PhiSource, StreetContexts};
        use soi_index::{DeltaOp, PhotoGrid};
        use soi_text::KeywordSet;
        const EPS: f64 = 0.0005;

        struct World {
            dataset: soi_data::Dataset,
            grid: PhotoGrid,
            delta: DeltaIndex,
            /// Largest Rs, a few photos, one photo, untagged photos only
            /// (the last two once the delta is overlaid).
            streets: [StreetId; 4],
        }
        let world = |dataset: soi_data::Dataset| {
            let grid = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * EPS);
            let near =
                |s: StreetId| grid.photos_near_street(&dataset.network, &dataset.photos, s, EPS);
            let mut sized: Vec<(usize, StreetId)> = dataset
                .network
                .streets()
                .iter()
                .map(|s| (near(s.id).len(), s.id))
                .collect();
            sized.sort_unstable();
            let &(_, big) = sized.last().expect("streets");
            // The two streets with the fewest photos: the delta leaves one
            // a single photo, and swaps the other's for five untagged ones.
            let mut sparse = sized.iter().filter(|&&(n, _)| n > 0).map(|&(_, s)| s);
            let (single, untagged) = (
                sparse.next().expect("photos"),
                sparse.next().expect("photos"),
            );
            let &(_, small) = sized
                .iter()
                .find(|&&(n, s)| (3..=12).contains(&n) && s != single && s != untagged)
                .expect("a street with a handful of photos");
            let mid = |s: StreetId, t: f64| {
                let geom = dataset
                    .network
                    .segment(dataset.network.street(s).segments[0])
                    .geom;
                geom.a.lerp(geom.b, t)
            };
            // The largest Rs loses every third photo and gains three.
            let mut deleted: std::collections::BTreeSet<PhotoId> =
                near(big).into_iter().step_by(3).collect();
            deleted.extend(near(single).into_iter().skip(1));
            deleted.extend(near(untagged));
            let mut ops: Vec<DeltaOp> = deleted
                .into_iter()
                .map(|id| DeltaOp::DeletePhoto { id })
                .collect();
            let tags = dataset.photos.get(near(big)[1]).tags.clone();
            for t in [0.25, 0.5, 0.75] {
                ops.push(DeltaOp::AddPhoto {
                    pos: mid(big, t),
                    tags: tags.clone(),
                });
            }
            for i in 0..5 {
                ops.push(DeltaOp::AddPhoto {
                    pos: mid(untagged, 0.1 + 0.2 * f64::from(i)),
                    tags: KeywordSet::empty(),
                });
            }
            let index = PoiIndex::build(&dataset.network, &dataset.pois, 0.001);
            let delta =
                DeltaIndex::seal(&index, &dataset.pois, &dataset.photos, &ops).expect("valid ops");
            World {
                dataset,
                grid,
                delta,
                streets: [big, small, single, untagged],
            }
        };
        let worlds = [
            world(soi_datagen::generate(&soi_datagen::vienna(0.02)).0),
            world(soi_datagen::generate(&soi_datagen::berlin(0.05)).0),
        ];
        let builders: Vec<ContextBuilder<'_>> = worlds
            .iter()
            .map(|w| ContextBuilder {
                network: &w.dataset.network,
                photos: &w.dataset.photos,
                photo_grid: &w.grid,
                pois: Some(&w.dataset.pois),
                eps: EPS,
                rho: 0.0001,
                phi_source: PhiSource::Photos,
            })
            .collect();
        let counters = |s: &soi_core::describe::DescribeStats| {
            [
                s.photos_evaluated,
                s.cells_pruned_filtering,
                s.cells_pruned_refinement,
                s.cells_refined,
                usize::from(s.deadline_expired),
            ]
        };
        // The explain report up to its wall-clock section: the rounds and
        // the counters.
        let rounds = |run: &JobRun<DescribeOutcome>| {
            let json = run.artifacts.as_ref().and_then(|a| a.explain_json.clone());
            let json = json.expect("explain requested");
            json[..json.find("\"phases_ms\"").expect("phases section")].to_string()
        };
        let explain = QueryCapture {
            explain: true,
            ..QueryCapture::default()
        };
        let explain_json = |run: &JobRun<DescribeOutcome>| {
            let json = run.artifacts.as_ref().and_then(|a| a.explain_json.clone());
            json.expect("explain requested")
        };
        let tables: Vec<StreetContexts> = worlds
            .iter()
            .map(|w| StreetContexts::new(w.dataset.network.num_streets()))
            .collect();
        let mut touched = std::collections::HashSet::new();
        let (big, small, single, untagged) = (0usize, 1usize, 2usize, 3usize);
        let mut worker = EngineWorker::default();
        let mut sizes = Vec::new();
        for &(w, street, (k, lambda, weight)) in &[
            (0usize, big, (20usize, 0.5, 0.5)),
            (0, small, (5, 0.25, 0.5)),
            (0, big, (10, 0.75, 0.5)),
            (1, big, (20, 0.5, 0.5)),
            (0, single, (5, 0.5, 0.5)),
            (1, untagged, (3, 0.5, 0.5)),
            (1, small, (20, 1.0, 0.0)),
            (0, untagged, (10, 0.0, 1.0)),
            (1, big, (1, 0.5, 0.5)),
            (1, single, (2, 0.5, 1.0)),
            (0, big, (20, 0.5, 0.5)),
        ] {
            let (builder, delta) = (&builders[w], Some(&worlds[w].delta));
            let photos = builder.photo_view(delta);
            let street = worlds[w].streets[street];
            let stored = || tables[w].get_or_build(builder, street, delta);
            let params = DescribeParams::new(k, lambda, weight).expect("valid");
            // The first job on a street builds its context, even one whose
            // deadline has passed; every later job reads it.
            let expired = QueryBudget::with_deadline(Instant::now());
            let partial = worker.run_describe(stored, photos, &params, expired, explain);
            let first_touch = touched.insert((w, street));
            let flag = format!("\"context_built\":{first_touch}");
            assert!(
                explain_json(&partial).contains(&flag),
                "world {w} street {street}"
            );
            let partial = partial.result.expect("a deadline hit is a success");
            assert!(partial.partial && partial.selected.is_empty());
            let unlimited = QueryBudget::unlimited();
            let got = worker.run_describe(stored, photos, &params, unlimited, explain);
            assert!(explain_json(&got).contains("\"context_built\":false"));
            let ctx = builder.build_with_delta(street, delta).expect("buildable");
            let fresh = || Ok((&ctx, false));
            let want =
                EngineWorker::default().run_describe(fresh, photos, &params, unlimited, explain);
            assert_eq!(rounds(&got), rounds(&want), "world {w} street {street}");
            let (got, want) = (got.result.expect("valid"), want.result.expect("valid"));
            assert!(!got.partial);
            assert_eq!(got.selected, want.selected);
            assert_eq!(got.objective.to_bits(), want.objective.to_bits());
            assert_eq!(counters(&got.stats), counters(&want.stats));
            // The stored context is the one a fresh build gives, down to
            // whether its index numbers the street's tags.
            let (kept, _) = stored().expect("stored");
            let masked = |index: &soi_index::DiversificationIndex| index.kw_mask(0).is_some();
            assert_eq!(masked(&kept.index), masked(&ctx.index));
            assert_eq!(kept.members, ctx.members);
            let greedy = greedy_select(&ctx, photos, &params);
            assert_eq!(got.selected, greedy.selected, "world {w} street {street}");
            assert_eq!(got.objective.to_bits(), greedy.objective.to_bits());
            sizes.push(ctx.members.len());
        }
        // The history did grow and shrink the tables.
        assert_eq!((sizes[4], sizes[5]), (1, 5), "sizes {sizes:?}");
        assert!(
            sizes[0] > 100 && sizes[1] <= 12 && sizes[3] > 100,
            "sizes {sizes:?}"
        );
    }

    #[test]
    fn error_records_report_index_and_category() {
        let (dataset, index) = fixture();
        let mut queries = queries(&dataset);
        queries[2].k = 0; // invalid
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let batch = QueryEngine::new(2).run_soi_batch(&ctx, &queries);
        assert_eq!(batch.telemetry.error_records.len(), 1);
        let rec = &batch.telemetry.error_records[0];
        assert_eq!(rec.index, 2);
        assert_eq!(rec.stage, "query");
        assert_eq!(rec.category, "usage");
        let json = soi_obs::json::parse(&batch.telemetry.to_json()).expect("parses");
        let records = json
            .get("error_records")
            .and_then(|r| r.as_arr())
            .expect("error_records array");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("index").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            records[0].get("stage").and_then(|v| v.as_str()),
            Some("query")
        );
    }

    #[test]
    fn captured_jobs_return_artifacts_and_match_uncaptured_results() {
        let (dataset, index) = fixture();
        let queries = queries(&dataset);
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let engine = QueryEngine::new(2);
        let plain = engine.run_soi_batch(&ctx, &queries);
        assert!(plain.captures.iter().all(Option::is_none));
        // Capture trace + explain for job 1 only; stamp ids on the rest.
        let jobs: Vec<(SoiQuery, QueryBudget, QueryCapture)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                (
                    q.clone(),
                    QueryBudget::unlimited(),
                    QueryCapture {
                        request_id: i as u64 + 100,
                        trace: i == 1,
                        explain: i == 1,
                    },
                )
            })
            .collect();
        let captured = engine.run_soi_batch_captured(&ctx, &jobs);
        assert_eq!(captured.captures.len(), queries.len());
        for (i, (got, want)) in captured.results.iter().zip(&plain.results).enumerate() {
            let (got, want) = (got.as_ref().expect("valid"), want.as_ref().expect("valid"));
            assert_eq!(got.street_ids(), want.street_ids(), "job {i}");
            assert!(captured.captures[i].is_some() == (i == 1));
        }
        let artifacts = captured.captures[1].as_ref().expect("job 1 captured");
        let trace_doc = artifacts.trace_json.as_ref().expect("trace json");
        let parsed = soi_obs::json::parse(trace_doc).expect("trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents");
        assert!(!events.is_empty(), "captured trace has events");
        // Every captured event belongs to the requesting job.
        for ev in events {
            assert_eq!(
                ev.get("args")
                    .and_then(|a| a.get("request_id"))
                    .and_then(|v| v.as_f64()),
                Some(101.0)
            );
        }
        assert!(events.iter().any(|ev| {
            ev.get("name").and_then(|n| n.as_str()) == Some(soi_obs::names::spans::ENGINE_QUERY)
        }));
        let explain_doc = artifacts.explain_json.as_ref().expect("explain json");
        assert!(soi_obs::json::parse(explain_doc).is_ok());
        // Nothing leaked into the (disabled) global trace.
        assert!(soi_obs::trace::take_events().is_empty());
    }

    #[test]
    fn describe_captured_returns_artifacts() {
        use soi_core::describe::{ContextBuilder, PhiSource};
        use soi_index::PhotoGrid;

        let (dataset, _) = fixture();
        let grid = PhotoGrid::build(&dataset.network, &dataset.photos, 0.001);
        let ctx = dataset
            .network
            .streets()
            .iter()
            .find_map(|street| {
                ContextBuilder {
                    network: &dataset.network,
                    photos: &dataset.photos,
                    photo_grid: &grid,
                    pois: None,
                    eps: 0.0005,
                    rho: 0.0001,
                    phi_source: PhiSource::Photos,
                }
                .build(street.id)
                .ok()
                .filter(|c| !c.members.is_empty())
            })
            .expect("fixture has a street with photos");
        let params = DescribeParams::new(5, 0.5, 0.5).expect("valid");
        let jobs = [(
            &ctx,
            params,
            QueryBudget::unlimited(),
            QueryCapture {
                request_id: 7,
                trace: true,
                explain: true,
            },
        )];
        let (results, captures) =
            QueryEngine::new(1).run_describe_batch_captured(&dataset.photos, &jobs);
        assert!(results[0].is_ok());
        let artifacts = captures[0].as_ref().expect("captured");
        assert!(artifacts
            .trace_json
            .as_ref()
            .is_some_and(|t| t.contains("traceEvents")));
        assert!(artifacts.explain_json.is_some());
    }

    #[test]
    fn empty_batch() {
        let (dataset, index) = fixture();
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let batch = QueryEngine::new(4).run_soi_batch(&ctx, &[]);
        assert!(batch.results.is_empty());
        assert_eq!(batch.stats.queries_per_second(), 0.0);
    }

    #[test]
    fn describe_batch_matches_sequential_for_every_worker_count() {
        use soi_core::describe::{st_rel_div, ContextBuilder, PhiSource};
        use soi_index::PhotoGrid;

        let (dataset, _) = fixture();
        let grid = PhotoGrid::build(&dataset.network, &dataset.photos, 0.001);
        let mut contexts = Vec::new();
        for street in dataset.network.streets() {
            let ctx = ContextBuilder {
                network: &dataset.network,
                photos: &dataset.photos,
                photo_grid: &grid,
                pois: None,
                eps: 0.0005,
                rho: 0.0001,
                phi_source: PhiSource::Photos,
            }
            .build(street.id)
            .expect("buildable context");
            if !ctx.members.is_empty() {
                contexts.push(ctx);
            }
            if contexts.len() == 3 {
                break;
            }
        }
        assert!(!contexts.is_empty(), "fixture has streets with photos");
        let jobs: Vec<(&StreetContext, DescribeParams, QueryBudget, QueryCapture)> = contexts
            .iter()
            .flat_map(|ctx| {
                [(5usize, 0.5f64), (10, 0.25)]
                    .into_iter()
                    .map(move |(k, lambda)| {
                        let params = DescribeParams::new(k, lambda, 0.5).expect("valid");
                        (
                            ctx,
                            params,
                            QueryBudget::unlimited(),
                            QueryCapture::default(),
                        )
                    })
            })
            .collect();
        let expected: Vec<DescribeOutcome> = jobs
            .iter()
            .map(|(ctx, params, ..)| st_rel_div(ctx, &dataset.photos, params).expect("valid"))
            .collect();
        for workers in [1usize, 2, 8] {
            let (results, _) =
                QueryEngine::new(workers).run_describe_batch_captured(&dataset.photos, &jobs);
            assert_eq!(results.len(), jobs.len());
            for (got, want) in results.iter().zip(&expected) {
                let got = got.as_ref().expect("valid");
                assert_eq!(got.selected, want.selected, "workers {workers}");
                assert_eq!(got.objective.to_bits(), want.objective.to_bits());
            }
        }
    }

    #[test]
    fn telemetry_reports_latencies_and_parses_as_json() {
        let (dataset, index) = fixture();
        let queries = queries(&dataset);
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let batch = QueryEngine::new(2).run_soi_batch(&ctx, &queries);
        let t = &batch.telemetry;
        assert_eq!(t.stats.queries, queries.len());
        assert_eq!(
            t.query_latencies.len(),
            queries.len(),
            "one latency per success"
        );
        let p50 = t
            .latency_quantile(0.50)
            .expect("non-empty batch has a median");
        let p99 = t.latency_quantile(0.99).expect("non-empty batch has a p99");
        assert!(p50 <= p99);
        assert!(t.query_latencies.iter().sum::<Duration>() >= p50);

        let json = t.to_json();
        let parsed = soi_obs::json::parse(&json).expect("telemetry JSON parses");
        assert_eq!(
            parsed.get("queries").and_then(|v| v.as_f64()),
            Some(queries.len() as f64)
        );
        assert_eq!(
            parsed
                .get("latency")
                .and_then(|l| l.get("samples"))
                .and_then(|v| v.as_f64()),
            Some(queries.len() as f64)
        );
        assert!(parsed
            .get("latency")
            .and_then(|l| l.get("p50_ms"))
            .and_then(|v| v.as_f64())
            .is_some());
        assert!(parsed
            .get("counters")
            .and_then(|c| c.get("accesses"))
            .and_then(|v| v.as_f64())
            .is_some());
        let alloc = parsed.get("alloc").expect("alloc section");
        assert_eq!(
            alloc.get("samples").and_then(|v| v.as_f64()),
            Some(queries.len() as f64)
        );
        assert!(alloc
            .get("peak_bytes")
            .and_then(|p| p.get("max"))
            .and_then(|v| v.as_f64())
            .is_some_and(|v| v > 0.0));
    }

    #[test]
    fn warm_queries_stay_within_cold_allocation_budget() {
        // Scratch-reuse regression guard: with one worker (and therefore one
        // scratch), repeating the same query must not allocate more than the
        // cold first run — warm queries run out of the retained buffers.
        let (dataset, index) = fixture();
        let keywords = dataset.query_keywords(&["shop", "food"]);
        let query = SoiQuery::new(keywords, 10, 0.0005).expect("valid query");
        let batch: Vec<SoiQuery> = vec![query; 8];
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let out = QueryEngine::new(1).run_soi_batch(&ctx, &batch);
        let allocs = &out.telemetry.query_allocs;
        assert_eq!(allocs.len(), batch.len());
        let cold = allocs[0];
        let warm_max = *allocs[1..].iter().max().expect("warm samples");
        assert!(cold > 0, "counting allocator must see the cold query");
        assert!(
            warm_max <= cold,
            "warm query allocated more than the cold one: {warm_max} > {cold}"
        );
        // Absolute ceiling: a warm query on this fixture makes 3
        // allocations (the answer's ranking heap, its sorted copy and the
        // result vector), and 5 of slack. `LBk` in per-query tree nodes
        // made 27; one allocation per rasterised segment or visited cell —
        // the state the dense scratch tables replaced — would add
        // hundreds, long before wall-clock shows it.
        assert!(
            warm_max <= 8,
            "warm query allocation count {warm_max} exceeds the regression ceiling"
        );
        let peaks = &out.telemetry.query_alloc_peaks;
        assert!(
            peaks[1..].iter().all(|&p| p <= peaks[0].max(1)),
            "warm peak exceeded cold peak: {peaks:?}"
        );
    }

    #[test]
    fn empty_latency_quantiles_are_none() {
        let t = EngineTelemetry::default();
        assert_eq!(t.latency_quantile(0.50), None);
        let parsed = soi_obs::json::parse(&t.to_json()).expect("parses");
        assert!(matches!(
            parsed.get("latency").and_then(|l| l.get("p50_ms")),
            Some(soi_obs::json::Json::Null)
        ));
    }

    #[test]
    fn stats_aggregate_counters() {
        let (dataset, index) = fixture();
        let queries = queries(&dataset);
        let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
        let batch = QueryEngine::new(1).run_soi_batch(&ctx, &queries);
        let summed: usize = batch
            .results
            .iter()
            .map(|r| r.as_ref().expect("valid").stats.accesses)
            .sum();
        assert_eq!(batch.stats.accesses, summed);
        assert!(batch.stats.wall_time > Duration::ZERO);
    }

    #[test]
    fn delta_view_matches_folded_rebuild_with_identical_work_counters() {
        // The tentpole invariant end to end: a batch pinned to a
        // base+delta epoch must answer every query — results AND work
        // counters — bit-identically to a batch over the folded rebuild,
        // at every worker count. Equal counters mean the view's UB/LBk
        // bounds drove the exact same pruning decisions.
        let (dataset, index) = fixture();
        let queries = queries(&dataset);

        // A delta stream: inserts at existing POI positions (inside the
        // grid extent) using queried keywords, plus a few deletes.
        let shop = dataset.query_keywords(&["shop", "cafe"]);
        let mut ops = Vec::new();
        for i in 0..30usize {
            let pos = dataset
                .pois
                .get(soi_common::PoiId::from_index(i * 7 % dataset.pois.len()))
                .pos;
            ops.push(soi_index::DeltaOp::AddPoi {
                pos,
                keywords: shop.clone(),
                weight: 1.0 + (i % 3) as f64,
            });
        }
        for i in 0..10usize {
            ops.push(soi_index::DeltaOp::DeletePoi {
                id: soi_common::PoiId::from_index(i * 13),
            });
        }
        let delta =
            DeltaIndex::seal(&index, &dataset.pois, &dataset.photos, &ops).expect("valid ops");
        let (folded_pois, _) =
            soi_index::fold_ops(&dataset.pois, &dataset.photos, &ops).expect("valid ops");
        let rebuilt = PoiIndex::build(&dataset.network, &folded_pois, 0.001);

        let ctx_delta = Arc::new(QueryContext::with_delta(
            &dataset.network,
            &dataset.pois,
            &index,
            Some(&delta),
            1,
        ));
        let ctx_fold = Arc::new(QueryContext::new(&dataset.network, &folded_pois, &rebuilt));
        for workers in [1usize, 2, 8] {
            let engine = QueryEngine::new(workers);
            let via_view = engine.run_soi_batch(&ctx_delta, &queries);
            let via_fold = engine.run_soi_batch(&ctx_fold, &queries);
            assert_eq!(via_view.stats.errors, 0);
            for (got, want) in via_view.results.iter().zip(&via_fold.results) {
                let got = got.as_ref().expect("valid");
                let want = want.as_ref().expect("valid");
                assert_eq!(got.results.len(), want.results.len());
                for (g, w) in got.results.iter().zip(&want.results) {
                    assert_eq!(g.street, w.street);
                    assert_eq!(g.interest.to_bits(), w.interest.to_bits());
                    assert_eq!(g.best_segment, w.best_segment);
                    assert_eq!(g.best_segment_mass.to_bits(), w.best_segment_mass.to_bits());
                }
                assert_eq!(got.stats.accesses, want.stats.accesses, "w{workers}");
                assert_eq!(
                    got.stats.cells_popped, want.stats.cells_popped,
                    "w{workers}"
                );
                assert_eq!(
                    got.stats.segments_popped, want.stats.segments_popped,
                    "w{workers}"
                );
                assert_eq!(got.stats.cell_visits, want.stats.cell_visits, "w{workers}");
                assert_eq!(
                    got.stats.segments_seen, want.stats.segments_seen,
                    "w{workers}"
                );
                assert_eq!(
                    got.stats.segments_bounded_out, want.stats.segments_bounded_out,
                    "w{workers}"
                );
                assert_eq!(
                    got.stats.segments_finalized(),
                    want.stats.segments_finalized(),
                    "w{workers}"
                );
            }
            // Telemetry surfaces the pinned epoch and delta sizes.
            assert_eq!(via_view.telemetry.epoch, 1);
            assert_eq!(via_view.telemetry.delta_added_pois, 30);
            assert_eq!(via_view.telemetry.delta_deleted_pois, 10);
            assert_eq!(via_fold.telemetry.epoch, 0);
            assert_eq!(via_fold.telemetry.delta_ops, 0);
        }
    }
}
