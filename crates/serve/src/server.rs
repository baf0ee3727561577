//! The serving loop: accept → bounded HTTP parse → admission queue →
//! engine worker → response.
//!
//! ### Thread topology
//!
//! ```text
//! accept loop (caller thread, blocking; a waker thread connects to the
//!   │          listener once the shutdown flag flips)
//!   └─> bounded connection queue ──> IO workers (parse, route, respond)
//!                                       ├─ /metrics /status
//!                                       │  /debug/requests: inline
//!                                       └─ /soi /describe:
//!                                          admission queue
//!                                            └─> engine workers (--threads,
//!                                                  alive for the whole run)
//!                                                  each pops ONE job, pins
//!                                                  the epoch, runs it on its
//!                                                  own EngineWorker scratch
//!                                                  under the job's deadline,
//!                                                  publishes via Slot
//! ```
//!
//! No thread is spawned and no barrier is crossed per request: a job waits
//! only for *a* worker to come free, never for the slowest job of a batch.
//! `/describe` reads its street's context from the pinned epoch's table;
//! the first job on a street in an epoch builds it, inside that engine job.
//!
//! ### Overload semantics
//!
//! Every stage is bounded. A full connection queue or admission queue sheds
//! with an immediate 503 (`soi_serve_shed_total`); malformed, oversized, or
//! slow requests are rejected at the HTTP edge in bounded time
//! (`soi_serve_rejected_total`); accepted queries carry a
//! [`QueryBudget`](soi_core::QueryBudget) deadline into the algorithms and
//! degrade to anytime *partial* results instead of missing their latency
//! target.
//!
//! ### Request-scoped observability
//!
//! Every request that parses is assigned a monotonic id, returned in the
//! `x-soi-request-id` header and stamped into trace events emitted while
//! it runs. `/soi` and `/describe` bodies may set `"trace": true` /
//! `"explain": true` to capture a request-scoped Chrome trace or explain
//! report — captured into a private per-request buffer (concurrent
//! untraced requests pay nothing), embedded in the response, and retained
//! in the recent-requests ring behind `GET /debug/requests/<id>`.
//! `trace_sample` additionally captures every Nth query into the ring
//! without embedding. Requests slower than `slow_query` emit a structured
//! `serve.slow_query` log line and count
//! `soi_serve_slow_queries_total`.
//!
//! ### Drain
//!
//! When the shutdown flag flips (SIGTERM/SIGINT or programmatic), the
//! waker's connect returns the accept loop from `accept` and it stops,
//! in-flight connections finish, the admission queue is closed, the engine
//! workers run what is still queued (under each job's deadline) and exit
//! once it is empty, and [`serve`] returns a final [`ServeReport`].

//!
//! ### Files
//!
//! This file boots the server: configuration, the serving state and
//! [`serve`]. The stages live beside it, in `server/`: `io` (accept, IO
//! workers, admission), `routes` (routing and request parsing), `worker`
//! (the engine workers and response rendering), `ingest` (`POST /ingest`
//! and the fold) and `debug` (`/status` and `/debug/requests`).

mod debug;
mod ingest;
mod io;
mod routes;
mod worker;

use crate::journal::Journal;
use crate::queue::{AdmissionQueue, BoundedQueue};
use crate::ring::RequestRing;
use soi_common::{Result, SoiError};
use soi_core::describe::{ContextBuilder, StreetContexts};
use soi_data::Dataset;
use soi_engine::QueryEngine;
use soi_index::{DeltaIndex, EpochedIndex, IndexCache, PhotoGrid, PoiIndex};
use soi_obs::json::JsonWriter;
use soi_obs::log::{self, Value};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serving configuration (every knob has a production-shaped default).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Engine worker threads (0 = resolve automatically).
    pub engine_threads: usize,
    /// IO worker threads parsing requests and writing responses.
    pub io_threads: usize,
    /// Admission-queue capacity; pushes beyond it shed with 503.
    pub queue_capacity: usize,
    /// Deadline applied to queries that do not send `deadline_ms`.
    pub default_deadline: Duration,
    /// Upper cap on client-supplied deadlines.
    pub max_deadline: Duration,
    /// Socket read/write timeout (slow-loris bound).
    pub socket_timeout: Duration,
    /// Max accepted request body size.
    pub max_body_bytes: usize,
    /// Query ε default (also sizes the index grids).
    pub eps: f64,
    /// Describe neighbourhood radius ρ.
    pub rho: f64,
    /// When set, startup loads the index bundle from this snapshot cache
    /// directory (building and persisting it on a miss) instead of always
    /// rebuilding, turning cold start into I/O time.
    pub index_cache: Option<std::path::PathBuf>,
    /// Fail startup on a corrupt cached snapshot instead of transparently
    /// rebuilding it.
    pub index_cache_strict: bool,
    /// Capture a request-scoped trace for one in every N queued queries
    /// into the recent-requests ring (0 = off). Sampled traces are not
    /// embedded in responses — only `"trace": true` embeds.
    pub trace_sample: u64,
    /// Log and count requests slower than this threshold (`None` = off).
    pub slow_query: Option<Duration>,
    /// Recent-requests ring capacity.
    pub ring_capacity: usize,
    /// Fold (compact) the pending ingestion delta into a fresh base once
    /// it holds this many ops (0 = never fold; deltas grow unbounded).
    pub epoch_max_delta: usize,
    /// Append accepted `POST /ingest` ops, and the fold points between
    /// them, to this JSON-lines journal. Every boot replays it: the ops are
    /// folded at the recorded fold points and the rest sealed as the live
    /// delta, whether or not `index_cache` is set.
    pub ingest_log: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            engine_threads: 0,
            io_threads: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_millis(250),
            max_deadline: Duration::from_secs(10),
            socket_timeout: Duration::from_secs(2),
            max_body_bytes: 64 * 1024,
            eps: 5e-4,
            rho: 1e-4,
            index_cache: None,
            index_cache_strict: false,
            trace_sample: 0,
            slow_query: None,
            ring_capacity: 256,
            epoch_max_delta: 4096,
            ingest_log: None,
        }
    }
}

/// Final counters of one [`serve`] run (written by `--stats-json`).
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// TCP connections accepted.
    pub connections: u64,
    /// Requests that parsed successfully.
    pub requests: u64,
    /// Requests shed by admission control (503).
    pub sheds: u64,
    /// Connections rejected at the HTTP edge.
    pub rejected: u64,
    /// Queries that returned partial (deadline-expired) results.
    pub partials: u64,
    /// Query evaluations that returned an error response.
    pub errors: u64,
    /// Worker panics caught by the isolation guard.
    pub panics: u64,
    /// True when the server drained cleanly on shutdown.
    pub drained: bool,
}

impl ServeReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonWriter::object();
        obj.field_u64("connections", self.connections);
        obj.field_u64("requests", self.requests);
        obj.field_u64("sheds", self.sheds);
        obj.field_u64("rejected", self.rejected);
        obj.field_u64("partials", self.partials);
        obj.field_u64("errors", self.errors);
        obj.field_u64("panics", self.panics);
        obj.field_bool("drained", self.drained);
        obj.finish()
    }
}

/// Run-local counters (the process-global metrics are cumulative across
/// servers in one process, so the report keeps its own).
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    sheds: AtomicU64,
    rejected: AtomicU64,
    partials: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
}

/// One immutable generation of serving state: the folded base structures
/// plus the sealed delta of pending ingestion ops. Published through
/// [`EpochedIndex`]; readers pin one epoch per request or queued job and
/// never take a lock or observe a torn swap.
struct EpochState {
    /// Monotone epoch id (0 = the boot base; +1 per ingest batch or fold).
    epoch: u64,
    /// The base dataset this epoch queries against (folded at compaction).
    dataset: Arc<Dataset>,
    index: Arc<PoiIndex>,
    photo_grid: Arc<PhotoGrid>,
    /// The ops accepted since the last fold, sealed into a query-ready
    /// overlay (`None` when there are none). Each batch extends the
    /// previous epoch's delta; a fold folds it into `dataset`.
    delta: Option<Arc<DeltaIndex>>,
    /// Accepted ops already folded into `dataset`.
    applied_ops: u64,
    /// Folds since the boot data (the journal's fold markers).
    folds: u64,
    /// `/describe`'s street contexts over this epoch's base and delta,
    /// built on first touch. A batch's epoch starts with the contexts of
    /// the previous epoch that no op of the batch can reach, which it would
    /// build bit-identically; a fold's starts empty, because its ids
    /// re-densify.
    contexts: StreetContexts,
}

impl EpochState {
    /// Pending delta op count (0 when the delta is `None`).
    fn pending(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.num_ops())
    }

    /// The builder of this epoch's street contexts.
    fn context_builder<'a>(&'a self, config: &ServeConfig) -> ContextBuilder<'a> {
        ContextBuilder::for_dataset(&self.dataset, &self.photo_grid, config.eps, config.rho)
    }
}

/// Everything the IO workers and engine workers share.
struct Shared<'a> {
    /// The epoch-swapped serving state (dataset + indexes + delta).
    epochs: EpochedIndex<EpochState>,
    /// Serialises ingest writers (readers never take it), and holds the
    /// fold snapshot of the current base: the file the next fold supersedes.
    ingest_lock: Mutex<Option<PathBuf>>,
    /// Index build parameters (fold-time rebuilds must match startup).
    params: soi_index::BundleParams,
    /// Where folds file their bundles (set when both `index_cache` and
    /// `ingest_log` are configured: only the journal can replay a fold).
    fold_cache: Option<IndexCache>,
    /// The resolved engine worker count.
    engine_threads: usize,
    queue: AdmissionQueue,
    config: &'a ServeConfig,
    counters: Counters,
    ring: RequestRing,
    next_request_id: AtomicU64,
    trace_tick: AtomicU64,
    shutdown: &'a AtomicBool,
    started: Instant,
}

/// Runs the server until `shutdown` flips, then drains and reports.
///
/// `on_ready` receives the bound address once the listener is live (so
/// callers binding port 0 learn the real port before traffic starts).
///
/// # Errors
/// Setup failures only (bind, index build); per-request failures are
/// answered over HTTP and never abort the server.
pub fn serve(
    dataset: &Dataset,
    config: &ServeConfig,
    shutdown: &AtomicBool,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<ServeReport> {
    crate::obs::register_metrics();
    soi_engine::obs::register_metrics();
    // Pins the process epoch and registers uptime/build-info/dropped-event
    // series before the first scrape.
    soi_obs::metrics::publish_process_metrics(env!("CARGO_PKG_VERSION"));

    let cell = 2.0 * config.eps;
    let params = soi_index::BundleParams {
        poi_cell: cell,
        pg_cell: cell,
        eps: None,
        with_ir: false,
        threads: config.engine_threads,
    };
    params.check(dataset, ["--eps", "--eps"])?;
    let index_started = Instant::now();
    let cache_mode = if config.index_cache_strict {
        soi_index::CacheMode::Strict
    } else {
        soi_index::CacheMode::Lenient
    };
    let cache = config
        .index_cache
        .as_ref()
        .map(|dir| IndexCache::new(dir.clone(), cache_mode));
    // Every boot replays the journal the same way: fold its ops at its
    // fold markers, take the folded data's bundle from the cache (or build
    // it), and seal the ops after the last marker as the boot epoch's delta.
    let journal = Journal::read(config.ingest_log.as_deref(), &dataset.vocab)?;
    let base = journal.fold(dataset)?;
    let bundle = match &cache {
        None => soi_index::build_bundle(&base, &params),
        Some(cache) => {
            let (bundle, outcome) = cache.load_or_build(&base, &params)?;
            log::event(
                "serve.index_cache",
                outcome.message(),
                &[
                    ("dir", Value::Str(&cache.dir().display().to_string())),
                    ("applied_ops", Value::U64(journal.applied() as u64)),
                    (
                        "ms",
                        Value::F64(index_started.elapsed().as_secs_f64() * 1e3),
                    ),
                ],
            );
            bundle
        }
    };
    let index = Arc::new(bundle.poi);
    let photo_grid = Arc::new(bundle.photo_grid);
    let delta = journal.seal_pending(&index, &base)?.map(Arc::new);

    // Folds file their bundles only where the journal can replay them. The
    // first fold supersedes the fold snapshot this boot loaded, if any; the
    // boot data's own snapshot is never superseded.
    let fold_cache = cache.filter(|_| config.ingest_log.is_some());
    let fold_snapshot = fold_cache
        .as_ref()
        .filter(|_| journal.folds() > 0)
        .map(|cache| cache.snapshot_path(&base, &params));
    let (applied_ops, folds) = (journal.applied() as u64, journal.folds() as u64);
    let state = EpochState {
        epoch: folds + u64::from(delta.is_some()),
        contexts: StreetContexts::new(base.network.num_streets()),
        dataset: Arc::new(base),
        index,
        photo_grid,
        delta,
        applied_ops,
        folds,
    };
    {
        let metrics = crate::obs::serve_metrics();
        metrics.ingest_epoch.set(state.epoch as f64);
        metrics.ingest_pending.set(state.pending() as f64);
    }
    let engine_threads = QueryEngine::new(config.engine_threads).threads();

    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| SoiError::io(e, &config.addr).with_context("binding the serve listener"))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| SoiError::io(e, &config.addr))?;

    let conns = BoundedQueue::new(config.io_threads.max(1) * 2);
    let shared = Shared {
        epochs: EpochedIndex::new(state),
        ingest_lock: Mutex::new(fold_snapshot),
        params,
        fold_cache,
        engine_threads,
        queue: AdmissionQueue::new(config.queue_capacity)
            .with_depth_gauge(crate::obs::serve_metrics().queue_depth),
        config,
        counters: Counters::default(),
        ring: RequestRing::new(config.ring_capacity),
        next_request_id: AtomicU64::new(0),
        trace_tick: AtomicU64::new(0),
        shutdown,
        started: Instant::now(),
    };

    log::event(
        "serve.ready",
        "listening",
        &[
            ("addr", Value::Str(&local_addr.to_string())),
            ("queue_capacity", Value::U64(config.queue_capacity as u64)),
            ("io_threads", Value::U64(config.io_threads as u64)),
            ("engine_threads", Value::U64(engine_threads as u64)),
            ("trace_sample", Value::U64(config.trace_sample)),
            ("ring_capacity", Value::U64(config.ring_capacity as u64)),
        ],
    );
    on_ready(local_addr);

    let accepting = AtomicBool::new(true);
    let run = crossbeam::thread::scope(|s| {
        let engine_workers: Vec<_> = (0..engine_threads)
            .map(|_| {
                s.spawn(|_| {
                    let (queue, counters) = (&shared.queue, &shared.counters);
                    worker::engine_worker_loop(queue, counters, |worker, job, queue_wait| {
                        worker::run_job(&shared, worker, job, queue_wait)
                    })
                })
            })
            .collect();
        let io_workers: Vec<_> = (0..config.io_threads.max(1))
            .map(|_| s.spawn(|_| io::io_worker_loop(&shared, &conns)))
            .collect();
        let waker = s.spawn(|_| io::wake_accept_on_shutdown(shutdown, &accepting, local_addr));

        io::accept_loop(&listener, &conns, &shared);
        accepting.store(false, Ordering::SeqCst);

        // Drain: no new connections; finish in-flight ones; then close the
        // admission queue so the engine workers run the backlog and exit.
        conns.close();
        for worker in io_workers {
            let _ = worker.join();
        }
        shared.queue.close();
        for worker in engine_workers {
            let _ = worker.join();
        }
        let _ = waker.join();
    });
    if run.is_err() {
        // A scope-level panic still produces a report; the panic counter
        // records that something escaped the per-request guards.
        crate::obs::serve_metrics().panics.inc();
        shared.counters.panics.fetch_add(1, Ordering::Relaxed);
    }

    let counters = &shared.counters;
    let report = ServeReport {
        connections: counters.connections.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        sheds: counters.sheds.load(Ordering::Relaxed),
        rejected: counters.rejected.load(Ordering::Relaxed),
        partials: counters.partials.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
        panics: counters.panics.load(Ordering::Relaxed),
        drained: shared.queue.is_drained() && run.is_ok(),
    };
    log::event(
        "serve.drained",
        "server drained",
        &[
            ("requests", Value::U64(report.requests)),
            ("sheds", Value::U64(report.sheds)),
            ("rejected", Value::U64(report.rejected)),
            ("partials", Value::U64(report.partials)),
            ("panics", Value::U64(report.panics)),
        ],
    );
    Ok(report)
}
