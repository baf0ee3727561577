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
//!                                       └─ /soi /describe /explain:
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
//! only for *a* worker to come free, never for the slowest job of a batch,
//! and `/describe` rebuilds its worker's street context in place, inside
//! the engine job.
//!
//! ### Overload semantics
//!
//! Every stage is bounded. A full connection queue or admission queue sheds
//! with an immediate 503 (`soi_serve_shed_total`); malformed, oversized, or
//! slow requests are rejected at the HTTP edge in bounded time
//! (`soi_serve_rejected_total`); accepted queries carry a
//! [`QueryBudget`] deadline into the algorithms and degrade to anytime
//! *partial* results instead of missing their latency target.
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

use crate::http::{self, Limits};
use crate::queue::{AdmissionQueue, Job, JobKind, Slot, SlotMeta};
use crate::ring::{RequestRecord, RequestRing};
use soi_common::{ErrorCategory, Result, SoiError};
use soi_core::describe::{ContextBuilder, DescribeOutcome, DescribeParams, PhiSource};
use soi_core::soi::{SoiOutcome, SoiQuery};
use soi_core::QueryBudget;
use soi_data::Dataset;
use soi_engine::{EngineWorker, JobRun, QueryCapture, QueryContext, QueryEngine};
use soi_index::{DeltaIndex, DeltaOp, EpochedIndex, Fnv64, IndexBundle, PhotoGrid, PoiIndex};
use soi_obs::json::{Json, JsonWriter};
use soi_obs::log::{self, Value};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Append accepted `POST /ingest` ops to this JSON-lines log. At
    /// startup the log is replayed: with `index_cache` set, only lines
    /// newer than the persisted base are re-sealed as the live delta.
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

/// A bounded handoff queue of accepted connections.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    cv: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<TcpStream>, bool)> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Hands the stream back when the backlog is full (edge shedding).
    fn try_push(&self, stream: TcpStream) -> std::result::Result<(), TcpStream> {
        let mut state = self.lock();
        if state.1 || state.0.len() >= self.capacity {
            return Err(stream);
        }
        state.0.push_back(stream);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    fn pop(&self, timeout: Duration) -> Option<TcpStream> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.0.pop_front() {
                return Some(stream);
            }
            if state.1 {
                return None;
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            state = match self.cv.wait_timeout(state, remaining) {
                Ok((next, _)) => next,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    fn close(&self) {
        self.lock().1 = true;
        self.cv.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.lock().1
    }
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
    /// Pending ops sealed into a query-ready overlay (`None` when fresh).
    delta: Option<Arc<DeltaIndex>>,
    /// The parsed pending ops; each ingest batch re-seals cumulatively.
    pending_ops: Vec<DeltaOp>,
    /// Raw accepted lines of the pending ops (fold fingerprinting).
    pending_lines: Vec<String>,
    /// Ops-log lines already folded into `dataset`.
    applied_ops: u64,
    /// Fold boundaries within the applied prefix (persisted so a restart
    /// replays the exact same batch splits — fold id-reassignment makes
    /// boundaries semantic, not just bookkeeping).
    boundaries: Vec<u64>,
    /// Running [`soi_index::ops_hasher`] state over the applied prefix;
    /// extended at each fold so no applied line needs retaining.
    applied_hasher: Fnv64,
}

impl EpochState {
    /// Pending delta op count (0 when the delta is `None`).
    fn pending(&self) -> usize {
        self.pending_ops.len()
    }
}

/// Everything the IO workers and engine workers share.
struct Shared<'a> {
    /// The epoch-swapped serving state (dataset + indexes + delta).
    epochs: &'a EpochedIndex<EpochState>,
    /// Serialises ingest writers; readers never take it.
    ingest_lock: &'a Mutex<()>,
    /// Index build parameters (fold-time rebuilds must match startup).
    params: soi_index::BundleParams,
    /// Where fold-time compaction persists the live snapshot (set when
    /// both `index_cache` and `ingest_log` are configured).
    live_snapshot: Option<std::path::PathBuf>,
    /// The resolved engine worker count.
    engine_threads: usize,
    queue: &'a AdmissionQueue,
    config: &'a ServeConfig,
    counters: &'a Counters,
    ring: &'a RequestRing,
    next_request_id: &'a AtomicU64,
    trace_tick: &'a AtomicU64,
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
    // Replay the ingest log (accepted ops from earlier runs). With a
    // snapshot cache the persisted base records how many leading lines it
    // already folded (and at which boundaries); only the newer tail is
    // re-sealed as the live delta. Without a cache the whole log becomes
    // one pending delta over the raw dataset.
    let log_lines: Vec<String> = match &config.ingest_log {
        Some(path) if path.exists() => std::fs::read_to_string(path)
            .map_err(|e| SoiError::io(e, path.clone()).with_context("reading the ingest log"))?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect(),
        _ => Vec::new(),
    };
    let mut applied_ops = 0u64;
    let mut boundaries: Vec<u64> = Vec::new();
    let (base_dataset, bundle) = match &config.index_cache {
        None => (dataset.clone(), soi_index::build_bundle(dataset, &params)),
        Some(dir) => {
            let cache = soi_index::IndexCache::new(dir.clone(), cache_mode);
            let (folded, bundle, outcome) = if config.ingest_log.is_some() {
                let load = cache.load_or_build_ingested(dataset, &params, &log_lines)?;
                applied_ops = load.meta.applied_ops;
                boundaries = load.meta.boundaries;
                (load.dataset, load.bundle, load.outcome)
            } else {
                let (bundle, outcome) = cache.load_or_build(dataset, &params)?;
                (dataset.clone(), bundle, outcome)
            };
            log::event(
                "serve.index_cache",
                match outcome {
                    soi_index::CacheOutcome::Hit => "index bundle loaded from snapshot cache",
                    soi_index::CacheOutcome::MissBuilt => "index bundle built and cached",
                    soi_index::CacheOutcome::RebuiltCorrupt => {
                        "corrupt snapshot discarded; index bundle rebuilt"
                    }
                },
                &[
                    ("dir", Value::Str(&dir.display().to_string())),
                    ("applied_ops", Value::U64(applied_ops)),
                    (
                        "ms",
                        Value::F64(index_started.elapsed().as_secs_f64() * 1e3),
                    ),
                ],
            );
            (folded, bundle)
        }
    };
    let index = Arc::new(bundle.poi);
    let photo_grid = Arc::new(bundle.photo_grid);

    // Seal the unapplied log tail as the live delta of the boot epoch.
    let tail = &log_lines[applied_ops as usize..];
    let mut pending_ops = Vec::with_capacity(tail.len());
    for (i, line) in tail.iter().enumerate() {
        let op = DeltaOp::parse_line(line, &base_dataset.vocab).map_err(|e| {
            SoiError::invalid(format!(
                "ingest log line {}: {e}",
                applied_ops as usize + i + 1
            ))
        })?;
        pending_ops.push(op);
    }
    let delta = match pending_ops.is_empty() {
        true => None,
        false => Some(Arc::new(
            DeltaIndex::seal(
                &index,
                &base_dataset.pois,
                &base_dataset.photos,
                &pending_ops,
            )
            .map_err(|e| e.with_context("sealing the ingest-log tail"))?,
        )),
    };
    let applied_hasher = soi_index::ops_hasher(&log_lines[..applied_ops as usize]);
    let state = EpochState {
        epoch: boundaries.len() as u64 + u64::from(delta.is_some()),
        dataset: Arc::new(base_dataset),
        index,
        photo_grid,
        delta,
        pending_ops,
        pending_lines: tail.to_vec(),
        applied_ops,
        boundaries,
        applied_hasher,
    };
    {
        let metrics = crate::obs::serve_metrics();
        metrics.ingest_epoch.set(state.epoch as f64);
        metrics.ingest_pending.set(state.pending() as f64);
    }
    let epochs = EpochedIndex::new(state);
    let ingest_lock = Mutex::new(());
    let live_snapshot = match (&config.index_cache, &config.ingest_log) {
        (Some(dir), Some(_)) => Some(
            soi_index::IndexCache::new(dir.clone(), cache_mode)
                .live_snapshot_path(dataset, &params),
        ),
        _ => None,
    };
    let engine_threads = QueryEngine::new(config.engine_threads).threads();

    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| SoiError::io(e, &config.addr).with_context("binding the serve listener"))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| SoiError::io(e, &config.addr))?;

    let queue = AdmissionQueue::new(config.queue_capacity);
    let conns = ConnQueue::new(config.io_threads.max(1) * 2);
    let counters = Counters::default();
    let ring = RequestRing::new(config.ring_capacity);
    let next_request_id = AtomicU64::new(0);
    let trace_tick = AtomicU64::new(0);
    let shared = Shared {
        epochs: &epochs,
        ingest_lock: &ingest_lock,
        params,
        live_snapshot,
        engine_threads,
        queue: &queue,
        config,
        counters: &counters,
        ring: &ring,
        next_request_id: &next_request_id,
        trace_tick: &trace_tick,
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
                    engine_worker_loop(&queue, &counters, |worker, job, queue_wait| {
                        run_job(&shared, worker, job, queue_wait)
                    })
                })
            })
            .collect();
        let io_workers: Vec<_> = (0..config.io_threads.max(1))
            .map(|_| s.spawn(|_| io_worker_loop(&shared, &conns)))
            .collect();
        let waker = s.spawn(|_| wake_accept_on_shutdown(shutdown, &accepting, local_addr));

        accept_loop(&listener, &conns, &shared);
        accepting.store(false, Ordering::SeqCst);

        // Drain: no new connections; finish in-flight ones; then close the
        // admission queue so the engine workers run the backlog and exit.
        conns.close();
        for worker in io_workers {
            let _ = worker.join();
        }
        queue.close();
        for worker in engine_workers {
            let _ = worker.join();
        }
        let _ = waker.join();
    });
    if run.is_err() {
        // A scope-level panic still produces a report; the panic counter
        // records that something escaped the per-request guards.
        crate::obs::serve_metrics().panics.inc();
        counters.panics.fetch_add(1, Ordering::Relaxed);
    }

    let report = ServeReport {
        connections: counters.connections.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        sheds: counters.sheds.load(Ordering::Relaxed),
        rejected: counters.rejected.load(Ordering::Relaxed),
        partials: counters.partials.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
        panics: counters.panics.load(Ordering::Relaxed),
        drained: queue.is_drained() && run.is_ok(),
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
fn accept_loop(listener: &TcpListener, conns: &ConnQueue, shared: &Shared<'_>) {
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
fn wake_accept_on_shutdown(shutdown: &AtomicBool, accepting: &AtomicBool, listener: SocketAddr) {
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
/// poisoned request can never wedge the pool.
fn io_worker_loop(shared: &Shared<'_>, conns: &ConnQueue) {
    loop {
        let Some(mut stream) = conns.pop(Duration::from_millis(50)) else {
            if conns.is_closed() {
                return;
            }
            continue;
        };
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

/// The HTTP response tuple the router produces.
type HttpTuple = (u16, &'static str, &'static str, String);

/// Per-request observability the router returns alongside the response:
/// what [`finish_request`] folds into the ring record, the windowed
/// instruments, and the slow-query check.
#[derive(Debug, Default)]
struct RequestMeta {
    endpoint: &'static str,
    params: String,
    queue: Duration,
    exec: Duration,
    partial: bool,
    shed: bool,
    error: bool,
    accesses: u64,
    /// The serving epoch the request executed against (0 when the
    /// request never touched query state).
    epoch: u64,
    trace_json: Option<String>,
    explain_json: Option<String>,
}

fn meta_for(endpoint: &'static str) -> RequestMeta {
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
    let error = meta.error || (status >= 400 && !meta.shed);
    if meta.shed {
        metrics.shed_window.inc();
    }
    if error {
        metrics.errors_window.inc();
    }
    if meta.partial {
        metrics.partials_window.inc();
    }
    let total_ms = total.as_secs_f64() * 1e3;
    let queue_ms = meta.queue.as_secs_f64() * 1e3;
    let exec_ms = meta.exec.as_secs_f64() * 1e3;
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
                ("partial", Value::Bool(meta.partial)),
            ],
        );
    }
    shared.ring.push(RequestRecord {
        id: request_id,
        endpoint: meta.endpoint.to_string(),
        params: meta.params,
        status,
        queue_ms,
        exec_ms,
        total_ms,
        partial: meta.partial,
        shed: meta.shed,
        error,
        accesses: meta.accesses,
        epoch: meta.epoch,
        trace_json: meta.trace_json,
        explain_json: meta.explain_json,
    });
}

/// Routes one parsed request to its handler.
fn route(
    shared: &Shared<'_>,
    request: &crate::http::Request,
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
        ("GET", "/debug/profile") => {
            let mut meta = meta_for("/debug/profile");
            meta.params = request.query().unwrap_or("").to_string();
            (debug_profile(shared, request), meta)
        }
        ("GET", path) if path.starts_with("/debug/requests/") => (
            debug_request_by_id(shared, path),
            meta_for("/debug/requests/<id>"),
        ),
        ("GET", "/explain") => queued("/explain", submit_explain_get(shared, request, request_id)),
        ("POST", "/soi") => queued("/soi", submit_soi(shared, "/soi", request, request_id)),
        ("POST", "/explain") => queued(
            "/explain",
            submit_soi(shared, "/explain", request, request_id),
        ),
        ("POST", "/describe") => queued("/describe", submit_describe(shared, request, request_id)),
        ("POST", "/ingest") => {
            let mut meta = meta_for("/ingest");
            match ingest_post(shared, request, request_id) {
                Ok((body, params, epoch)) => {
                    meta.params = params;
                    meta.epoch = epoch;
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

/// `GET /debug/requests/<id>`: one ring record with artifacts embedded.
fn debug_request_by_id(shared: &Shared<'_>, path: &str) -> HttpTuple {
    const JSON: &str = "application/json";
    let raw = &path["/debug/requests/".len()..];
    match raw.parse::<u64>() {
        Ok(id) => match shared.ring.get(id) {
            Some(record) => (200, "OK", JSON, record.to_json(true)),
            None => (
                404,
                "Not Found",
                JSON,
                error_body(
                    "request not in the ring (evicted or never seen)",
                    "not-found",
                ),
            ),
        },
        Err(_) => (
            400,
            "Bad Request",
            JSON,
            error_body("request id must be an integer", "usage"),
        ),
    }
}

/// `GET /debug/requests[?limit=N][&endpoint=soi|describe|explain]`: the
/// ring listing, optionally truncated and/or filtered by endpoint.
fn debug_requests_list(shared: &Shared<'_>, request: &crate::http::Request) -> HttpTuple {
    const JSON: &str = "application/json";
    let mut limit: Option<usize> = None;
    let mut endpoint: Option<&'static str> = None;
    for pair in request
        .query()
        .unwrap_or("")
        .split('&')
        .filter(|p| !p.is_empty())
    {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = Some(n),
                Err(_) => {
                    return (
                        400,
                        "Bad Request",
                        JSON,
                        error_body("limit must be a non-negative integer", "usage"),
                    );
                }
            },
            "endpoint" => {
                // Short names map onto the endpoint strings the ring
                // records (`/explain` covers both GET and POST forms).
                endpoint = match value {
                    "soi" => Some("/soi"),
                    "describe" => Some("/describe"),
                    "explain" => Some("/explain"),
                    _ => {
                        return (
                            400,
                            "Bad Request",
                            JSON,
                            error_body("endpoint must be soi, describe, or explain", "usage"),
                        );
                    }
                };
            }
            other => {
                return (
                    400,
                    "Bad Request",
                    JSON,
                    error_body(&format!("unknown parameter {other:?}"), "usage"),
                );
            }
        }
    }
    (200, "OK", JSON, shared.ring.list_json(limit, endpoint))
}

/// `GET /debug/profile?seconds=N[&hz=R][&format=folded|svg|json]`: profiles
/// a live window under traffic and returns the artifact. One window at a
/// time process-wide — an overlapping request answers 503. The window
/// blocks this IO worker only; traffic keeps flowing on the others.
fn debug_profile(shared: &Shared<'_>, request: &crate::http::Request) -> HttpTuple {
    const JSON: &str = "application/json";
    let mut seconds = 5u64;
    let mut hz = soi_obs::profile::DEFAULT_HZ;
    let mut format: Option<&str> = None;
    for pair in request
        .query()
        .unwrap_or("")
        .split('&')
        .filter(|p| !p.is_empty())
    {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "seconds" => match value.parse::<u64>() {
                Ok(n) if (1..=60).contains(&n) => seconds = n,
                _ => {
                    return (
                        400,
                        "Bad Request",
                        JSON,
                        error_body("seconds must be an integer in [1, 60]", "usage"),
                    );
                }
            },
            "hz" => match value.parse::<u32>() {
                Ok(n) => hz = n,
                Err(_) => {
                    return (
                        400,
                        "Bad Request",
                        JSON,
                        error_body("hz must be a positive integer", "usage"),
                    );
                }
            },
            "format" => match value {
                "folded" | "svg" | "json" => format = Some(value),
                _ => {
                    return (
                        400,
                        "Bad Request",
                        JSON,
                        error_body("format must be folded, svg, or json", "usage"),
                    );
                }
            },
            other => {
                return (
                    400,
                    "Bad Request",
                    JSON,
                    error_body(&format!("unknown parameter {other:?}"), "usage"),
                );
            }
        }
    }
    // Format by explicit param first, `Accept` second, folded text last.
    let format = format.unwrap_or_else(|| {
        let accept = request.header("accept").unwrap_or("");
        if accept.contains("image/svg") {
            "svg"
        } else if accept.contains("application/json") {
            "json"
        } else {
            "folded"
        }
    });
    match soi_obs::profile::start(hz) {
        Ok(()) => {}
        Err(soi_obs::profile::StartError::AlreadyRunning) => {
            return (
                503,
                "Service Unavailable",
                JSON,
                error_body(
                    "a profiling window is already running; retry when it finishes",
                    "overload",
                ),
            );
        }
        Err(e) => {
            return (
                400,
                "Bad Request",
                JSON,
                error_body(&e.to_string(), "usage"),
            );
        }
    }
    // Shutdown still drains promptly: sleep in slices and cut the window
    // short when the drain flag flips.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline && !shared.shutdown.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(Duration::from_millis(100)));
    }
    let Some(report) = soi_obs::profile::stop() else {
        // Somebody else stopped the session mid-window (e.g. shutdown).
        return (
            503,
            "Service Unavailable",
            JSON,
            error_body("profiling window was interrupted", "overload"),
        );
    };
    match format {
        "svg" => (200, "OK", "image/svg+xml", report.flamegraph_svg()),
        "json" => (200, "OK", JSON, report.to_json()),
        _ => (200, "OK", "text/plain; charset=utf-8", report.folded_text()),
    }
}

/// Maps a [`SoiError`] to an HTTP response tuple.
fn error_tuple(e: &SoiError) -> HttpTuple {
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

fn error_body(message: &str, category: &str) -> String {
    let mut obj = JsonWriter::object();
    obj.field_str("error", message);
    obj.field_str("category", category);
    obj.finish()
}

fn status_body(shared: &Shared<'_>) -> String {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let metrics = crate::obs::serve_metrics();
    let state = shared.epochs.pin();
    let mut obj = JsonWriter::object();
    obj.field_str("status", if draining { "draining" } else { "serving" });
    obj.field_str("dataset", &state.dataset.name);
    // The live-ingestion epoch: monotone across ingest batches and folds.
    let mut epoch = JsonWriter::object();
    epoch.field_u64("id", state.epoch);
    epoch.field_u64("pending_ops", state.pending() as u64);
    epoch.field_u64("applied_ops", state.applied_ops);
    epoch.field_u64("folds", state.boundaries.len() as u64);
    if let Some(delta) = &state.delta {
        epoch.field_u64("delta_added_pois", delta.added_pois().len() as u64);
        epoch.field_u64("delta_added_photos", delta.added_photos().len() as u64);
        epoch.field_u64("delta_deleted_pois", delta.num_deleted_pois() as u64);
        epoch.field_u64("delta_deleted_photos", delta.num_deleted_photos() as u64);
    }
    obj.field_raw("epoch", &epoch.finish());
    obj.field_u64("queue_depth", shared.queue.depth() as u64);
    obj.field_u64("queue_capacity", shared.queue.capacity() as u64);
    obj.field_u64("engine_threads", shared.engine_threads as u64);
    obj.field_u64("requests", shared.counters.requests.load(Ordering::Relaxed));
    obj.field_u64("sheds", shared.counters.sheds.load(Ordering::Relaxed));
    obj.field_u64("partials", shared.counters.partials.load(Ordering::Relaxed));
    obj.field_f64("uptime_seconds", shared.started.elapsed().as_secs_f64());
    // The rolling-window SLO summary (what is happening *now*, as opposed
    // to the cumulative counters above).
    let mut window = JsonWriter::object();
    window.field_u64("window_seconds", metrics.latency_window.window_secs());
    window.field_u64("requests", metrics.requests_window.sum());
    window.field_u64("sheds", metrics.shed_window.sum());
    window.field_u64("errors", metrics.errors_window.sum());
    window.field_u64("partials", metrics.partials_window.sum());
    let snap = metrics.latency_window.snapshot();
    for (key, q) in [
        ("latency_p50_ms", 0.5),
        ("latency_p95_ms", 0.95),
        ("latency_p99_ms", 0.99),
    ] {
        match snap.quantile(q) {
            Some(v) => window.field_f64(key, v * 1e3),
            None => window.field_raw(key, "null"),
        }
    }
    obj.field_raw("window", &window.finish());
    // The most recent profiling window (if any): top self-time frames, so
    // /status answers "where does time go" without re-profiling.
    obj.field_bool("profiling", soi_obs::profile::active());
    if let Some(report) = soi_obs::profile::last_report() {
        let mut prof = JsonWriter::object();
        prof.field_u64("hz", u64::from(report.hz));
        prof.field_f64("duration_secs", report.duration_secs);
        prof.field_u64("samples", report.samples);
        prof.field_u64("idle_samples", report.idle_samples);
        prof.field_u64("dropped_samples", report.dropped_samples);
        let mut top = JsonWriter::array();
        for frame in report.frames.iter().take(5) {
            let mut row = JsonWriter::object();
            row.field_str("name", &frame.name);
            row.field_u64("self_samples", frame.self_samples);
            row.field_u64("total_samples", frame.total_samples);
            row.field_f64("self_secs", report.samples_to_secs(frame.self_samples));
            top.elem_raw(&row.finish());
        }
        prof.field_raw("top_self", &top.finish());
        obj.field_raw("profile", &prof.finish());
    }
    obj.finish()
}

impl ServeConfig {
    /// Parses `keywords=a,b&k=10&eps=0.0005` into a validated query.
    fn parse_query_string(&self, dataset: &Dataset, raw: &str) -> Result<SoiQuery> {
        let mut keywords = None;
        let mut k = 10usize;
        let mut eps = self.eps;
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
            match name {
                "keywords" => keywords = Some(value.to_string()),
                "k" => {
                    k = value
                        .parse()
                        .map_err(|_| SoiError::invalid(format!("bad k {value:?}")))?;
                }
                "eps" => {
                    eps = value
                        .parse()
                        .map_err(|_| SoiError::invalid(format!("bad eps {value:?}")))?;
                }
                other => {
                    return Err(SoiError::invalid(format!("unknown parameter {other:?}")));
                }
            }
        }
        let raw_kws = keywords.ok_or_else(|| SoiError::invalid("missing keywords= parameter"))?;
        let words: Vec<&str> = raw_kws
            .split(',')
            .map(str::trim)
            .filter(|w| !w.is_empty())
            .collect();
        if words.is_empty() {
            return Err(SoiError::invalid("keywords= names no keywords"));
        }
        SoiQuery::new(dataset.query_keywords(&words), k, eps)
    }
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

/// Parses the `/soi` (and `POST /explain`) JSON body into a validated
/// query plus a short human-readable parameter digest for the ring.
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

/// `GET /explain?keywords=a,b&k=10&eps=0.0005`: the query-string form of
/// `POST /explain`, under the server's default deadline.
fn submit_explain_get(
    shared: &Shared<'_>,
    request: &crate::http::Request,
    request_id: u64,
) -> Result<(HttpTuple, RequestMeta)> {
    let raw = request.query().unwrap_or("");
    let query = {
        let state = shared.epochs.pin();
        shared.config.parse_query_string(&state.dataset, raw)?
    };
    submit_soi_query(
        shared,
        "/explain",
        query,
        raw.to_string(),
        &Json::Null,
        request_id,
    )
}

/// `POST /soi` and `POST /explain`: one body schema, one parse path.
fn submit_soi(
    shared: &Shared<'_>,
    endpoint: &'static str,
    request: &crate::http::Request,
    request_id: u64,
) -> Result<(HttpTuple, RequestMeta)> {
    let body = parse_body(&request.body)?;
    let (query, params) = {
        let state = shared.epochs.pin();
        parse_soi_query(shared.config, &state.dataset, &body)?
    };
    submit_soi_query(shared, endpoint, query, params, &body, request_id)
}

/// Admits a parsed k-SOI query and waits for its response. `body` holds
/// the optional `deadline_ms` / `trace` / `explain` fields (`Json::Null`
/// for the query-string form); `/explain` is `/soi` with the explain
/// collector always on.
fn submit_soi_query(
    shared: &Shared<'_>,
    endpoint: &'static str,
    query: SoiQuery,
    params: String,
    body: &Json,
    request_id: u64,
) -> Result<(HttpTuple, RequestMeta)> {
    let submission = Submission {
        endpoint,
        params,
        kind: JobKind::Soi(query),
        budget: request_budget(shared.config, body)?,
        request_id,
        embed_trace: capture_flag(body, "trace")?,
        embed_explain: capture_flag(body, "explain")? || endpoint == "/explain",
        sampled: sampled_trace(shared),
    };
    Ok(submit_and_wait(shared, submission))
}

/// Parses the body, admits a describe job, and waits for its response.
fn submit_describe(
    shared: &Shared<'_>,
    request: &crate::http::Request,
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

/// `POST /ingest`: a JSON-lines body of delta ops, accepted or rejected
/// as one atomic batch.
///
/// Writers serialise on `ingest_lock`; readers never block — the new
/// epoch is published with an `Arc` swap and in-flight queries keep the
/// epoch they pinned. Each accepted batch re-seals the cumulative
/// pending ops into a fresh [`DeltaIndex`]; once the pending set reaches
/// `epoch_max_delta`, the delta is folded into a new base (equivalent to
/// a full rebuild over the merged data) and the fold is persisted to the
/// live snapshot when an index cache is configured.
///
/// Returns `(response body, ring params digest, epoch id)`.
fn ingest_post(
    shared: &Shared<'_>,
    request: &crate::http::Request,
    request_id: u64,
) -> Result<(String, String, u64)> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| SoiError::invalid("ingest body must be UTF-8 JSON lines"))?;
    let guard = match shared.ingest_lock.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let state = shared.epochs.pin();

    // Parse every line against the (static) vocabulary; one bad line
    // rejects the whole batch with nothing applied.
    let mut new_ops = Vec::new();
    let mut new_lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let op = DeltaOp::parse_line(line, &state.dataset.vocab)
            .map_err(|e| SoiError::invalid(format!("ingest line {}: {e}", i + 1)))?;
        new_ops.push(op);
        new_lines.push(line.to_string());
    }
    if new_ops.is_empty() {
        return Err(SoiError::invalid("ingest body contains no ops"));
    }
    let accepted = new_ops.len();

    // Re-seal the cumulative pending set. Sealing validates the combined
    // op stream atomically (unknown ids, double deletes, out-of-extent
    // adds), so a rejected batch leaves the serving state untouched.
    let mut ops = state.pending_ops.clone();
    ops.extend(new_ops);
    let delta = DeltaIndex::seal(
        &state.index,
        &state.dataset.pois,
        &state.dataset.photos,
        &ops,
    )?;

    // Durability before visibility: the accepted lines hit the log before
    // the epoch swap, so a crash can lose an un-acked batch but never
    // serve ops a restart would not replay.
    if let Some(path) = &shared.config.ingest_log {
        append_ingest_lines(path, &new_lines)?;
    }
    let mut lines = state.pending_lines.clone();
    lines.extend(new_lines);

    let fold_due = shared.config.epoch_max_delta > 0 && ops.len() >= shared.config.epoch_max_delta;
    let (next, folded) = if fold_due {
        (fold_epoch(shared, &state, &ops, &lines)?, true)
    } else {
        let next = EpochState {
            epoch: state.epoch + 1,
            dataset: Arc::clone(&state.dataset),
            index: Arc::clone(&state.index),
            photo_grid: Arc::clone(&state.photo_grid),
            delta: Some(Arc::new(delta)),
            pending_ops: ops,
            pending_lines: lines,
            applied_ops: state.applied_ops,
            boundaries: state.boundaries.clone(),
            applied_hasher: state.applied_hasher.clone(),
        };
        (next, false)
    };

    let metrics = crate::obs::serve_metrics();
    metrics.ingest_batches.inc();
    metrics.ingest_ops.add(accepted as u64);
    if folded {
        metrics.ingest_folds.inc();
    }
    metrics.ingest_epoch.set(next.epoch as f64);
    metrics.ingest_pending.set(next.pending() as f64);

    let mut obj = JsonWriter::object();
    obj.field_u64("request_id", request_id);
    obj.field_u64("accepted", accepted as u64);
    obj.field_u64("epoch", next.epoch);
    obj.field_u64("pending_ops", next.pending() as u64);
    obj.field_u64("applied_ops", next.applied_ops);
    obj.field_bool("folded", folded);
    let epoch = next.epoch;
    let digest = format!("ops={accepted} folded={folded}");
    shared.epochs.swap(Arc::new(next));
    drop(state);
    drop(guard);
    Ok((obj.finish(), digest, epoch))
}

/// Compacts the cumulative pending ops into a fresh base epoch: fold the
/// collections, rebuild the indexes with the boot parameters (the result
/// is bit-identical to a cold build over the merged data), extend the
/// applied-prefix bookkeeping, and persist the live snapshot so a restart
/// replays only newer deltas.
fn fold_epoch(
    shared: &Shared<'_>,
    state: &EpochState,
    ops: &[DeltaOp],
    lines: &[String],
) -> Result<EpochState> {
    let fold_started = Instant::now();
    let (pois, photos) = soi_index::fold_ops(&state.dataset.pois, &state.dataset.photos, ops)?;
    let dataset = Dataset::new(
        state.dataset.name.clone(),
        state.dataset.network.clone(),
        state.dataset.vocab.clone(),
        pois,
        photos,
    );
    let bundle = soi_index::build_bundle(&dataset, &shared.params);

    let mut applied_hasher = state.applied_hasher.clone();
    for line in lines {
        applied_hasher.write_str(line.trim());
    }
    let applied_ops = state.applied_ops + lines.len() as u64;
    let mut boundaries = state.boundaries.clone();
    boundaries.push(applied_ops);

    if let Some(path) = &shared.live_snapshot {
        let meta = soi_index::IngestMeta {
            epoch: boundaries.len() as u64,
            applied_ops,
            ops_fp: applied_hasher.clone().finish(),
            boundaries: boundaries.clone(),
        };
        // A failed write degrades restart (the whole log replays as one
        // batch against the last good snapshot) but must not fail the
        // ingest: the fold already happened in memory.
        if let Err(e) =
            soi_index::write_bundle_ingested(path, &dataset, &bundle, &shared.params, &meta)
        {
            log::event(
                "serve.ingest_snapshot_failed",
                "live snapshot write failed; restart will replay the full log",
                &[
                    ("path", Value::Str(&path.display().to_string())),
                    ("error", Value::Str(&e.to_string())),
                ],
            );
        }
    }
    log::event(
        "serve.epoch_fold",
        "pending delta folded into a fresh base",
        &[
            ("epoch", Value::U64(state.epoch + 1)),
            ("ops", Value::U64(ops.len() as u64)),
            ("applied_ops", Value::U64(applied_ops)),
            ("ms", Value::F64(fold_started.elapsed().as_secs_f64() * 1e3)),
        ],
    );
    let IndexBundle {
        poi, photo_grid, ..
    } = bundle;
    Ok(EpochState {
        epoch: state.epoch + 1,
        dataset: Arc::new(dataset),
        index: Arc::new(poi),
        photo_grid: Arc::new(photo_grid),
        delta: None,
        pending_ops: Vec::new(),
        pending_lines: Vec::new(),
        applied_ops,
        boundaries,
        applied_hasher,
    })
}

/// Appends accepted ingest lines to the durable ops log (fsync'd so an
/// acked batch survives a crash).
fn append_ingest_lines(path: &std::path::Path, lines: &[String]) -> Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| SoiError::io(e, path.to_path_buf()).with_context("opening the ingest log"))?;
    let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        buf.push_str(line);
        buf.push('\n');
    }
    file.write_all(buf.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| SoiError::io(e, path.to_path_buf()).with_context("appending the ingest log"))
}

fn parse_body(bytes: &[u8]) -> Result<Json> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| SoiError::invalid("body must be UTF-8 JSON"))?;
    if text.trim().is_empty() {
        return Err(SoiError::invalid("body must be a JSON object"));
    }
    soi_obs::json::parse(text).map_err(|e| SoiError::invalid(format!("bad JSON body: {e}")))
}

/// One parsed query request on its way into the admission queue.
struct Submission {
    endpoint: &'static str,
    params: String,
    kind: JobKind,
    budget: QueryBudget,
    request_id: u64,
    /// `"trace": true` — capture a request trace and embed it.
    embed_trace: bool,
    /// `"explain": true` — run the explain collector and embed its rows.
    embed_explain: bool,
    /// The 1-in-N sample: capture a trace into the ring, don't embed.
    sampled: bool,
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
fn submit_and_wait(shared: &Shared<'_>, submission: Submission) -> (HttpTuple, RequestMeta) {
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
                queue: slot_meta.queue,
                exec: slot_meta.exec,
                partial: slot_meta.partial,
                shed: false,
                error: slot_meta.error,
                accesses: slot_meta.accesses,
                epoch: slot_meta.epoch,
                trace_json: slot_meta.trace_json,
                explain_json: slot_meta.explain_json,
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
                error: true,
                ..RequestMeta::default()
            },
        ),
    }
}

/// One engine worker: alive from boot to drain, it claims one admitted job
/// at a time and hands it to `run` ([`run_job`]; passed in so the panic
/// path can be driven without a server) with scratch space it keeps for
/// the whole run.
///
/// A panic inside `run` is isolated to its job: that job is answered 500,
/// the panic is counted, the scratch (which may hold the interrupted job's
/// state) is replaced, and the worker goes on to the next job.
fn engine_worker_loop(
    queue: &AdmissionQueue,
    counters: &Counters,
    mut run: impl FnMut(&mut EngineWorker, Job, Duration),
) {
    let mut worker = EngineWorker::default();
    while let Some(job) = queue.pop() {
        // Roots the job's spans and profile samples on this thread. Opened
        // per job because a profiling window only sees spans opened inside
        // it.
        let _span = soi_obs::trace::span(soi_obs::names::spans::ENGINE_WORKER);
        let slot = Arc::clone(&job.slot);
        let queue_wait = job.enqueued.elapsed();
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run(&mut worker, job, queue_wait)));
        if outcome.is_err() {
            crate::obs::serve_metrics().panics.inc();
            counters.panics.fetch_add(1, Ordering::Relaxed);
            slot.put_with_meta(
                500,
                error_body("query worker panicked", "io"),
                SlotMeta {
                    queue: queue_wait,
                    error: true,
                    ..SlotMeta::default()
                },
            );
            worker = EngineWorker::default();
        }
    }
}

/// Runs one claimed job against the epoch current at claim time and
/// publishes its response.
fn run_job(shared: &Shared<'_>, worker: &mut EngineWorker, job: Job, queue_wait: Duration) {
    let capture = QueryCapture {
        request_id: job.request_id,
        trace: job.trace,
        explain: job.explain,
    };
    // Pinned for the whole job: it sees one coherent base+delta state, and
    // an ingest swap landing mid-run only affects jobs claimed later.
    let state = shared.epochs.pin();
    let (status, body, mut meta) = match &job.kind {
        JobKind::Soi(query) => {
            let ctx = QueryContext::with_delta(
                &state.dataset.network,
                &state.dataset.pois,
                &state.index,
                state.delta.as_deref(),
                state.epoch,
            );
            let run = worker.run_soi(&ctx, query, job.budget, capture);
            job_response(shared, run, |outcome: &SoiOutcome| {
                (
                    outcome.partial,
                    outcome.stats.accesses as u64,
                    soi_outcome_body(&state.dataset, outcome, None),
                )
            })
        }
        JobKind::Describe { street, params } => {
            let builder = ContextBuilder {
                network: &state.dataset.network,
                photos: &state.dataset.photos,
                photo_grid: &state.photo_grid,
                pois: Some(&state.dataset.pois),
                eps: shared.config.eps,
                rho: shared.config.rho,
                phi_source: PhiSource::Photos,
            };
            // The context build runs inside the engine job (a failed one,
            // e.g. an unknown street, is that job's error).
            let delta = state.delta.as_deref();
            let run =
                worker.run_describe_street(&builder, delta, *street, params, job.budget, capture);
            job_response(shared, run, |outcome: &DescribeOutcome| {
                (outcome.partial, 0, describe_outcome_body(outcome))
            })
        }
    };
    meta.queue = queue_wait;
    meta.epoch = state.epoch;
    job.slot.put_with_meta(status, body, meta);
}

/// Turns a finished engine job into `(status, body, meta)`: `render` gives
/// a successful outcome's `(partial, accesses, body)`.
fn job_response<T>(
    shared: &Shared<'_>,
    run: JobRun<T>,
    render: impl FnOnce(&T) -> (bool, u64, String),
) -> (u16, String, SlotMeta) {
    let mut meta = SlotMeta {
        exec: run.latency,
        ..SlotMeta::default()
    };
    if let Some(artifacts) = run.artifacts {
        meta.trace_json = artifacts.trace_json;
        meta.explain_json = artifacts.explain_json;
    }
    match run.result {
        Ok(outcome) => {
            let (partial, accesses, body) = render(&outcome);
            if partial {
                crate::obs::serve_metrics().deadline_expired.inc();
                shared.counters.partials.fetch_add(1, Ordering::Relaxed);
            }
            meta.partial = partial;
            meta.accesses = accesses;
            (200, body, meta)
        }
        Err(e) => error_response(shared, &e, meta),
    }
}

/// The error form of [`job_response`].
fn error_response(
    shared: &Shared<'_>,
    e: &SoiError,
    mut meta: SlotMeta,
) -> (u16, String, SlotMeta) {
    let (status, _, _, body) = error_tuple(e);
    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    meta.error = true;
    (status, body, meta)
}

/// Renders a describe outcome as the `/describe` response body.
fn describe_outcome_body(outcome: &DescribeOutcome) -> String {
    let mut obj = JsonWriter::object();
    obj.field_bool("partial", outcome.partial);
    obj.field_f64("objective", outcome.objective);
    let mut selected = JsonWriter::array();
    for pid in &outcome.selected {
        selected.elem_f64(f64::from(pid.raw()));
    }
    obj.field_raw("selected", &selected.finish());
    obj.finish()
}

/// Renders a k-SOI outcome as the `/soi` response body.
fn soi_outcome_body(dataset: &Dataset, outcome: &SoiOutcome, note: Option<&str>) -> String {
    let mut obj = JsonWriter::object();
    obj.field_bool("partial", outcome.partial);
    obj.field_f64("lbk", outcome.stats.termination_lb);
    obj.field_u64("accesses", outcome.stats.accesses as u64);
    if let Some(note) = note {
        obj.field_str("note", note);
    }
    let mut results = JsonWriter::array();
    for r in &outcome.results {
        let mut entry = JsonWriter::object();
        entry.field_u64("street", u64::from(r.street.raw()));
        entry.field_str("name", &dataset.network.street(r.street).name);
        entry.field_f64("interest", r.interest);
        entry.field_u64("best_segment", u64::from(r.best_segment.raw()));
        entry.field_f64("mass", r.best_segment_mass);
        results.elem_raw(&entry.finish());
    }
    obj.field_raw("results", &results.finish());
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::test_job;

    /// Regression: an engine-side panic used to kill the only dispatcher,
    /// after which every later request waited out `deadline + 30 s`. A
    /// panicking job must be answered, counted, and leave its worker
    /// serving the next job.
    #[test]
    fn a_panicking_job_is_answered_and_its_worker_serves_the_next_one() {
        let queue = AdmissionQueue::new(4);
        let counters = Counters::default();
        let (poisoned, healthy) = (test_job(1), test_job(2));
        let (poisoned_slot, healthy_slot) = (Arc::clone(&poisoned.slot), Arc::clone(&healthy.slot));
        assert!(queue.try_push(poisoned).is_ok());
        assert!(queue.try_push(healthy).is_ok());
        queue.close();
        // One worker thread claims both jobs, in admission order.
        let worker_thread = std::thread::current().id();
        engine_worker_loop(&queue, &counters, |_worker, job, _queue_wait| {
            assert_eq!(std::thread::current().id(), worker_thread);
            if job.request_id == 1 {
                panic!("injected engine fault");
            }
            job.slot.put(200, "{}".to_string());
        });
        let (status, body, meta) = poisoned_slot
            .wait(Duration::ZERO)
            .expect("the panicking job is answered");
        assert_eq!(status, 500);
        assert!(body.contains("query worker panicked"), "body: {body}");
        assert!(meta.error);
        let (status, _, _) = healthy_slot
            .wait(Duration::ZERO)
            .expect("the next job on the same worker is answered");
        assert_eq!(status, 200);
        assert_eq!(counters.panics.load(Ordering::Relaxed), 1);
        assert!(queue.is_drained());
    }
}
