//! The in-process layer pass: each layer's public calls timed on their
//! own, one thread unless stated, tracing off, on the request lists the
//! served run sent.
//!
//! Counts are per-query means and repeat exactly for a seed; they are the
//! work that explains the times beside them.

use crate::stats::Samples;
use crate::workload::{Request, EPS};
use crate::world::{self, World};
use soi_common::StreetId;
use soi_core::describe::{greedy_select, st_rel_div_with_scratch, DescribeParams, DescribeScratch};
use soi_core::soi::{
    run_baseline, run_soi_with_scratch, SoiConfig, SoiQuery, SoiScratch, StreetAggregate,
};
use soi_core::QueryBudget;
use soi_engine::{QueryContext, QueryEngine};
use soi_index::{DeltaIndex, DeltaOp, EpsilonMaps, PhotoGrid, PoiIndex};
use soi_obs::names::phases;
use soi_serve::queue::{AdmissionQueue, Job, JobKind, Slot};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries the baseline and greedy comparisons run on (the paper's
/// headline factors); spread evenly over the list.
const SPEEDUP_SAMPLE: usize = 20;
/// Ops per fold: the `--epoch-max-delta` the `mixed_ingest` server runs,
/// and the number of delta-op lines the layer pass needs.
pub const FOLD_OPS: usize = crate::served::EPOCH_MAX_DELTA;
/// Pending-op counts `DeltaIndex::seal` is timed at: the first batch, the
/// middle and the last re-seal before a fold.
const SEAL_SIZES: [usize; 3] = [16, 256, 496];
/// Requests the passes that only time (the delta view, the engine) run
/// on; the passes that also count run on every request they are given.
pub const TIMED_REQUESTS: usize = 100;

pub type Metric = (String, f64);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `runs` timings of `f`.
fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `SPEEDUP_SAMPLE` indices spread evenly over `0..len`.
fn spread_sample(len: usize) -> Vec<usize> {
    let n = SPEEDUP_SAMPLE.min(len);
    (0..n).map(|i| i * len / n).collect()
}

pub struct Inputs<'a> {
    pub world: &'a World,
    /// `/soi` requests (the workload's own, or the `soi_hot` reference
    /// list when the workload sends none).
    pub soi: &'a [Request],
    /// `/describe` requests (likewise, `describe_hot` as reference).
    pub describe: &'a [Request],
    /// At least [`FOLD_OPS`] delta-op lines from `soi gen-deltas`.
    pub delta_lines: &'a [String],
    /// Where the snapshot file is written and read back.
    pub scratch_dir: &'a Path,
    /// Worker count of the multi-worker engine run (`nproc`).
    pub threads: usize,
}

pub fn run(inputs: &Inputs<'_>) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let world = inputs.world;
    out.push(("datagen.generate_s".to_string(), world.generate_s));
    out.push(("data.load_s".to_string(), world.load_s));
    out.push(("index.build_bundle_s".to_string(), world.build_bundle_s));
    index_and_snapshot(inputs, &mut out)?;

    let queries: Vec<SoiQuery> = inputs
        .soi
        .iter()
        .filter_map(|r| world::soi_query(&world.dataset, &r.spec))
        .collect();
    let jobs: Vec<(StreetId, DescribeParams)> = inputs
        .describe
        .iter()
        .filter_map(|r| world::describe_job(&r.spec))
        .collect();
    if queries.len() != inputs.soi.len() || jobs.len() != inputs.describe.len() {
        return Err("a generated request does not validate in-process".to_string());
    }
    if queries.is_empty() || jobs.is_empty() {
        return Err("the layer pass needs /soi and /describe requests".to_string());
    }
    let soi_p50 = core_soi(world, &queries, &mut out)?;
    let timed = &queries[..queries.len().min(TIMED_REQUESTS)];
    deltas(inputs, timed, soi_p50, &mut out)?;
    core_describe(world, &jobs, &mut out)?;
    engine(inputs, timed, &mut out);
    serve_edges(inputs, &queries[0], &mut out)?;
    Ok(out)
}

fn index_and_snapshot(inputs: &Inputs<'_>, out: &mut Vec<Metric>) -> Result<(), String> {
    let World {
        dataset,
        bundle,
        params,
        ..
    } = inputs.world;
    let build_poi = median_time(3, || {
        black_box(PoiIndex::build_with_threads(
            &dataset.network,
            &dataset.pois,
            params.poi_cell,
            params.threads,
        ));
    });
    out.push(("index.build_poi_s".to_string(), build_poi.as_secs_f64()));
    let build_pg = median_time(3, || {
        black_box(PhotoGrid::build_with_threads(
            &dataset.network,
            &dataset.photos,
            params.pg_cell,
            params.threads,
        ));
    });
    out.push((
        "index.build_photo_grid_s".to_string(),
        build_pg.as_secs_f64(),
    ));
    let eps_maps = median_time(3, || {
        black_box(EpsilonMaps::build(&dataset.network, &bundle.poi, EPS));
    });
    out.push(("index.eps_maps_build_ms".to_string(), ms(eps_maps)));

    let path = inputs.scratch_dir.join("layer-pass.soisnap");
    let mut bytes = 0u64;
    let mut failure = None;
    let write = median_time(3, || {
        match soi_index::write_bundle(&path, dataset, bundle, params) {
            Ok(n) => bytes = n,
            Err(e) => failure = Some(e.to_string()),
        }
    });
    let read = median_time(3, || match soi_index::read_bundle(&path, dataset, params) {
        Ok(soi_index::ReadOutcome::Loaded(loaded)) => {
            black_box(loaded);
        }
        Ok(soi_index::ReadOutcome::Stale(why)) => failure = Some(format!("stale: {why}")),
        Err(e) => failure = Some(e.to_string()),
    });
    let _ = std::fs::remove_file(&path);
    if let Some(failure) = failure {
        return Err(format!("snapshot round trip: {failure}"));
    }
    out.push(("snapshot.write_s".to_string(), write.as_secs_f64()));
    out.push(("snapshot.read_s".to_string(), read.as_secs_f64()));
    out.push(("snapshot.bytes".to_string(), bytes as f64));
    Ok(())
}

/// Alg. 1 on its own. Returns the execution p50 (ms).
fn core_soi(world: &World, queries: &[SoiQuery], out: &mut Vec<Metric>) -> Result<f64, String> {
    let dataset = &world.dataset;
    let index = &world.bundle.poi;
    let config = SoiConfig::default();
    let mut scratch = SoiScratch::default();
    let mut run = |query: &SoiQuery| {
        run_soi_with_scratch(
            &dataset.network,
            &dataset.pois,
            index,
            query,
            &config,
            &mut scratch,
        )
        .map_err(|e| format!("run_soi: {e}"))
    };
    // Size the scratch buffers before timing.
    for query in queries.iter().take(8) {
        run(query)?;
    }
    let mut exec = Vec::with_capacity(queries.len());
    let mut allocs = Vec::with_capacity(queries.len());
    let mut stats = Vec::with_capacity(queries.len());
    for query in queries {
        let scope = soi_obs::AllocScope::start();
        let started = Instant::now();
        let outcome = run(query)?;
        exec.push(ms(started.elapsed()));
        allocs.push(scope.finish().allocs as f64);
        stats.push(outcome.stats);
    }
    let exec = Samples::new(exec);
    out.push(("core.soi.exec_p50_ms".to_string(), exec.median()));
    out.push(("core.soi.exec_p95_ms".to_string(), exec.tail(95.0).1));
    for (name, phase) in [
        ("construction", phases::CONSTRUCTION),
        ("filtering", phases::FILTERING),
        ("refinement", phases::REFINEMENT),
    ] {
        let p50 = Samples::new(stats.iter().map(|s| ms(s.timer.duration(phase))).collect());
        out.push((format!("core.soi.{name}_p50_ms"), p50.median()));
    }
    let segments = dataset.network.num_segments() as f64;
    let count = |name: &str, f: &dyn Fn(&soi_core::soi::QueryStats) -> usize| {
        (
            format!("core.soi.{name}"),
            mean(stats.iter().map(|s| f(s) as f64)),
        )
    };
    out.push(count("accesses", &|s| s.accesses));
    out.push(count("cells_popped", &|s| s.cells_popped));
    out.push(count("segments_popped", &|s| s.segments_popped));
    out.push(count("cell_visits", &|s| s.cell_visits));
    out.push(count("segments_seen", &|s| s.segments_seen));
    out.push(count("bounded_out", &|s| s.segments_bounded_out));
    out.push(count("finalized", &|s| s.segments_finalized()));
    out.push((
        "core.soi.seen_share".to_string(),
        mean(stats.iter().map(|s| s.segments_seen as f64 / segments)),
    ));
    out.push(("core.soi.allocs".to_string(), mean(allocs.into_iter())));

    let (mut soi_time, mut baseline_time) = (Duration::ZERO, Duration::ZERO);
    for i in spread_sample(queries.len()) {
        let started = Instant::now();
        black_box(run(&queries[i])?);
        soi_time += started.elapsed();
        let started = Instant::now();
        black_box(run_baseline(
            &dataset.network,
            &dataset.pois,
            index,
            &queries[i],
            StreetAggregate::Max,
        ));
        baseline_time += started.elapsed();
    }
    out.push((
        "core.soi.speedup_vs_bl".to_string(),
        baseline_time.as_secs_f64() / soi_time.as_secs_f64(),
    ));
    Ok(exec.median())
}

fn deltas(
    inputs: &Inputs<'_>,
    queries: &[SoiQuery],
    soi_p50_ms: f64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let World {
        dataset,
        bundle,
        params,
        ..
    } = inputs.world;
    let lines = inputs
        .delta_lines
        .get(..FOLD_OPS)
        .ok_or_else(|| format!("the layer pass needs {FOLD_OPS} delta ops"))?;
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut failure = None;
    let parse = median_time(3, || {
        ops.clear();
        for line in lines {
            match DeltaOp::parse_line(line, &dataset.vocab) {
                Ok(op) => ops.push(op),
                Err(e) => failure = Some(e.to_string()),
            }
        }
    });
    out.push((
        "index.delta_parse_us_per_op".to_string(),
        us(parse) / FOLD_OPS as f64,
    ));
    let seal = |n: usize| {
        DeltaIndex::seal(&bundle.poi, &dataset.pois, &dataset.photos, &ops[..n])
            .map_err(|e| format!("sealing {n} ops: {e}"))
    };
    for n in SEAL_SIZES {
        let time = median_time(5, || {
            if let Err(e) = seal(n) {
                failure = Some(e);
            }
        });
        out.push((format!("index.delta_seal_ms.n{n}"), ms(time)));
    }
    let fold = median_time(3, || {
        match soi_index::fold_dataset(dataset, lines, &[FOLD_OPS as u64]) {
            Ok(folded) => {
                black_box(soi_index::build_bundle(&folded, params));
            }
            Err(e) => failure = Some(e.to_string()),
        }
    });
    out.push(("index.fold_ms".to_string(), ms(fold)));

    // Alg. 1 through the base+delta view, against the plain-base p50.
    let delta = seal(256)?;
    if let Some(failure) = failure {
        return Err(format!("delta layer: {failure}"));
    }
    let ctx = QueryContext::with_delta(
        &dataset.network,
        &dataset.pois,
        &bundle.poi,
        Some(&delta),
        1,
    );
    let mut scratch = SoiScratch::default();
    let mut exec = Vec::with_capacity(queries.len());
    for (i, query) in queries.iter().take(8).chain(queries).enumerate() {
        let started = Instant::now();
        run_soi_with_scratch(
            ctx.network,
            ctx.poi_view(),
            ctx.index_view(),
            query,
            &ctx.config,
            &mut scratch,
        )
        .map_err(|e| format!("run_soi over a delta view: {e}"))?;
        if i >= 8 {
            exec.push(ms(started.elapsed()));
        }
    }
    let view_p50 = Samples::new(exec).median();
    out.push((
        "index.view_overhead_pct".to_string(),
        (view_p50 / soi_p50_ms - 1.0) * 100.0,
    ));
    Ok(())
}

fn core_describe(
    world: &World,
    jobs: &[(StreetId, DescribeParams)],
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let photos = &world.dataset.photos;
    let builder = world.context_builder();
    let mut scratch = DescribeScratch::default();
    let mut context = Vec::with_capacity(jobs.len());
    let mut exec = Vec::with_capacity(jobs.len());
    let (mut members, mut evaluated, mut pruned, mut refined, mut eval_share) =
        (vec![], vec![], vec![], vec![], vec![]);
    for (i, (street, params)) in jobs.iter().take(8).chain(jobs).enumerate() {
        let started = Instant::now();
        let ctx = builder
            .build(*street)
            .map_err(|e| format!("describe context: {e}"))?;
        let context_time = started.elapsed();
        let started = Instant::now();
        let outcome = st_rel_div_with_scratch(&ctx, photos, params, &mut scratch)
            .map_err(|e| format!("st_rel_div: {e}"))?;
        let exec_time = started.elapsed();
        if i < 8 {
            continue; // warm-up: scratch sizing
        }
        context.push(ms(context_time));
        exec.push(ms(exec_time));
        let stats = &outcome.stats;
        members.push(ctx.members.len() as f64);
        evaluated.push(stats.photos_evaluated as f64);
        pruned.push((stats.cells_pruned_filtering + stats.cells_pruned_refinement) as f64);
        refined.push(stats.cells_refined as f64);
        eval_share
            .push(stats.photos_evaluated as f64 / (ctx.members.len() * params.k).max(1) as f64);
    }
    let exec = Samples::new(exec);
    out.push((
        "core.describe.context_p50_ms".to_string(),
        Samples::new(context).median(),
    ));
    out.push(("core.describe.exec_p50_ms".to_string(), exec.median()));
    out.push(("core.describe.exec_p95_ms".to_string(), exec.tail(95.0).1));
    for (name, values) in [
        ("members", members),
        ("photos_evaluated", evaluated),
        ("cells_pruned", pruned),
        ("cells_refined", refined),
        ("eval_share", eval_share),
    ] {
        out.push((format!("core.describe.{name}"), mean(values.into_iter())));
    }

    let (mut alg2_time, mut greedy_time) = (Duration::ZERO, Duration::ZERO);
    for i in spread_sample(jobs.len()) {
        let (street, params) = &jobs[i];
        let ctx = builder
            .build(*street)
            .map_err(|e| format!("describe context: {e}"))?;
        let started = Instant::now();
        black_box(
            st_rel_div_with_scratch(&ctx, photos, params, &mut scratch)
                .map_err(|e| format!("st_rel_div: {e}"))?,
        );
        alg2_time += started.elapsed();
        let started = Instant::now();
        black_box(greedy_select(&ctx, photos, params));
        greedy_time += started.elapsed();
    }
    out.push((
        "core.describe.speedup_vs_greedy".to_string(),
        greedy_time.as_secs_f64() / alg2_time.as_secs_f64(),
    ));
    Ok(())
}

fn engine(inputs: &Inputs<'_>, queries: &[SoiQuery], out: &mut Vec<Metric>) {
    let dataset = &inputs.world.dataset;
    let ctx = Arc::new(QueryContext::new(
        &dataset.network,
        &dataset.pois,
        &inputs.world.bundle.poi,
    ));
    // A batch of one on the server's default engine: what one queued
    // request pays on top of Alg. 1 itself.
    let default_engine = QueryEngine::new(0);
    let singles = &queries[..queries.len().div_ceil(2)];
    let mut one = Vec::with_capacity(singles.len());
    for (i, query) in singles.iter().take(8).chain(singles).enumerate() {
        let started = Instant::now();
        black_box(default_engine.run_soi_batch(&ctx, std::slice::from_ref(query)));
        if i >= 8 {
            one.push(ms(started.elapsed()));
        }
    }
    out.push(("engine.one_p50_ms".to_string(), Samples::new(one).median()));
    let qps = |threads: usize| {
        QueryEngine::new(threads)
            .run_soi_batch(&ctx, queries)
            .stats
            .queries_per_second()
    };
    let (w1, wn) = (qps(1), qps(inputs.threads));
    out.push(("engine.batch_qps.w1".to_string(), w1));
    out.push(("engine.batch_qps.wN".to_string(), wn));
    out.push(("engine.scaling".to_string(), wn / w1));
}

/// A connected loopback pair: `(client side, server side)`.
fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

/// The fixed costs every request pays around its query: socket read and
/// parse, JSON parse, two cross-thread hand-offs, socket write, connect.
fn serve_edges(inputs: &Inputs<'_>, query: &SoiQuery, out: &mut Vec<Metric>) -> Result<(), String> {
    const ROUNDS: usize = 500;
    let io = |e: std::io::Error| format!("loopback: {e}");
    let bodies: Vec<&Request> = inputs.soi.iter().chain(inputs.describe).collect();

    let (mut client, mut server) = loopback_pair().map_err(io)?;
    let limits = soi_serve::http::Limits::default();
    let mut read = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let request = bodies[i % bodies.len()];
        let wire = format!(
            "POST {} HTTP/1.1\r\nHost: soi\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            request.endpoint().path(),
            request.body.len(),
            request.body
        );
        client.write_all(wire.as_bytes()).map_err(io)?;
        let started = Instant::now();
        let parsed = soi_serve::http::read_request(&mut server, &limits)
            .map_err(|e| format!("read_request: {}", e.describe()))?;
        read.push(us(started.elapsed()));
        black_box(parsed);
    }
    out.push((
        "serve.http.read_us".to_string(),
        Samples::new(read).median(),
    ));

    // A 2 KB body, the size of a k = 10..20 /soi answer.
    let response = vec![b'x'; 2048];
    let mut sink = vec![0u8; 4096];
    let mut write = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        soi_serve::http::write_response(&mut server, 200, "OK", "application/json", &response)
            .map_err(io)?;
        write.push(us(started.elapsed()));
        // Drain the client side so the socket buffer never fills.
        let mut got = 0;
        while got < response.len() {
            got += client.read(&mut sink).map_err(io)?;
        }
    }
    out.push((
        "serve.http.write_us".to_string(),
        Samples::new(write).median(),
    ));

    let mut parse = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let body = &bodies[i % bodies.len()].body;
        let started = Instant::now();
        let parsed = soi_obs::json::parse(body);
        parse.push(us(started.elapsed()));
        black_box(parsed).map_err(|e| format!("json::parse: {e}"))?;
    }
    out.push((
        "obs.json.parse_us".to_string(),
        Samples::new(parse).median(),
    ));

    // try_push → pop_batch on a second thread → put → wait: the two
    // cross-thread wake-ups every queued request pays.
    let queue = AdmissionQueue::new(64);
    let handoff = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let dispatcher = scope.spawn(|| loop {
            let batch = queue.pop_batch(8, Duration::from_millis(100));
            if batch.is_empty() && queue.is_drained() {
                return;
            }
            for job in batch {
                job.slot.put(200, String::new());
            }
        });
        let mut times = Vec::with_capacity(ROUNDS);
        let mut failure = None;
        for i in 0..ROUNDS {
            let slot = Arc::new(Slot::default());
            let started = Instant::now();
            let job = Job {
                kind: JobKind::Soi(query.clone()),
                budget: QueryBudget::unlimited(),
                slot: Arc::clone(&slot),
                enqueued: started,
                request_id: i as u64 + 1,
                trace: false,
                explain: false,
            };
            if queue.try_push(job).is_err() || slot.wait(Duration::from_secs(5)).is_none() {
                failure = Some("admission-queue hand-off failed".to_string());
                break;
            }
            times.push(us(started.elapsed()));
        }
        queue.close();
        dispatcher
            .join()
            .map_err(|_| "hand-off dispatcher panicked".to_string())?;
        failure.map_or(Ok(times), Err)
    })?;
    out.push((
        "serve.queue.handoff_us".to_string(),
        Samples::new(handoff).median(),
    ));

    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let mut connect = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let stream = TcpStream::connect(addr).map_err(io)?;
        connect.push(us(started.elapsed()));
        drop(listener.accept().map_err(io)?);
        drop(stream);
    }
    out.push((
        "client.connect_us".to_string(),
        Samples::new(connect).median(),
    ));
    Ok(())
}
