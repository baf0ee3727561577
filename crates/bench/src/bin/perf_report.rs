//! `perf_report` — the repo's perf-regression benchmark.
//!
//! Measures, on one process and back-to-back (the only way to get stable
//! numbers on a noisy single-core VM):
//!
//! 1. offline index construction (the counting-sort CSR build), median of
//!    several reps;
//! 2. single-query k-SOI latency (p50/p95), direct `run_soi` vs a
//!    one-element engine batch (the inline path — must be within noise)
//!    — with the observability layer compiled in but *disabled*, the
//!    production default;
//! 3. the same single query with tracing *enabled*, to quantify the
//!    recording overhead;
//! 4. batched k-SOI throughput at 1, 2, and 8 workers over ≥256 distinct
//!    queries (keyword subsets × k × ε), with per-worker-count speedup
//!    relative to 1 worker. On a single-core host (CI, this VM) speedups
//!    ≤ 1.0 are expected — the report records the core count so readers
//!    can tell scheduler overhead from real scaling regressions;
//! 5. cold start: fresh index construction vs `soi-snapshot` load. Per
//!    structure (POI index, photo grid, IR-tree, ε-maps) as interleaved
//!    in-process medians, and end-to-end for the bundle in *fresh child
//!    processes* (the report re-executes itself with `--cold-probe`):
//!    an in-process rebuild reuses the allocator arena the previous rep
//!    just freed, which understates what a real cold start pays, while
//!    every snapshot load eats its page faults anew — a fresh process per
//!    rep is the only symmetric measurement. The bundle load side also
//!    pays mmap + checksum verification and the dataset fingerprint.
//!
//! If `BENCH_PR2.json` is present in the output directory its stored p50s
//! are parsed (with `soi_obs::json`) and the disabled-instrumentation
//! overhead vs PR 2 is reported — the PR 3 acceptance bound was ≤2%.
//!
//! Writes `BENCH_PR7.json` into the repo root (or the directory given as
//! the first argument), appends a compact summary line to
//! `BENCH_HISTORY.jsonl` in the same directory, and prints the report to
//! stdout. `bench_diff` compares any two of these artifacts.

use soi_core::soi::{run_soi, SoiConfig, SoiQuery};
use soi_data::Dataset;
use soi_engine::{QueryContext, QueryEngine};
use soi_index::snapshot::{self as snap, BundleParams, ReadOutcome};
use soi_index::{IrTree, PhotoGrid, PoiIndex};
use soi_obs::{json, trace};
use soi_snapshot::Snapshot;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// City scale for the report: large enough that the build takes tens of
/// milliseconds, small enough to keep the whole report under a minute.
const SCALE: f64 = 0.2;
const EPS: f64 = 0.0005;
const CELL: f64 = 2.0 * EPS;
/// Repetitions of the index build (median reported).
const BUILD_REPS: usize = 9;
/// Repetitions for the single-query latency distribution.
const QUERY_REPS: usize = 21;
/// Interleaved repetitions for the per-structure cold-start comparison.
const COLD_REPS: usize = 5;
/// Fresh-process repetitions for the end-to-end bundle comparison. Each
/// rep forks a child that regenerates the dataset, so reps are expensive.
const COLD_PROC_REPS: usize = 3;
/// City scale for the cold-start comparison. Larger than [`SCALE`] on
/// purpose: at query-bench scale the whole dataset sits in cache and
/// builds look artificially cheap; snapshots exist for datasets where a
/// fresh build takes real time, so the comparison runs at the experiment
/// harness's paper scale.
const COLD_SCALE: f64 = 1.0;

/// The bundle parameters the cold-start comparison (parent and `--cold-probe`
/// children) agrees on.
fn cold_params() -> BundleParams {
    BundleParams {
        poi_cell: CELL,
        pg_cell: CELL,
        eps: Some(EPS),
        with_ir: true,
        threads: 1,
    }
}

/// `--cold-probe build|load <snapshot>`: one cold bundle build or load in
/// this (fresh) process. Prints the measured milliseconds to stdout and
/// exits without running destructors — freeing a bundle is the caller's
/// cost on either path, and `exit` keeps the two probes symmetric.
fn cold_probe(mode: &str, snap_path: &str) -> ! {
    let (cold, _truth) = soi_datagen::generate(&soi_datagen::berlin(COLD_SCALE));
    let params = cold_params();
    let elapsed = match mode {
        "build" => {
            let t = Instant::now();
            let bundle = snap::build_bundle(&cold, &params);
            let elapsed = t.elapsed();
            black_box(&bundle);
            elapsed
        }
        // A cache *miss* as `--index-cache` users pay it: build, then
        // persist the snapshot for the next start.
        "miss" => {
            let miss_path = format!("{snap_path}.miss-{}", std::process::id());
            let t = Instant::now();
            let bundle = snap::build_bundle(&cold, &params);
            snap::write_bundle(std::path::Path::new(&miss_path), &cold, &bundle, &params)
                .expect("write bundle");
            let elapsed = t.elapsed();
            black_box(&bundle);
            let _ = std::fs::remove_file(&miss_path);
            elapsed
        }
        "load" => {
            let t = Instant::now();
            let outcome = snap::read_bundle(std::path::Path::new(snap_path), &cold, &params)
                .expect("read bundle");
            let elapsed = t.elapsed();
            assert!(
                matches!(outcome, ReadOutcome::Loaded(_)),
                "snapshot must match the dataset it was written from"
            );
            black_box(&outcome);
            elapsed
        }
        other => panic!("unknown --cold-probe mode `{other}`"),
    };
    println!("{}", ms(elapsed));
    std::process::exit(0);
}

/// Runs one `--cold-probe` child and returns its measured milliseconds.
fn run_cold_probe(mode: &str, snap_path: &std::path::Path) -> f64 {
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .arg("--cold-probe")
        .arg(mode)
        .arg(snap_path)
        .output()
        .expect("spawn cold probe");
    assert!(
        out.status.success(),
        "cold probe {mode} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("cold probe output")
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The stored PR 2 single-query p50s `(direct, engine_one_worker)` in ms,
/// if a parseable `BENCH_PR2.json` sits in the output directory.
fn pr2_p50s(out_dir: &str) -> Option<(f64, f64)> {
    let path = format!("{}/BENCH_PR2.json", out_dir.trim_end_matches('/'));
    let text = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&text).ok()?;
    let single = doc.get("single_query")?;
    Some((
        single.get("direct_p50_ms")?.as_f64()?,
        single.get("engine_one_worker_p50_ms")?.as_f64()?,
    ))
}

/// ≥256 distinct queries: every non-empty subset of four keyword
/// categories (15) × five result sizes × four ε values = 300. Small
/// batches (the pre-PR-4 sweep had 16 queries) hide scaling problems
/// behind per-batch setup cost and give work stealing nothing to balance.
fn sweep_queries(dataset: &Dataset) -> Vec<SoiQuery> {
    let kws = ["shop", "food", "religion", "education"];
    let mut queries = Vec::new();
    for mask in 1u32..(1 << kws.len()) {
        let subset: Vec<&str> = kws
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &kw)| kw)
            .collect();
        let set = dataset.query_keywords(&subset);
        for &k in &[5usize, 10, 20, 50, 100] {
            for &eps_scale in &[0.75, 1.0, 1.5, 2.0] {
                queries.push(SoiQuery::new(set.clone(), k, EPS * eps_scale).expect("valid query"));
            }
        }
    }
    assert!(queries.len() >= 256, "sweep must hold >=256 queries");
    queries
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--cold-probe") {
        cold_probe(
            args.get(1).expect("probe mode"),
            args.get(2).expect("snapshot path"),
        );
    }
    let out_dir = args.first().cloned().unwrap_or_else(|| ".".to_string());

    eprintln!("generating berlin at scale {SCALE}...");
    let (dataset, _truth) = soi_datagen::generate(&soi_datagen::berlin(SCALE));
    eprintln!(
        "  {} segments, {} POIs",
        dataset.network.num_segments(),
        dataset.pois.len()
    );

    // 1. Index construction.
    let mut new_times = Vec::with_capacity(BUILD_REPS);
    for _ in 0..BUILD_REPS {
        let t = Instant::now();
        black_box(PoiIndex::build_with_threads(
            &dataset.network,
            &dataset.pois,
            CELL,
            1,
        ));
        new_times.push(t.elapsed());
    }
    let build_new = median(new_times);
    eprintln!("index build: {:.1}ms", ms(build_new));

    // 2. Single-query latency.
    let index = PoiIndex::build_with_threads(&dataset.network, &dataset.pois, CELL, 0);
    let query =
        SoiQuery::new(dataset.query_keywords(&["shop", "food"]), 50, EPS).expect("valid query");
    let config = SoiConfig::default();
    let mut direct = Vec::with_capacity(QUERY_REPS);
    for _ in 0..QUERY_REPS {
        index.clear_epsilon_cache();
        let t = Instant::now();
        black_box(
            run_soi(&dataset.network, &dataset.pois, &index, &query, &config).expect("valid query"),
        );
        direct.push(t.elapsed());
    }
    direct.sort_unstable();

    let ctx = Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
    let one_worker = QueryEngine::new(1);
    let single = std::slice::from_ref(&query);
    let mut engine_one = Vec::with_capacity(QUERY_REPS);
    for _ in 0..QUERY_REPS {
        index.clear_epsilon_cache();
        let t = Instant::now();
        black_box(one_worker.run_soi_batch(&ctx, single));
        engine_one.push(t.elapsed());
    }
    engine_one.sort_unstable();
    eprintln!(
        "single query: direct p50 {:.2}ms p95 {:.2}ms; engine(1) p50 {:.2}ms p95 {:.2}ms",
        ms(percentile(&direct, 0.5)),
        ms(percentile(&direct, 0.95)),
        ms(percentile(&engine_one, 0.5)),
        ms(percentile(&engine_one, 0.95)),
    );

    // 2b. The same direct query with tracing enabled: quantifies what
    // `--trace-out` costs while recording (spans + sampled UB/LBk
    // counters on the Alg. 1 hot loop).
    trace::set_enabled(true);
    let mut traced = Vec::with_capacity(QUERY_REPS);
    for _ in 0..QUERY_REPS {
        index.clear_epsilon_cache();
        let t = Instant::now();
        black_box(
            run_soi(&dataset.network, &dataset.pois, &index, &query, &config).expect("valid query"),
        );
        traced.push(t.elapsed());
    }
    trace::set_enabled(false);
    let trace_events = trace::take_events().len();
    traced.sort_unstable();
    let traced_overhead_pct =
        (ms(percentile(&traced, 0.5)) / ms(percentile(&direct, 0.5)).max(1e-12) - 1.0) * 100.0;
    eprintln!(
        "traced query: p50 {:.2}ms ({:+.1}% vs disabled, {} events/rep)",
        ms(percentile(&traced, 0.5)),
        traced_overhead_pct,
        trace_events / QUERY_REPS,
    );

    // 3. Batch throughput at 1/2/8 workers (median of 3 sweeps each),
    // with per-worker-count speedup vs the 1-worker baseline.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let sweep = sweep_queries(&dataset);
    let mut batch_lines = Vec::new();
    let mut batch_history = Vec::new();
    let mut one_worker_qps = 0.0f64;
    for &threads in &[1usize, 2, 8] {
        let engine = QueryEngine::new(threads);
        let mut walls = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let batch = engine.run_soi_batch(&ctx, &sweep);
            walls.push(t.elapsed());
            assert_eq!(batch.stats.errors, 0, "batch queries must all succeed");
        }
        let wall = median(walls);
        let qps = sweep.len() as f64 / wall.as_secs_f64().max(1e-12);
        if threads == 1 {
            one_worker_qps = qps;
        }
        let speedup = qps / one_worker_qps.max(1e-12);
        eprintln!(
            "batch: {} queries on {threads} worker(s): {:.1}ms ({qps:.0} q/s, {speedup:.2}x vs 1 worker)",
            sweep.len(),
            ms(wall)
        );
        batch_lines.push(format!(
            "    {{\"workers\": {threads}, \"queries\": {}, \"wall_ms\": {:.3}, \"qps\": {:.1}, \"speedup_vs_1\": {speedup:.3}}}",
            sweep.len(),
            ms(wall),
            qps
        ));
        batch_history.push(format!(
            "{{\"workers\":{threads},\"qps\":{qps:.1},\"speedup_vs_1\":{speedup:.3}}}"
        ));
    }
    let scaling_note = if host_cpus == 1 {
        "host has 1 CPU core: worker threads time-share it, so multi-worker \
         speedup <= 1.0x is expected and is not a scaling regression"
    } else {
        "multi-core host: multi-worker speedup below 1.0x would indicate a \
         contention regression"
    };
    eprintln!("scaling: {host_cpus} host core(s); {scaling_note}");

    // 5. Cold start: fresh construction vs snapshot load. Per structure
    // (build vs decode from an open snapshot) and end-to-end for the
    // bundle, where the load side additionally pays `Snapshot::open`
    // (mmap + header/table/payload checksum verification) and the dataset
    // fingerprint check. Build and load reps are interleaved so clock
    // drift on a shared VM hits both sides equally.
    eprintln!("generating berlin at scale {COLD_SCALE} for the cold-start comparison...");
    let (cold, _truth) = soi_datagen::generate(&soi_datagen::berlin(COLD_SCALE));
    eprintln!(
        "  {} segments, {} POIs, {} photos",
        cold.network.num_segments(),
        cold.pois.len(),
        cold.photos.len()
    );
    let params = cold_params();
    let snap_path =
        std::env::temp_dir().join(format!("soi-perf-report-{}.soisnap", std::process::id()));
    let snapshot_bytes = {
        let bundle = snap::build_bundle(&cold, &params);
        snap::write_bundle(&snap_path, &cold, &bundle, &params).expect("write snapshot")
    };

    const STRUCTS: [&str; 4] = ["poi_index", "photo_grid", "ir_tree", "epsilon_maps"];
    let mut s_build: [Vec<Duration>; 4] = Default::default();
    let mut s_load: [Vec<Duration>; 4] = Default::default();
    let mut open_times = Vec::with_capacity(COLD_REPS);
    for _ in 0..COLD_REPS {
        // Fresh builds, one structure at a time.
        let t = Instant::now();
        let poi = PoiIndex::build_with_threads(&cold.network, &cold.pois, CELL, 1);
        s_build[0].push(t.elapsed());
        let t = Instant::now();
        black_box(PhotoGrid::build_with_threads(
            &cold.network,
            &cold.photos,
            CELL,
            1,
        ));
        s_build[1].push(t.elapsed());
        let t = Instant::now();
        black_box(IrTree::build_with_threads(&cold.pois, 1));
        s_build[2].push(t.elapsed());
        let t = Instant::now();
        black_box(poi.epsilon_maps(&cold.network, EPS));
        s_build[3].push(t.elapsed());
        let poi_cells = poi.grid().num_cells();
        drop(poi);

        // Decodes from one open snapshot.
        let t = Instant::now();
        let snapshot = Snapshot::open(&snap_path).expect("open snapshot");
        open_times.push(t.elapsed());
        let num_pois = cold.pois.len();
        let num_segments = cold.network.num_segments();
        let t = Instant::now();
        black_box(
            snap::read_poi_index(&snapshot, "poi", num_pois, num_segments).expect("poi decode"),
        );
        s_load[0].push(t.elapsed());
        let t = Instant::now();
        black_box(snap::read_photo_grid(&snapshot, "pg", cold.photos.len()).expect("pg decode"));
        s_load[1].push(t.elapsed());
        let t = Instant::now();
        black_box(snap::read_ir_tree(&snapshot, "ir", num_pois, 1).expect("ir decode"));
        s_load[2].push(t.elapsed());
        let t = Instant::now();
        black_box(
            snap::read_epsilon_maps(&snapshot, "eps", num_segments, poi_cells).expect("eps decode"),
        );
        s_load[3].push(t.elapsed());
        drop(snapshot);
    }

    // End-to-end bundle paths, one fresh process per rep (see the module
    // docs for why in-process rebuild medians are not a cold start).
    let mut bundle_build = Vec::with_capacity(COLD_PROC_REPS);
    let mut bundle_miss = Vec::with_capacity(COLD_PROC_REPS);
    let mut bundle_load = Vec::with_capacity(COLD_PROC_REPS);
    for _ in 0..COLD_PROC_REPS {
        bundle_build.push(run_cold_probe("build", &snap_path));
        bundle_miss.push(run_cold_probe("miss", &snap_path));
        bundle_load.push(run_cold_probe("load", &snap_path));
    }
    let _ = std::fs::remove_file(&snap_path);

    let speedup =
        |build: Duration, load: Duration| build.as_secs_f64() / load.as_secs_f64().max(1e-12);
    let mut struct_lines = Vec::new();
    let mut structures_build = Duration::ZERO;
    let mut structures_load = Duration::ZERO;
    for (i, name) in STRUCTS.iter().enumerate() {
        let b = median(s_build[i].clone());
        let l = median(s_load[i].clone());
        structures_build += b;
        structures_load += l;
        eprintln!(
            "cold start: {name}: build {:.1}ms, load {:.1}ms ({:.1}x)",
            ms(b),
            ms(l),
            speedup(b, l)
        );
        struct_lines.push(format!(
            "      {{\"name\": \"{name}\", \"build_ms\": {:.3}, \"load_ms\": {:.3}, \"speedup\": {:.3}}}",
            ms(b),
            ms(l),
            speedup(b, l)
        ));
    }
    let open_med = median(open_times);
    let bundle_build_ms = median_f64(bundle_build);
    let bundle_miss_ms = median_f64(bundle_miss);
    let bundle_load_ms = median_f64(bundle_load);
    let structures_speedup = speedup(structures_build, structures_load);
    let bundle_speedup = bundle_build_ms / bundle_load_ms.max(1e-12);
    let cache_hit_speedup = bundle_miss_ms / bundle_load_ms.max(1e-12);
    eprintln!(
        "cold start: structures (in-process): build {:.1}ms, load {:.1}ms ({structures_speedup:.1}x); \
         bundle (fresh process per rep): build {bundle_build_ms:.1}ms, load {bundle_load_ms:.1}ms \
         ({bundle_speedup:.1}x); cache miss (build+persist) {bundle_miss_ms:.1}ms \
         ({cache_hit_speedup:.1}x vs hit); open+verify {:.1}ms, snapshot {snapshot_bytes} bytes",
        ms(structures_build),
        ms(structures_load),
        ms(open_med),
    );

    // Disabled-instrumentation overhead against the stored PR 2 p50s:
    // the observability layer is compiled into every path measured above,
    // so new-p50 / PR2-p50 is the cost of carrying it disabled.
    let vs_pr2 = match pr2_p50s(&out_dir) {
        None => "null".to_string(),
        Some((pr2_direct, pr2_engine)) => {
            let direct_pct = (ms(percentile(&direct, 0.5)) / pr2_direct.max(1e-12) - 1.0) * 100.0;
            let engine_pct =
                (ms(percentile(&engine_one, 0.5)) / pr2_engine.max(1e-12) - 1.0) * 100.0;
            eprintln!(
                "vs PR2: direct p50 {direct_pct:+.1}%, engine(1) p50 {engine_pct:+.1}% (bound: +2%)"
            );
            format!(
                "{{\n      \"pr2_direct_p50_ms\": {pr2_direct:.3},\n      \"pr2_engine_one_worker_p50_ms\": {pr2_engine:.3},\n      \"direct_p50_overhead_pct\": {direct_pct:.2},\n      \"engine_one_worker_p50_overhead_pct\": {engine_pct:.2},\n      \"bound_pct\": 2.0\n    }}"
            )
        }
    };

    let cold_start = format!(
        "{{\n    \"reps\": {COLD_REPS},\n    \"proc_reps\": {COLD_PROC_REPS},\n    \"scale\": {COLD_SCALE},\n    \"segments\": {},\n    \"pois\": {},\n    \"snapshot_bytes\": {snapshot_bytes},\n    \"open_ms\": {:.3},\n    \"structures\": [\n{}\n    ],\n    \"structures_build_ms\": {:.3},\n    \"structures_load_ms\": {:.3},\n    \"structures_speedup\": {structures_speedup:.3},\n    \"bundle_build_ms\": {bundle_build_ms:.3},\n    \"bundle_load_ms\": {bundle_load_ms:.3},\n    \"bundle_speedup\": {bundle_speedup:.3},\n    \"cache_miss_ms\": {bundle_miss_ms:.3},\n    \"cache_hit_speedup\": {cache_hit_speedup:.3},\n    \"note\": \"single-threaded; structures = interleaved in-process medians decoding from one open snapshot; bundle = one fresh process per rep (a true cold start), where the load side also pays open (mmap + checksum verification of every section) and the dataset fingerprint check; cache_miss = build + persist, what an --index-cache miss pays so the next start can hit\"\n  }}",
        cold.network.num_segments(),
        cold.pois.len(),
        ms(open_med),
        struct_lines.join(",\n"),
        ms(structures_build),
        ms(structures_load),
    );

    let json = format!
    (
        "{{\n  \"bench\": \"PR7 index persistence: snapshots and I/O-time cold start\",\n  \"city\": \"berlin\",\n  \"scale\": {SCALE},\n  \"segments\": {},\n  \"pois\": {},\n  \"host_cpus\": {host_cpus},\n  \"index_build\": {{\n    \"new_ms\": {:.3},\n    \"reps\": {BUILD_REPS},\n    \"note\": \"single-threaded, median of the reps\"\n  }},\n  \"single_query\": {{\n    \"direct_p50_ms\": {:.3},\n    \"direct_p95_ms\": {:.3},\n    \"engine_one_worker_p50_ms\": {:.3},\n    \"engine_one_worker_p95_ms\": {:.3},\n    \"reps\": {QUERY_REPS},\n    \"note\": \"instrumentation compiled in, disabled (production default)\"\n  }},\n  \"observability\": {{\n    \"traced_p50_ms\": {:.3},\n    \"traced_overhead_pct\": {:.2},\n    \"trace_events_per_query\": {},\n    \"vs_pr2\": {}\n  }},\n  \"batch\": [\n{}\n  ],\n  \"cold_start\": {cold_start},\n  \"scaling_note\": \"{scaling_note}\"\n}}\n",
        dataset.network.num_segments(),
        dataset.pois.len(),
        ms(build_new),
        ms(percentile(&direct, 0.5)),
        ms(percentile(&direct, 0.95)),
        ms(percentile(&engine_one, 0.5)),
        ms(percentile(&engine_one, 0.95)),
        ms(percentile(&traced, 0.5)),
        traced_overhead_pct,
        trace_events / QUERY_REPS,
        vs_pr2,
        batch_lines.join(",\n"),
    );

    let out_dir = out_dir.trim_end_matches('/');
    let path = format!("{out_dir}/BENCH_PR7.json");
    std::fs::write(&path, &json).expect("write BENCH_PR7.json");
    println!("{json}");
    eprintln!("wrote {path}");

    // One compact line per run so regressions are visible across history.
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let history_line = format!(
        "{{\"ts_unix\":{ts},\"bench\":\"PR7\",\"host_cpus\":{host_cpus},\
         \"build_new_ms\":{:.3},\"direct_p50_ms\":{:.3},\
         \"engine_one_worker_p50_ms\":{:.3},\"traced_p50_ms\":{:.3},\
         \"bundle_build_ms\":{bundle_build_ms:.3},\"bundle_load_ms\":{bundle_load_ms:.3},\
         \"bundle_speedup\":{bundle_speedup:.3},\
         \"cache_hit_speedup\":{cache_hit_speedup:.3},\
         \"structures_speedup\":{structures_speedup:.3},\
         \"batch\":[{}]}}\n",
        ms(build_new),
        ms(percentile(&direct, 0.5)),
        ms(percentile(&engine_one, 0.5)),
        ms(percentile(&traced, 0.5)),
        batch_history.join(","),
    );
    let history_path = format!("{out_dir}/BENCH_HISTORY.jsonl");
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .expect("open BENCH_HISTORY.jsonl");
    std::io::Write::write_all(&mut history, history_line.as_bytes())
        .expect("append BENCH_HISTORY.jsonl");
    eprintln!("appended {history_path}");
}
