//! `soi` — command-line interface to the streets-of-interest library.
//!
//! ```text
//! soi generate --city london --scale 0.05 --out data/london
//! soi stats    --data data/london
//! soi query    --data data/london --keywords shop --k 10
//! soi batch    queries.tsv --data data/london --threads 4
//! soi describe --data data/london --keywords shop --photos 5
//! ```

// The CLI must always exit with a structured error, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod args;

use std::io::Write;

use args::Args;
use soi_common::{Result, ResultExt, SoiError};
use soi_core::describe::{
    st_rel_div, st_rel_div_full, ContextBuilder, DescribeExplain, DescribeParams, DescribeScratch,
    PhiSource,
};
use soi_core::soi::{
    run_baseline, run_soi, run_soi_full, SoiConfig, SoiExplain, SoiOutcome, SoiQuery, SoiScratch,
    StreetAggregate,
};
use soi_core::QueryBudget;
use soi_data::Dataset;
use soi_engine::{QueryContext, QueryEngine};
use soi_index::{BundleParams, CacheMode, CacheOutcome, IndexBundle, IndexCache, PoiIndex};
use soi_network::NetworkStats;
use soi_obs::log::{self, LogMode, Value};
use soi_obs::names::{phases, spans};
use soi_obs::{json, trace};

const DEFAULT_EPS: f64 = 0.0005;
const DEFAULT_RHO: f64 = 0.0001;
const POI_CELL: f64 = 2.0 * DEFAULT_EPS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(args) {
        // A closed stdout (e.g. `soi query ... | head`) is not a failure of
        // the command itself: stop writing and exit cleanly, like cat(1).
        if e.is_broken_pipe() {
            return;
        }
        eprintln!("error: {e}");
        std::process::exit(e.category().exit_code());
    }
}

fn run(raw: Vec<String>) -> Result<()> {
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" {
        return print_help();
    }
    let command = COMMANDS.iter().find(|c| c.name == raw[0]).ok_or_else(|| {
        SoiError::invalid(format!("unknown command {:?}; try `soi help`", raw[0]))
    })?;
    let args = Args::parse(raw, command.options, command.positional)?;

    // Observability plumbing shared by every subcommand: `--log-json`
    // switches stderr events to JSON lines (the SOI_LOG env var applies
    // otherwise), and `--trace-out FILE` records a Chrome trace of the
    // whole invocation.
    if args.flag("log-json") {
        log::set_mode(LogMode::Json);
    } else {
        log::init_from_env();
    }
    let trace_out = args.get("trace-out").map(str::to_string);
    if trace_out.is_some() {
        trace::set_enabled(true);
    }

    let result = {
        // One span covering the whole command, so the trace accounts for
        // (nearly) the entire process wall time.
        let _cmd_span = trace::span(command.span);
        (command.run)(&args)
    };
    // Write the trace even when the command failed — a trace of a slow run
    // that ultimately errored is still useful — but let the command's own
    // error take precedence.
    match trace_out {
        None => result,
        Some(path) => {
            let written = write_trace(&path);
            result.and(written)
        }
    }
}

/// A subcommand. [`Args::parse`] rejects an option it does not read and,
/// unless it takes one, a positional argument.
struct Command {
    name: &'static str,
    /// The span covering the whole command.
    span: &'static str,
    run: fn(&Args) -> Result<()>,
    /// Whether it reads a positional argument.
    positional: bool,
    /// Every option it reads (space-separated) besides the global
    /// `--log-json` and `--trace-out`.
    options: &'static str,
    /// Its `soi help` entry: usage, then what it does.
    help: &'static str,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        span: "cli.generate",
        run: cmd_generate,
        positional: false,
        options: "city out scale seed",
        help: "generate  --city london|berlin|vienna --out DIR [--scale 0.05] [--seed N]\n\
               \u{20}          Generate a synthetic city dataset and save it.",
    },
    Command {
        name: "build-index",
        span: "cli.build_index",
        run: cmd_build_index,
        positional: false,
        options: "data eps threads poi-cell pg-cell out index-cache",
        help: "build-index --data DIR (--out FILE | --index-cache DIR) [--eps 0.0005]\n\
               \u{20}          [--poi-cell C] [--pg-cell C] [--threads N]\n\
               \u{20}          Build the index bundle (POI grid, photo grid) and persist\n\
               \u{20}          it as a versioned, checksummed snapshot; reports\n\
               \u{20}          fresh-build vs reload time.",
    },
    Command {
        name: "stats",
        span: "cli.stats",
        run: cmd_stats,
        positional: false,
        options: "data",
        help: "stats     --data DIR\n\
               \u{20}          Print dataset statistics (paper Table 1 columns).",
    },
    Command {
        name: "query",
        span: "cli.query",
        run: cmd_query,
        positional: false,
        options: "data keywords k eps algo index-cache index-cache-mode",
        help: "query     --data DIR --keywords w1,w2 [--k 10] [--eps 0.0005] [--algo soi|bl]\n\
               \u{20}          [--index-cache DIR] [--index-cache-mode MODE]\n\
               \u{20}          Run a k-SOI query and print the ranked streets.",
    },
    Command {
        name: "explain",
        span: "cli.explain",
        run: cmd_explain,
        positional: false,
        options: "data keywords k eps describe photos rho json index-cache index-cache-mode",
        help: "explain   --data DIR --keywords w1,w2 [--k 10] [--eps 0.0005] [--describe]\n\
               \u{20}          [--photos 5] [--rho 0.0001] [--json FILE]\n\
               \u{20}          [--index-cache DIR] [--index-cache-mode MODE]\n\
               \u{20}          Run a k-SOI query with the explain collector and print\n\
               \u{20}          its bound-convergence table, pruning counters and memory\n\
               \u{20}          use; --describe adds Alg. 2's per-round cell-filter\n\
               \u{20}          report for the top street (--photos, --rho as for\n\
               \u{20}          describe), --json writes the machine-readable artifact.",
    },
    Command {
        name: "batch",
        span: "cli.batch",
        run: cmd_batch,
        positional: true,
        options: "queries data eps threads stats-json index-cache index-cache-mode",
        help: "batch     (FILE.tsv | --queries FILE.tsv) --data DIR [--threads N]\n\
               \u{20}          [--eps 0.0005] [--stats-json FILE]\n\
               \u{20}          [--index-cache DIR] [--index-cache-mode MODE]\n\
               \u{20}          Run a file of k-SOI queries through the multi-threaded\n\
               \u{20}          engine (one query per line: keywords<TAB>k[<TAB>eps]);\n\
               \u{20}          --stats-json dumps engine telemetry (latency\n\
               \u{20}          percentiles, work counters) as JSON.",
    },
    Command {
        name: "describe",
        span: "cli.describe",
        run: cmd_describe,
        positional: false,
        options: "data keywords street photos lambda w rho eps index-cache index-cache-mode",
        help: "describe  --data DIR --keywords w1,w2 [--photos 5] [--lambda 0.5] [--w 0.5]\n\
               \u{20}          [--rho 0.0001] [--eps 0.0005] [--street NAME]\n\
               \u{20}          [--index-cache DIR] [--index-cache-mode MODE]\n\
               \u{20}          Select a diversified photo summary for the top street\n\
               \u{20}          (or a named street).",
    },
    Command {
        name: "export",
        span: "cli.export",
        run: cmd_export,
        positional: false,
        options: "data keywords k photos eps out index-cache index-cache-mode",
        help: "export    --data DIR --keywords w1,w2 --out FILE.geojson [--k 10]\n\
               \u{20}          [--photos 5] [--eps 0.0005]\n\
               \u{20}          [--index-cache DIR] [--index-cache-mode MODE]\n\
               \u{20}          Export the top-k streets (and a photo summary of the\n\
               \u{20}          winner) as GeoJSON for any web map.",
    },
    Command {
        name: "metrics",
        span: "cli.metrics",
        run: cmd_metrics,
        positional: false,
        options: "data keywords eps",
        help: "metrics   [--data DIR] [--keywords w1,w2] [--eps 0.0005]\n\
               \u{20}          Print process metrics in Prometheus text format (with\n\
               \u{20}          --data, first runs a small workload to populate them).",
    },
    Command {
        name: "check-artifacts",
        span: "cli.check_artifacts",
        run: cmd_check_artifacts,
        positional: false,
        options: "trace stats explain snapshot",
        help: "check-artifacts [--trace FILE.json] [--stats FILE.json] [--explain FILE.json]\n\
               \u{20}          [--snapshot FILE.soisnap]\n\
               \u{20}          Validate observability artifacts: a Chrome trace from\n\
               \u{20}          --trace-out, a telemetry file from --stats-json, an\n\
               \u{20}          explain artifact from `soi explain --json`, and/or an\n\
               \u{20}          index snapshot (section table + checksums) offline.",
    },
    // batch-max is read by nothing: benchmark/ still passes it (ROADMAP 1-I(a) drops it).
    Command {
        name: "serve",
        span: "cli.serve",
        run: cmd_serve,
        positional: false,
        options: "data addr threads io-threads queue deadline-ms max-deadline-ms eps rho \
                  index-cache index-cache-mode trace-sample slow-query-ms ring-capacity \
                  epoch-max-delta ingest-log stats-json batch-max",
        help: "serve     --data DIR [--addr 127.0.0.1:7878] [--threads N] [--io-threads 4]\n\
               \u{20}          [--queue 64] [--deadline-ms 250] [--max-deadline-ms 10000]\n\
               \u{20}          [--eps 0.0005] [--rho 0.0001]\n\
               \u{20}          [--trace-sample N] [--slow-query-ms MS] [--ring-capacity 256]\n\
               \u{20}          [--ingest-log FILE] [--epoch-max-delta 4096]\n\
               \u{20}          [--stats-json FILE] [--index-cache DIR] [--index-cache-mode MODE]\n\
               \u{20}          Serve queries over HTTP (POST /soi|/describe|/explain|/ingest,\n\
               \u{20}          GET /metrics|/status|/explain|/debug/requests) with\n\
               \u{20}          admission control, per-request deadlines (anytime partial\n\
               \u{20}          results), and graceful drain on SIGTERM. Every request\n\
               \u{20}          gets an x-soi-request-id; bodies may set \"trace\"/\n\
               \u{20}          \"explain\" to capture and embed per-request artifacts,\n\
               \u{20}          also retrievable at GET /debug/requests/<id>.\n\
               \u{20}          --trace-sample N traces 1-in-N queries into the ring;\n\
               \u{20}          --slow-query-ms logs+counts requests over the threshold.\n\
               \u{20}          --stats-json FILE writes the final report on shutdown.\n\
               \u{20}          --ingest-log FILE accepts live deltas at POST /ingest,\n\
               \u{20}          journals them, and folds a fresh epoch every\n\
               \u{20}          --epoch-max-delta pending ops (0 = never fold).\n\
               \u{20}          --batch-max N is accepted and ignored.",
    },
    Command {
        name: "ingest",
        span: "cli.ingest",
        run: cmd_ingest,
        positional: true,
        options: "file addr batch timeout-ms",
        help: "ingest    (FILE | --file FILE) --addr HOST:PORT [--batch 256] [--timeout-ms 5000]\n\
               \u{20}          Stream a JSON-lines delta file to a running server's\n\
               \u{20}          POST /ingest and report the resulting epoch.",
    },
    Command {
        name: "gen-deltas",
        span: "cli.gen_deltas",
        run: cmd_gen_deltas,
        positional: false,
        options: "data out ops seed del-ratio photo-ratio",
        help: "gen-deltas --data DIR --out FILE [--ops 256] [--seed 42]\n\
               \u{20}          [--del-ratio 0.2] [--photo-ratio 0.3]\n\
               \u{20}          Generate a deterministic JSON-lines delta stream (POI/\n\
               \u{20}          photo inserts and deletes) valid against DIR's dataset.",
    },
];

/// Drains the recorded trace events and writes them as Chrome
/// `trace_event` JSON (load via `chrome://tracing` or Perfetto).
fn write_trace(path: &str) -> Result<()> {
    trace::set_enabled(false);
    let events = trace::take_events();
    let doc = trace::chrome_trace_json(&events);
    std::fs::write(path, doc).at_path(path)?;
    log::event(
        "cli.trace",
        &format!("wrote trace to {path}"),
        &[
            ("events", Value::U64(events.len() as u64)),
            ("dropped", Value::U64(trace::dropped_events())),
        ],
    );
    Ok(())
}

fn print_help() -> Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "soi — identify and describe Streets of Interest (EDBT 2016)\n\n\
         USAGE: soi <command> [FILE] [--option value]...\n\n\
         COMMANDS"
    )?;
    for command in COMMANDS {
        writeln!(out, "{}", command.help)?;
    }
    writeln!(
        out,
        "\nINDEX CACHE (query, explain, batch, describe, export, serve)\n\
         --index-cache DIR        Load the index bundle from a versioned snapshot\n\
         \u{20}                        in DIR (built and cached on first use; stale\n\
         \u{20}                        snapshots rebuild transparently).\n\
         --index-cache-mode MODE  lenient (default: corrupt snapshots rebuild) or\n\
         \u{20}                        strict (corrupt snapshots fail, exit code 3).\n\n\
         OBSERVABILITY (any command)\n\
         --trace-out FILE   Record a Chrome trace_event JSON file of the run\n\
         \u{20}                  (open in chrome://tracing or ui.perfetto.dev).\n\
         --log-json         Emit stderr events as JSON lines (also SOI_LOG=json)."
    )?;
    Ok(())
}

fn load(args: &Args) -> Result<Dataset> {
    let _span = trace::span(spans::CLI_LOAD);
    soi_data::io::load_dataset(args.require("data")?)
}

fn parse_keywords(dataset: &Dataset, args: &Args) -> Result<soi_text::KeywordSet> {
    let raw = args.require("keywords")?;
    let words: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .collect();
    if words.is_empty() {
        return Err(SoiError::invalid(
            "--keywords must name at least one keyword",
        ));
    }
    let set = dataset.query_keywords(&words);
    if set.is_empty() {
        log::event(
            "cli.keywords",
            "note: none of the keywords occur in this dataset",
            &[("keywords", Value::Str(raw))],
        );
    }
    Ok(set)
}

/// The bundle parameters a query-path command implies: POI grid sized by
/// the command (usually `2ε`), photo grid at the describe cell size.
fn bundle_params(poi_cell: f64, threads: usize) -> BundleParams {
    BundleParams {
        poi_cell,
        pg_cell: POI_CELL,
        eps: None,
        with_ir: false,
        threads,
    }
}

/// Index acquisition shared by every query-path command: with
/// `--index-cache DIR` the bundle is loaded from a versioned snapshot
/// (built and persisted on a miss, transparently rebuilt when stale or —
/// in the default lenient mode — corrupt); without it the structures are
/// built fresh in memory as before. `poi_option` names where the POI cell
/// size came from (`--eps`, or `default`), for a usage error to quote
/// before anything is built.
fn acquire_bundle(
    args: &Args,
    dataset: &Dataset,
    params: &BundleParams,
    poi_option: &str,
) -> Result<IndexBundle> {
    params.check(dataset, [poi_option, "default"])?;
    let Some(dir) = args.get("index-cache") else {
        return Ok(soi_index::build_bundle(dataset, params));
    };
    let mode = match args.get("index-cache-mode").unwrap_or("lenient") {
        "lenient" => CacheMode::Lenient,
        "strict" => CacheMode::Strict,
        other => {
            return Err(SoiError::invalid(format!(
                "unknown --index-cache-mode {other:?} (expected lenient or strict)"
            )))
        }
    };
    let started = std::time::Instant::now();
    let (bundle, outcome) = IndexCache::new(dir, mode).load_or_build(dataset, params)?;
    log::event(
        "cli.index_cache",
        match outcome {
            CacheOutcome::Hit => "index bundle loaded from snapshot cache",
            CacheOutcome::MissBuilt => "index bundle built and cached",
            CacheOutcome::RebuiltCorrupt => "corrupt snapshot discarded; index bundle rebuilt",
        },
        &[
            ("dir", Value::Str(dir)),
            ("ms", Value::F64(started.elapsed().as_secs_f64() * 1e3)),
        ],
    );
    Ok(bundle)
}

fn cmd_generate(args: &Args) -> Result<()> {
    let city = args.require("city")?;
    let out = args.require("out")?;
    let scale: f64 = args.get_parsed("scale", 0.05)?;
    let mut config = match city {
        "london" => soi_datagen::london(scale),
        "berlin" => soi_datagen::berlin(scale),
        "vienna" => soi_datagen::vienna(scale),
        other => {
            return Err(SoiError::invalid(format!(
                "unknown city {other:?} (expected london, berlin, or vienna)"
            )))
        }
    };
    if let Some(seed) = args.get("seed") {
        config.seed = seed
            .parse()
            .map_err(|_| SoiError::invalid("--seed must be an integer"))?;
    }
    log::event(
        "cli.generate",
        &format!("generating {} at scale {scale}", config.name),
        &[
            ("city", Value::Str(&config.name)),
            ("scale", Value::F64(scale)),
            ("pois", Value::U64(config.n_pois as u64)),
            ("photos", Value::U64(config.n_photos as u64)),
        ],
    );
    let (dataset, truth) = soi_datagen::generate(&config);
    soi_data::io::save_dataset(&dataset, out)?;
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "wrote {} to {out}: {} segments, {} streets, {} POIs, {} photos",
        dataset.name,
        dataset.network.num_segments(),
        dataset.network.num_streets(),
        dataset.pois.len(),
        dataset.photos.len()
    )?;
    for (category, streets) in &truth.destinations {
        let names: Vec<&str> = streets
            .iter()
            .map(|&s| dataset.network.street(s).name.as_str())
            .collect();
        writeln!(
            stdout,
            "planted {category} destinations: {}",
            names.join(", ")
        )?;
    }
    Ok(())
}

fn cmd_build_index(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let threads: usize = args.get_parsed("threads", 0)?;
    let params = BundleParams {
        poi_cell: args.get_parsed("poi-cell", 2.0 * eps)?,
        pg_cell: args.get_parsed("pg-cell", POI_CELL)?,
        eps: None,
        with_ir: false,
        threads,
    };
    let poi_option = match args.get("poi-cell") {
        Some(_) => "--poi-cell",
        None => "--eps",
    };
    let pg_option = match args.get("pg-cell") {
        Some(_) => "--pg-cell",
        None => "default",
    };
    params.check(&dataset, [poi_option, pg_option])?;

    let build_started = std::time::Instant::now();
    let bundle = soi_index::build_bundle(&dataset, &params);
    let build = build_started.elapsed();

    let path = match (args.get("out"), args.get("index-cache")) {
        (Some(out), _) => std::path::PathBuf::from(out),
        (None, Some(dir)) => {
            let cache = IndexCache::new(dir, CacheMode::Lenient);
            std::fs::create_dir_all(cache.dir()).at_path(dir)?;
            cache.snapshot_path(&dataset, &params)
        }
        (None, None) => {
            return Err(SoiError::invalid(
                "build-index needs --out FILE or --index-cache DIR",
            ))
        }
    };
    let bytes = soi_index::write_bundle(&path, &dataset, &bundle, &params)?;

    // Reload immediately: verifies the file end-to-end and measures the
    // cold-start win over the fresh build. Stop the clock before the
    // outcome is dropped — tearing down the decoded bundle is not load
    // time (the fresh-build figure does not include its drop either).
    let load_started = std::time::Instant::now();
    let outcome = soi_index::read_bundle(&path, &dataset, &params)?;
    let loaded = load_started.elapsed();
    match outcome {
        soi_index::ReadOutcome::Loaded(_) => {}
        soi_index::ReadOutcome::Stale(reason) => {
            return Err(SoiError::invalid(format!(
                "freshly written snapshot reads back stale: {reason}"
            )))
        }
    }

    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "wrote {} ({bytes} bytes, {} sections: poi grid + photo grid)",
        path.display(),
        soi_snapshot::Snapshot::open(&path)?.sections().len(),
    )?;
    writeln!(
        out,
        "build {:.3}s, snapshot load {:.3}s ({:.1}x faster)",
        build.as_secs_f64(),
        loaded.as_secs_f64(),
        build.as_secs_f64() / loaded.as_secs_f64().max(1e-9)
    )?;
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let stats = NetworkStats::of(&dataset.network);
    let mut out = std::io::stdout().lock();
    writeln!(out, "dataset: {}", dataset.name)?;
    writeln!(out, "{stats}")?;
    writeln!(out, "POIs:     {}", dataset.pois.len())?;
    writeln!(out, "photos:   {}", dataset.photos.len())?;
    writeln!(out, "keywords: {}", dataset.vocab.len())?;
    Ok(())
}

fn print_outcome(dataset: &Dataset, outcome: &SoiOutcome) -> Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "rank  interest      mass  street")?;
    for (i, r) in outcome.results.iter().enumerate() {
        writeln!(
            out,
            "{:>4}  {:>12.1}  {:>6.1}  {}",
            i + 1,
            r.interest,
            r.best_segment_mass,
            dataset.network.street(r.street).name
        )?;
    }
    let t = &outcome.stats.timer;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    log::event(
        "query.done",
        "query done",
        &[
            ("results", Value::U64(outcome.results.len() as u64)),
            ("total_ms", Value::F64(ms(t.total()))),
            (
                "construction_ms",
                Value::F64(ms(t.duration(phases::CONSTRUCTION))),
            ),
            (
                "filtering_ms",
                Value::F64(ms(t.duration(phases::FILTERING))),
            ),
            (
                "refinement_ms",
                Value::F64(ms(t.duration(phases::REFINEMENT))),
            ),
        ],
    );
    Ok(())
}

fn cmd_query(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let keywords = parse_keywords(&dataset, args)?;
    let k: usize = args.get_parsed("k", 10)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let query = SoiQuery::new(keywords, k, eps)?;
    let index = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, 0), "--eps")?.poi;
    let outcome = match args.get("algo").unwrap_or("soi") {
        "soi" => run_soi(
            &dataset.network,
            &dataset.pois,
            &index,
            &query,
            &SoiConfig::default(),
        )?,
        "bl" => run_baseline(
            &dataset.network,
            &dataset.pois,
            &index,
            &query,
            StreetAggregate::Max,
        ),
        other => return Err(SoiError::invalid(format!("unknown --algo {other:?}"))),
    };
    print_outcome(&dataset, &outcome)
}

/// Renders the bound-convergence table of one explained k-SOI run, showing
/// at most `max_printed` evenly spaced rows (the termination row always
/// prints last).
fn print_soi_explain(out: &mut impl Write, explain: &SoiExplain, max_printed: usize) -> Result<()> {
    // SL2 lists runs of segments, or every segment under paper bounds.
    let sl2_unit = if explain.paper_bounds {
        "segments"
    } else {
        "runs"
    };
    writeln!(
        out,
        "lists: SL1={} cells, SL2={} {sl2_unit}, SL3={} segments",
        explain.lists.sl1, explain.lists.sl2, explain.lists.sl3
    )?;
    let bound = if explain.paper_bounds {
        "the paper's top(SL1)*top(SL2)/(2e*top(SL3)+pi*e^2), SL2 by |Ce| bound"
    } else {
        "top(SL2), the largest prefix-sum bound b of an unseen segment"
    };
    writeln!(
        out,
        "\nbound convergence ({} rows recorded; UB = {bound}):",
        explain.rows.len()
    )?;
    writeln!(
        out,
        "{:>7}  {:>4}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}  {:>6}  {:>6}",
        "access", "src", "UB", "LBk", "top(SL1)", "top(SL2)", "top(SL3)", "seen", "cells"
    )?;
    let step = explain.rows.len().div_ceil(max_printed.max(1)).max(1);
    for (i, row) in explain.rows.iter().enumerate() {
        if i % step != 0 && i != explain.rows.len() - 1 {
            continue;
        }
        writeln!(
            out,
            "{:>7}  {:>4}  {:>12.4}  {:>12.4}  {:>12.4}  {:>12.4}  {:>12.6}  {:>6}  {:>6}",
            row.access,
            soi_core::soi::explain::source_label(row.source),
            row.ub,
            row.lbk,
            row.top_sl1,
            row.top_sl2,
            row.top_sl3,
            row.segments_seen,
            row.cells_popped
        )?;
    }
    if let Some(t) = explain.termination {
        writeln!(
            out,
            "termination: UB {:.6} <= LBk {:.6} after {} accesses",
            t.ub, t.lbk, t.accesses
        )?;
    }
    if let Some(s) = &explain.stats {
        writeln!(
            out,
            "\ncounters: cells_popped={} segments_popped={} segments_seen={} \
             bounded_out={} finalized_filtering={} finalized_refinement={}",
            s.cells_popped,
            s.segments_popped,
            s.segments_seen,
            s.segments_bounded_out,
            s.segments_finalized_filtering,
            s.segments_finalized_refinement
        )?;
        let ms = |p: &str| s.timer.duration(p).as_secs_f64() * 1e3;
        writeln!(
            out,
            "phases: construction {:.2}ms, filtering {:.2}ms, refinement {:.2}ms",
            ms(phases::CONSTRUCTION),
            ms(phases::FILTERING),
            ms(phases::REFINEMENT)
        )?;
    }
    Ok(())
}

/// Renders the per-greedy-round cell-filter report of one explained Alg. 2
/// run.
fn print_describe_explain(
    out: &mut impl Write,
    street_name: &str,
    explain: &DescribeExplain,
) -> Result<()> {
    writeln!(
        out,
        "\ndescribe explain for {street_name:?} ({} rounds):",
        explain.rounds.len()
    )?;
    writeln!(
        out,
        "{:>5}  {:>5}  {:>8}  {:>8}  {:>8}  {:>7}  {:>10}  {:>7}",
        "round", "cells", "prunedF", "refined", "prunedR", "photos", "best_mmr", "photo"
    )?;
    for r in &explain.rounds {
        writeln!(
            out,
            "{:>5}  {:>5}  {:>8}  {:>8}  {:>8}  {:>7}  {:>10}  {:>7}",
            r.round,
            r.cells_candidate,
            r.cells_pruned_filtering,
            r.cells_refined,
            r.cells_pruned_refinement,
            r.photos_scored,
            r.best_mmr
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4}")),
            r.selected
                .map_or_else(|| "-".to_string(), |p| format!("#{}", p.raw()))
        )?;
    }
    if let Some(s) = &explain.stats {
        writeln!(
            out,
            "totals: photos_evaluated={} cells_refined={} pruned_filtering={} pruned_refinement={}",
            s.photos_evaluated,
            s.cells_refined,
            s.cells_pruned_filtering,
            s.cells_pruned_refinement
        )?;
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let keywords = parse_keywords(&dataset, args)?;
    let k: usize = args.get_parsed("k", 10)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let query = SoiQuery::new(keywords, k, eps)?;
    let bundle = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, 0), "--eps")?;
    let index = bundle.poi;

    let mut explain = SoiExplain::default();
    let scope = soi_obs::AllocScope::start();
    let outcome = run_soi_full(
        &dataset.network,
        &dataset.pois,
        &index,
        &query,
        &SoiConfig::default(),
        &mut SoiScratch::default(),
        Some(&mut explain),
        QueryBudget::unlimited(),
    )?;
    let alloc = scope.finish();

    // Optionally explain Alg. 2 on the winning street.
    let mut describe: Option<(String, DescribeExplain)> = None;
    if args.flag("describe") {
        match outcome.results.first() {
            None => log::event(
                "explain.describe",
                "no street matched the query; nothing to describe",
                &[],
            ),
            Some(top) => {
                let ctx = ContextBuilder {
                    network: &dataset.network,
                    photos: &dataset.photos,
                    photo_grid: &bundle.photo_grid,
                    pois: Some(&dataset.pois),
                    eps,
                    rho: args.get_parsed("rho", DEFAULT_RHO)?,
                    phi_source: PhiSource::Photos,
                }
                .build(top.street)?;
                let params = DescribeParams::new(args.get_parsed("photos", 5)?, 0.5, 0.5)?;
                let mut dex = DescribeExplain::default();
                let _ = st_rel_div_full(
                    &ctx,
                    &dataset.photos,
                    &params,
                    &mut DescribeScratch::default(),
                    Some(&mut dex),
                    QueryBudget::unlimited(),
                )?;
                let name = dataset.network.street(top.street).name.clone();
                describe = Some((name, dex));
            }
        }
    }

    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "k-SOI explain: k={} eps={} keywords={}",
        explain.k, explain.eps, explain.keywords
    )?;
    print_soi_explain(&mut out, &explain, 40)?;
    writeln!(
        out,
        "memory: {} allocations, {} bytes allocated, peak {} bytes above baseline",
        alloc.allocs, alloc.allocated_bytes, alloc.peak_bytes
    )?;
    writeln!(out, "\ntop-{} streets:", outcome.results.len())?;
    for (i, r) in outcome.results.iter().enumerate() {
        writeln!(
            out,
            "{:>4}  {:>12.1}  {}",
            i + 1,
            r.interest,
            dataset.network.street(r.street).name
        )?;
    }
    if let Some((name, dex)) = &describe {
        print_describe_explain(&mut out, name, dex)?;
    }

    if let Some(path) = args.get("json") {
        let mut doc = json::JsonWriter::object();
        doc.field_raw("soi", &explain.to_json());
        if let Some((_, dex)) = &describe {
            doc.field_raw("describe", &dex.to_json());
        }
        let mut mem = json::JsonWriter::object();
        mem.field_u64("allocations", alloc.allocs);
        mem.field_u64("allocated_bytes", alloc.allocated_bytes);
        mem.field_u64("peak_bytes", alloc.peak_bytes);
        doc.field_raw("alloc", &mem.finish());
        std::fs::write(path, doc.finish()).at_path(path)?;
        writeln!(out, "\nwrote explain artifact to {path}")?;
    }
    Ok(())
}

/// Parses one query file line (`keywords<TAB>k[<TAB>eps]`) into a query.
fn parse_batch_line(
    dataset: &Dataset,
    lineno: usize,
    line: &str,
    default_eps: f64,
) -> Result<SoiQuery> {
    let invalid = |what: &str| SoiError::invalid(format!("queries line {lineno}: {what}"));
    let mut fields = line.split('\t');
    let raw_kws = fields.next().unwrap_or("");
    let words: Vec<&str> = raw_kws
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .collect();
    if words.is_empty() {
        return Err(invalid("missing keywords"));
    }
    let k: usize = match fields.next() {
        None => 10,
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| invalid(&format!("invalid k {raw:?}")))?,
    };
    let eps: f64 = match fields.next() {
        None => default_eps,
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| invalid(&format!("invalid eps {raw:?}")))?,
    };
    if let Some(extra) = fields.next() {
        return Err(invalid(&format!("unexpected extra field {extra:?}")));
    }
    SoiQuery::new(dataset.query_keywords(&words), k, eps)
        .map_err(|e| invalid(&format!("invalid query ({e})")))
}

fn cmd_batch(args: &Args) -> Result<()> {
    let path = args
        .positional()
        .or(args.get("queries"))
        .ok_or_else(|| SoiError::invalid("batch needs a queries file: soi batch FILE.tsv"))?;
    let dataset = load(args)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let threads: usize = args.get_parsed("threads", 0)?;

    // Parse every line, keeping failures as per-input error records
    // instead of aborting the whole batch on the first bad line. A record
    // carries the 0-based input slot (position among query lines) so it
    // lines up with the engine's `error_records`, plus the 1-based file
    // line in the message for humans.
    let text = std::fs::read_to_string(path).at_path(path)?;
    let mut queries = Vec::new();
    let mut slot_of_valid = Vec::new();
    let mut parse_records = Vec::new();
    let mut input_slots = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let slot = input_slots;
        input_slots += 1;
        match parse_batch_line(&dataset, i + 1, line, eps) {
            Ok(query) => {
                slot_of_valid.push(slot);
                queries.push(query);
            }
            Err(e) => parse_records.push(soi_engine::BatchErrorRecord {
                index: slot,
                stage: "parse",
                category: e.category().to_string(),
                message: e.to_string(),
            }),
        }
    }
    if input_slots == 0 {
        return Err(SoiError::invalid(format!("{path}: no queries found")));
    }
    if queries.is_empty() {
        return Err(SoiError::invalid(format!(
            "{path}: every query line failed to parse ({} errors); first: {}",
            parse_records.len(),
            parse_records[0].message
        )));
    }

    let index = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, threads), "--eps")?.poi;
    let engine = QueryEngine::new(threads);
    let ctx = std::sync::Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
    let mut batch = engine.run_soi_batch(&ctx, &queries);

    let mut out = std::io::stdout().lock();
    for rec in &parse_records {
        writeln!(out, "query {}: parse error: {}", rec.index + 1, rec.message)?;
    }
    for (i, (query, result)) in queries.iter().zip(&batch.results).enumerate() {
        let slot = slot_of_valid[i];
        match result {
            Ok(outcome) => {
                writeln!(
                    out,
                    "query {}: k={} -> {} streets",
                    slot + 1,
                    query.k,
                    outcome.results.len()
                )?;
                for (rank, r) in outcome.results.iter().enumerate() {
                    writeln!(
                        out,
                        "  {:>3}. {:>10.1}  {}",
                        rank + 1,
                        r.interest,
                        dataset.network.street(r.street).name
                    )?;
                }
            }
            Err(e) => writeln!(out, "query {}: error: {e}", slot + 1)?,
        }
    }
    // The stats artifact reports every failure of the run against its
    // input slot: engine records are remapped from valid-query indices to
    // input slots, then merged with the parse-stage records.
    for rec in &mut batch.telemetry.error_records {
        rec.index = slot_of_valid[rec.index];
    }
    let parse_errors = parse_records.len();
    parse_records.append(&mut batch.telemetry.error_records);
    parse_records.sort_by_key(|r| r.index);
    batch.telemetry.error_records = parse_records;
    if let Some(stats_path) = args.get("stats-json") {
        std::fs::write(stats_path, batch.telemetry.to_json()).at_path(stats_path)?;
    }
    let s = &batch.stats;
    log::event(
        "batch.done",
        "batch done",
        &[
            ("queries", Value::U64(s.queries as u64)),
            ("threads", Value::U64(s.threads as u64)),
            ("wall_ms", Value::F64(s.wall_time.as_secs_f64() * 1e3)),
            ("queries_per_second", Value::F64(s.queries_per_second())),
            ("errors", Value::U64(s.errors as u64)),
            ("parse_errors", Value::U64(parse_errors as u64)),
            ("partials", Value::U64(s.partials as u64)),
        ],
    );
    Ok(())
}

fn top_street(
    dataset: &Dataset,
    index: &PoiIndex,
    keywords: soi_text::KeywordSet,
    eps: f64,
) -> Result<soi_common::StreetId> {
    let query = SoiQuery::new(keywords, 1, eps)?;
    let out = run_soi(
        &dataset.network,
        &dataset.pois,
        index,
        &query,
        &SoiConfig::default(),
    )?;
    out.results
        .first()
        .map(|r| r.street)
        .ok_or_else(|| SoiError::not_found("no street matches the query keywords"))
}

fn cmd_describe(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let rho: f64 = args.get_parsed("rho", DEFAULT_RHO)?;
    let k: usize = args.get_parsed("photos", 5)?;
    let lambda: f64 = args.get_parsed("lambda", 0.5)?;
    let w: f64 = args.get_parsed("w", 0.5)?;

    let bundle = acquire_bundle(args, &dataset, &bundle_params(POI_CELL, 0), "default")?;
    let street = match args.get("street") {
        Some(name) => dataset
            .street_by_name(name)
            .ok_or_else(|| SoiError::not_found(format!("street {name:?}")))?,
        None => {
            let keywords = parse_keywords(&dataset, args)?;
            top_street(&dataset, &bundle.poi, keywords, eps)?
        }
    };

    let ctx = ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid: &bundle.photo_grid,
        pois: Some(&dataset.pois),
        eps,
        rho,
        phi_source: PhiSource::Photos,
    }
    .build(street)?;
    let params = DescribeParams::new(k, lambda, w)?;
    let out = st_rel_div(&ctx, &dataset.photos, &params)?;

    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "street: {} ({} photos within ε)",
        dataset.network.street(street).name,
        ctx.members.len()
    )?;
    writeln!(
        stdout,
        "summary of {} photos (F = {:.4}):",
        out.selected.len(),
        out.objective
    )?;
    for &pid in &out.selected {
        let photo = dataset.photos.get(pid);
        let tags: Vec<&str> = photo
            .tags
            .iter()
            .filter_map(|t| dataset.vocab.term(t))
            .collect();
        writeln!(
            stdout,
            "  photo #{} at ({:.5}, {:.5}) tags: {}",
            pid.raw(),
            photo.pos.x,
            photo.pos.y,
            tags.join(", ")
        )?;
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let out = args.require("out")?;
    let keywords = parse_keywords(&dataset, args)?;
    let k: usize = args.get_parsed("k", 10)?;
    let n_photos: usize = args.get_parsed("photos", 5)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;

    let bundle = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, 0), "--eps")?;
    let query = SoiQuery::new(keywords, k, eps)?;
    let outcome = run_soi(
        &dataset.network,
        &dataset.pois,
        &bundle.poi,
        &query,
        &SoiConfig::default(),
    )?;
    let network = &dataset.network;
    let streets_doc = feature_collection(outcome.results.iter().enumerate().map(|(i, r)| {
        // One line per segment, robust to any segment orientation.
        let street = network.street(r.street);
        let mut lines = json::JsonWriter::array();
        for &sid in &street.segments {
            let g = network.segment(sid).geom;
            let mut line = json::JsonWriter::array();
            line.elem_raw(&position(g.a));
            line.elem_raw(&position(g.b));
            lines.elem_raw(&line.finish());
        }
        let mut props = json::JsonWriter::object();
        props.field_str("name", &street.name);
        props.field_u64("street_id", u64::from(r.street.raw()));
        props.field_u64("rank", i as u64 + 1);
        props.field_f64("interest", r.interest);
        feature("MultiLineString", &lines.finish(), props)
    }));
    std::fs::write(out, &streets_doc).at_path(out)?;
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "wrote {} streets to {out}", outcome.results.len())?;

    if let Some(top) = outcome.results.first().map(|r| r.street) {
        let ctx = ContextBuilder {
            network: &dataset.network,
            photos: &dataset.photos,
            photo_grid: &bundle.photo_grid,
            pois: Some(&dataset.pois),
            eps,
            rho: DEFAULT_RHO,
            phi_source: PhiSource::Photos,
        }
        .build(top)?;
        if !ctx.members.is_empty() {
            let params = DescribeParams::new(n_photos, 0.5, 0.5)?;
            let summary = st_rel_div(&ctx, &dataset.photos, &params)?;
            let photo_doc = feature_collection(summary.selected.iter().map(|&pid| {
                let photo = dataset.photos.get(pid);
                let tags: Vec<&str> = photo
                    .tags
                    .iter()
                    .filter_map(|t| dataset.vocab.term(t))
                    .collect();
                let mut props = json::JsonWriter::object();
                props.field_u64("photo_id", u64::from(pid.raw()));
                props.field_str("tags", &tags.join(","));
                feature("Point", &position(photo.pos), props)
            }));
            let photo_path = format!("{out}.photos.geojson");
            std::fs::write(&photo_path, &photo_doc).at_path(&photo_path)?;
            writeln!(
                stdout,
                "wrote {}-photo summary of {:?} to {photo_path}",
                summary.selected.len(),
                dataset.network.street(top).name
            )?;
        }
    }
    Ok(())
}

/// A GeoJSON FeatureCollection of rendered features.
fn feature_collection(features: impl Iterator<Item = String>) -> String {
    let mut list = json::JsonWriter::array();
    for f in features {
        list.elem_raw(&f);
    }
    let mut doc = json::JsonWriter::object();
    doc.field_str("type", "FeatureCollection");
    doc.field_raw("features", &list.finish());
    doc.finish()
}

/// A GeoJSON Feature of one geometry and its properties.
fn feature(geometry: &str, coordinates: &str, properties: json::JsonWriter) -> String {
    let mut geom = json::JsonWriter::object();
    geom.field_str("type", geometry);
    geom.field_raw("coordinates", coordinates);
    let mut f = json::JsonWriter::object();
    f.field_str("type", "Feature");
    f.field_raw("geometry", &geom.finish());
    f.field_raw("properties", &properties.finish());
    f.finish()
}

/// A GeoJSON position `[x, y]`.
fn position(p: soi_geo::Point) -> String {
    let mut w = json::JsonWriter::array();
    w.elem_f64(p.x);
    w.elem_f64(p.y);
    w.finish()
}

fn cmd_metrics(args: &Args) -> Result<()> {
    // Force-register every series so a gather before the first query still
    // exposes the full set (with zero values).
    soi_core::obs::register_metrics();
    soi_index::obs::register_metrics();
    soi_engine::obs::register_metrics();
    // Pins the process epoch and registers the uptime / build-info /
    // trace-dropped-events series.
    soi_obs::metrics::publish_process_metrics(env!("CARGO_PKG_VERSION"));
    if args.get("data").is_some() {
        // Populate the instruments with a small real workload: an index
        // build and — when keywords are given — one k-SOI query through
        // the engine (which also feeds the per-query allocation
        // histograms).
        let dataset = load(args)?;
        let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
        bundle_params(2.0 * eps, 0).check(&dataset, ["--eps", "default"])?;
        let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);
        if args.get("keywords").is_some() {
            let keywords = parse_keywords(&dataset, args)?;
            let query = SoiQuery::new(keywords, 10, eps)?;
            let engine = QueryEngine::new(1);
            let ctx =
                std::sync::Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
            let batch = engine.run_soi_batch(&ctx, std::slice::from_ref(&query));
            for result in batch.results {
                result?;
            }
        }
    }
    // Export allocator totals last so the gauges reflect the workload
    // above, and refresh the uptime gauge just before the gather.
    soi_obs::alloc::publish_metrics();
    soi_obs::metrics::publish_process_metrics(env!("CARGO_PKG_VERSION"));
    let mut out = std::io::stdout().lock();
    out.write_all(soi_obs::metrics::gather().as_bytes())?;
    Ok(())
}

/// Validates a Chrome trace file written by `--trace-out`: well-formed
/// JSON with a non-empty `traceEvents` array whose events all carry the
/// fields the trace viewers require. Returns the event count.
fn check_trace_file(path: &str) -> Result<u64> {
    let text = std::fs::read_to_string(path).at_path(path)?;
    let bad = |what: &str| SoiError::invalid(format!("{path}: {what}"));
    let doc = json::parse(&text).map_err(|e| bad(&format!("not valid JSON ({e})")))?;
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_arr)
        .ok_or_else(|| bad("missing traceEvents array"))?;
    if events.is_empty() {
        return Err(bad("traceEvents is empty"));
    }
    for (i, ev) in events.iter().enumerate() {
        let has_str = |k: &str| ev.get(k).and_then(json::Json::as_str).is_some();
        let has_num = |k: &str| ev.get(k).and_then(json::Json::as_f64).is_some();
        if !(has_str("name") && has_str("ph") && has_num("ts") && has_num("pid") && has_num("tid"))
        {
            return Err(bad(&format!(
                "traceEvents[{i}] is missing name/ph/ts/pid/tid"
            )));
        }
    }
    Ok(events.len() as u64)
}

/// Validates a telemetry file written by `batch --stats-json`. Returns
/// the query count.
fn check_stats_file(path: &str) -> Result<u64> {
    let text = std::fs::read_to_string(path).at_path(path)?;
    let bad = |what: &str| SoiError::invalid(format!("{path}: {what}"));
    let doc = json::parse(&text).map_err(|e| bad(&format!("not valid JSON ({e})")))?;
    let queries = doc
        .get("queries")
        .and_then(json::Json::as_f64)
        .ok_or_else(|| bad("missing numeric queries field"))?;
    for section in ["counters", "latency"] {
        if doc.get(section).is_none() {
            return Err(bad(&format!("missing {section} object")));
        }
    }
    if doc.get("latency").and_then(|l| l.get("samples")).is_none() {
        return Err(bad("latency object is missing samples"));
    }
    Ok(queries as u64)
}

/// Validates an explain artifact written by `explain --json`. Checks that
/// the bound trajectory is well-formed and actually converged: every row
/// carries numeric bounds, and the recorded termination satisfies
/// UB ≤ LBk. Returns the row count.
fn check_explain_file(path: &str) -> Result<u64> {
    let text = std::fs::read_to_string(path).at_path(path)?;
    let bad = |what: &str| SoiError::invalid(format!("{path}: {what}"));
    let doc = json::parse(&text).map_err(|e| bad(&format!("not valid JSON ({e})")))?;
    let soi = doc.get("soi").ok_or_else(|| bad("missing soi object"))?;
    let rows = soi
        .get("rows")
        .and_then(json::Json::as_arr)
        .ok_or_else(|| bad("soi object is missing rows array"))?;
    if rows.is_empty() {
        return Err(bad("soi.rows is empty"));
    }
    for (i, row) in rows.iter().enumerate() {
        let has_num = |k: &str| row.get(k).and_then(json::Json::as_f64).is_some();
        if !(has_num("access") && has_num("ub") && has_num("lbk")) {
            return Err(bad(&format!("soi.rows[{i}] is missing access/ub/lbk")));
        }
    }
    let term = soi
        .get("termination")
        .ok_or_else(|| bad("soi object is missing termination"))?;
    let num = |k: &str| {
        term.get(k)
            .and_then(json::Json::as_f64)
            .ok_or_else(|| bad(&format!("termination is missing numeric {k}")))
    };
    let (ub, lbk) = (num("ub")?, num("lbk")?);
    if ub > lbk + 1e-9 {
        return Err(bad(&format!(
            "termination did not converge: UB {ub} > LBk {lbk}"
        )));
    }
    if term.get("converged") != Some(&json::Json::Bool(true)) {
        return Err(bad("termination.converged is not true"));
    }
    // The trajectory's last row must itself satisfy the bound condition.
    if let Some(last) = rows.last() {
        let row_num = |k: &str| last.get(k).and_then(json::Json::as_f64).unwrap_or(f64::NAN);
        let (row_ub, row_lbk) = (row_num("ub"), row_num("lbk"));
        let row_converged = row_ub.is_finite() && row_lbk.is_finite() && row_ub <= row_lbk + 1e-9;
        if !row_converged {
            return Err(bad("final trajectory row has UB > LBk"));
        }
    }
    if let Some(describe) = doc.get("describe") {
        if describe
            .get("rounds")
            .and_then(json::Json::as_arr)
            .is_none()
        {
            return Err(bad("describe object is missing rounds array"));
        }
    }
    Ok(rows.len() as u64)
}

/// Validates an index snapshot offline: container magic/version/endianness,
/// the section table (bounds, alignment, overlaps), and every section's
/// payload checksum — all enforced eagerly by [`soi_snapshot::Snapshot::open`].
/// Returns (section count, file bytes).
fn check_snapshot_file(path: &str) -> Result<(u64, u64)> {
    let snapshot = soi_snapshot::Snapshot::open(path)?;
    Ok((snapshot.sections().len() as u64, snapshot.file_len()))
}

fn cmd_check_artifacts(args: &Args) -> Result<()> {
    let trace_path = args.get("trace");
    let stats_path = args.get("stats");
    let explain_path = args.get("explain");
    let snapshot_path = args.get("snapshot");
    if trace_path.is_none()
        && stats_path.is_none()
        && explain_path.is_none()
        && snapshot_path.is_none()
    {
        return Err(SoiError::invalid(
            "check-artifacts needs --trace FILE, --stats FILE, --explain FILE, \
             and/or --snapshot FILE",
        ));
    }
    let mut out = std::io::stdout().lock();
    if let Some(path) = snapshot_path {
        let (sections, bytes) = check_snapshot_file(path)?;
        writeln!(
            out,
            "snapshot ok: {path} ({sections} sections, {bytes} bytes, all checksums verified)"
        )?;
    }
    if let Some(path) = trace_path {
        let events = check_trace_file(path)?;
        writeln!(out, "trace ok: {path} ({events} events)")?;
    }
    if let Some(path) = stats_path {
        let queries = check_stats_file(path)?;
        writeln!(out, "stats ok: {path} ({queries} queries)")?;
    }
    if let Some(path) = explain_path {
        let rows = check_explain_file(path)?;
        writeln!(out, "explain ok: {path} ({rows} trajectory rows)")?;
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<()> {
    use std::time::Duration;
    let dataset = load(args)?;
    let slow_query_ms: u64 = args.get_parsed("slow-query-ms", 0u64)?;
    let config = soi_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        engine_threads: args.get_parsed("threads", 0usize)?,
        io_threads: args.get_parsed("io-threads", 4usize)?,
        queue_capacity: args.get_parsed("queue", 64usize)?,
        default_deadline: Duration::from_millis(args.get_parsed("deadline-ms", 250u64)?),
        max_deadline: Duration::from_millis(args.get_parsed("max-deadline-ms", 10_000u64)?),
        eps: args.get_parsed("eps", DEFAULT_EPS)?,
        rho: args.get_parsed("rho", DEFAULT_RHO)?,
        index_cache: args.get("index-cache").map(std::path::PathBuf::from),
        index_cache_strict: matches!(args.get("index-cache-mode"), Some("strict")),
        trace_sample: args.get_parsed("trace-sample", 0u64)?,
        slow_query: (slow_query_ms > 0).then(|| Duration::from_millis(slow_query_ms)),
        ring_capacity: args.get_parsed("ring-capacity", 256usize)?,
        epoch_max_delta: args.get_parsed("epoch-max-delta", 4096usize)?,
        ingest_log: args.get("ingest-log").map(std::path::PathBuf::from),
        ..soi_serve::ServeConfig::default()
    };
    if let Some(mode) = args.get("index-cache-mode") {
        if mode != "strict" && mode != "lenient" {
            return Err(SoiError::invalid(format!(
                "unknown --index-cache-mode {mode:?} (expected lenient or strict)"
            )));
        }
    }
    soi_serve::signal::install_handlers();
    let report = soi_serve::serve(
        &dataset,
        &config,
        soi_serve::signal::shutdown_flag(),
        |addr| {
            // Scripts scrape this line for the bound port (port 0 picks a
            // free one), so it must reach the pipe before traffic starts.
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "listening on {addr}");
            let _ = out.flush();
        },
    )?;
    if let Some(stats_path) = args.get("stats-json") {
        std::fs::write(stats_path, report.to_json()).at_path(stats_path)?;
    }
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "drained: {} requests ({} shed, {} rejected, {} partial, {} errors, {} panics)",
        report.requests,
        report.sheds,
        report.rejected,
        report.partials,
        report.errors,
        report.panics
    )?;
    Ok(())
}

/// `soi ingest FILE --addr HOST:PORT`: streams a JSON-lines delta file to
/// a running server's `POST /ingest`, in batches.
fn cmd_ingest(args: &Args) -> Result<()> {
    use std::time::Duration;
    let path = args.positional().or(args.get("file")).ok_or_else(|| {
        SoiError::invalid("ingest needs a delta file: soi ingest FILE --addr ...")
    })?;
    let addr: std::net::SocketAddr = args
        .require("addr")?
        .parse()
        .map_err(|_| SoiError::invalid("--addr must be HOST:PORT"))?;
    let timeout = Duration::from_millis(args.get_parsed("timeout-ms", 5000u64)?);
    let batch: usize = args.get_parsed("batch", 256usize)?;
    let text = std::fs::read_to_string(path).at_path(path)?;
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if lines.is_empty() {
        return Err(SoiError::invalid(format!("no delta lines in {path}")));
    }
    let mut out = std::io::stdout().lock();
    let mut sent = 0usize;
    let mut folds = 0u64;
    let mut last_epoch = 0u64;
    for chunk in lines.chunks(batch.max(1)) {
        let body = chunk.join("\n");
        let response = soi_serve::client::request(addr, "POST", "/ingest", Some(&body), timeout)?;
        if response.status != 200 {
            return Err(SoiError::invalid(format!(
                "/ingest answered {} after {} of {} ops accepted: {}",
                response.status,
                sent,
                lines.len(),
                response.body
            )));
        }
        sent += chunk.len();
        if let Ok(doc) = json::parse(&response.body) {
            if let Some(e) = doc.get("epoch").and_then(|v| v.as_f64()) {
                last_epoch = e as u64;
            }
            if doc.get("folded").and_then(|v| v.as_bool()) == Some(true) {
                folds += 1;
            }
        }
    }
    writeln!(
        out,
        "ingested {} ops in {} batches ({} folds); server epoch {}",
        sent,
        lines.len().div_ceil(batch.max(1)),
        folds,
        last_epoch
    )?;
    Ok(())
}

/// A tiny deterministic RNG (splitmix64) so `gen-deltas` needs no
/// external dependency and the same seed always emits the same stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (0 when `n` is 0).
    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }
}

/// `soi gen-deltas --data DIR --out FILE`: writes a deterministic
/// JSON-lines delta stream (POI/photo inserts and deletes) valid against
/// the dataset regardless of where the server folds epochs: insert
/// positions are convex combinations of existing POI positions (always
/// inside the index extent), and delete ids are distinct values below
/// `len - total_deletes`, so they stay in range however the dense-id
/// reassignment of intervening folds lands.
fn cmd_gen_deltas(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let out_path = args.require("out")?;
    let total: usize = args.get_parsed("ops", 256usize)?;
    let seed: u64 = args.get_parsed("seed", 42u64)?;
    let del_ratio: f64 = args.get_parsed("del-ratio", 0.2f64)?;
    let photo_ratio: f64 = args.get_parsed("photo-ratio", 0.3f64)?;
    if !(0.0..=1.0).contains(&del_ratio) || !(0.0..=1.0).contains(&photo_ratio) {
        return Err(SoiError::invalid(
            "--del-ratio and --photo-ratio must lie in [0, 1]",
        ));
    }
    if dataset.pois.is_empty() {
        return Err(SoiError::invalid(
            "gen-deltas needs a dataset with POIs to sample positions from",
        ));
    }
    let mut rng = SplitMix64(seed);

    // Budget the deletes up front so ids can be chosen distinct and
    // fold-proof: any delete id stays below the smallest size the
    // collection can shrink to.
    let dels = ((total as f64) * del_ratio) as usize;
    let photo_dels = (((dels as f64) * photo_ratio) as usize).min(dataset.photos.len() / 2);
    let poi_dels = (dels - ((dels as f64) * photo_ratio) as usize).min(dataset.pois.len() / 2);
    let pick_distinct = |rng: &mut SplitMix64, count: usize, bound: usize| -> Vec<usize> {
        let mut taken = std::collections::HashSet::new();
        let mut ids = Vec::with_capacity(count);
        while ids.len() < count {
            let id = rng.below(bound);
            if taken.insert(id) {
                ids.push(id);
            }
        }
        ids
    };
    let mut poi_del_ids = pick_distinct(&mut rng, poi_dels, dataset.pois.len() - poi_dels);
    let mut photo_del_ids = pick_distinct(
        &mut rng,
        photo_dels,
        (dataset.photos.len() - photo_dels).max(1),
    );

    let sample_pos = |rng: &mut SplitMix64| {
        let a = dataset
            .pois
            .get(soi_common::PoiId::from_index(rng.below(dataset.pois.len())));
        let b = dataset
            .pois
            .get(soi_common::PoiId::from_index(rng.below(dataset.pois.len())));
        let t = rng.next_f64();
        soi_geo::Point::new(
            a.pos.x + (b.pos.x - a.pos.x) * t,
            a.pos.y + (b.pos.y - a.pos.y) * t,
        )
    };
    let sample_terms = |rng: &mut SplitMix64| -> Vec<usize> {
        let vocab = dataset.vocab.len();
        (0..1 + rng.below(3))
            .map(|_| rng.below(vocab.max(1)))
            .filter(|_| vocab > 0)
            .collect()
    };
    let render_ids = |ids: &[usize]| {
        let body: Vec<String> = ids.iter().map(usize::to_string).collect();
        format!("[{}]", body.join(","))
    };

    let mut lines = Vec::with_capacity(total);
    let mut counts = [0u64; 4];
    for _ in 0..total {
        // Spend the delete budgets uniformly across the stream, adds fill
        // the rest (photo adds at --photo-ratio).
        let remaining = total - lines.len();
        let budget = poi_del_ids.len() + photo_del_ids.len();
        let line = if budget > 0 && rng.below(remaining) < budget {
            let take_photo = rng.below(budget) < photo_del_ids.len();
            if take_photo {
                counts[3] += 1;
                let id = photo_del_ids.pop().unwrap_or_default();
                format!("{{\"op\":\"del_photo\",\"id\":{id}}}")
            } else {
                counts[2] += 1;
                let id = poi_del_ids.pop().unwrap_or_default();
                format!("{{\"op\":\"del_poi\",\"id\":{id}}}")
            }
        } else {
            let pos = sample_pos(&mut rng);
            let terms = render_ids(&sample_terms(&mut rng));
            if rng.next_f64() < photo_ratio {
                counts[1] += 1;
                format!(
                    "{{\"op\":\"add_photo\",\"x\":{},\"y\":{},\"tags\":{terms}}}",
                    pos.x, pos.y
                )
            } else {
                counts[0] += 1;
                format!(
                    "{{\"op\":\"add_poi\",\"x\":{},\"y\":{},\"kw\":{terms},\"weight\":1.0}}",
                    pos.x, pos.y
                )
            }
        };
        lines.push(line);
    }
    // Every line must round-trip the real parser before it is written —
    // a generator that emits rejectable ops poisons whole ingest batches.
    for (i, line) in lines.iter().enumerate() {
        soi_index::DeltaOp::parse_line(line, &dataset.vocab)
            .map_err(|e| SoiError::invalid(format!("generated line {}: {e}", i + 1)))?;
    }
    let mut doc = lines.join("\n");
    doc.push('\n');
    std::fs::write(out_path, doc).at_path(out_path)?;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "wrote {} delta ops to {out_path} (add_poi {}, add_photo {}, del_poi {}, del_photo {}; seed {seed})",
        total, counts[0], counts[1], counts[2], counts[3]
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;

    #[test]
    fn help_names_every_option_a_command_reads() {
        for command in COMMANDS {
            assert!(
                command.help.starts_with(command.name),
                "{}: {}",
                command.name,
                command.help
            );
            for option in command.options.split_whitespace() {
                assert!(
                    command
                        .help
                        .split(|c: char| !(c.is_alphanumeric() || c == '-'))
                        .any(|word| word.strip_prefix("--") == Some(option)),
                    "`soi help` does not name {} --{option}",
                    command.name
                );
            }
        }
    }
}
