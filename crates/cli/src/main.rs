//! `soi` — command-line interface to the streets-of-interest library.
//!
//! ```text
//! soi generate --city london --scale 0.05 --out data/london
//! soi stats    --data data/london
//! soi query    --data data/london --keywords shop --k 10
//! soi batch    queries.tsv --data data/london --threads 4
//! soi describe --data data/london --keywords shop --photos 5
//! ```
//!
//! Each command is a module of its own (`query.rs`, `serve.rs`, …) behind
//! the [`COMMANDS`] table; this file holds the table, the dispatch, `soi
//! help`, and what several commands share.

// The CLI must always exit with a structured error, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod args;
mod batch;
mod build_index;
mod check_artifacts;
mod describe;
mod explain;
mod export;
mod gen_deltas;
mod generate;
mod ingest;
mod metrics;
mod query;
mod serve;
mod stats;

use std::io::Write;

use args::Args;
use soi_common::{Result, ResultExt, SoiError};
use soi_core::soi::{run_soi, SoiOutcome, SoiQuery};
use soi_data::{Dataset, Photo};
use soi_index::{BundleParams, IndexBundle, IndexCache, PoiIndex};
use soi_obs::log::{self, LogMode, Value};
use soi_obs::names::spans;
use soi_obs::trace;

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
        run: generate::run,
        positional: false,
        options: "city out scale seed",
        help: "generate  --city london|berlin|vienna --out DIR [--scale 0.05] [--seed N]\n\
               \u{20}          Generate a synthetic city dataset and save it.",
    },
    Command {
        name: "build-index",
        span: "cli.build_index",
        run: build_index::run,
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
        run: stats::run,
        positional: false,
        options: "data",
        help: "stats     --data DIR\n\
               \u{20}          Print dataset statistics (paper Table 1 columns).",
    },
    Command {
        name: "query",
        span: "cli.query",
        run: query::run,
        positional: false,
        options: "data keywords k eps algo index-cache",
        help: "query     --data DIR --keywords w1,w2 [--k 10] [--eps 0.0005] [--algo soi|bl]\n\
               \u{20}          [--index-cache DIR]\n\
               \u{20}          Run a k-SOI query and print the ranked streets.",
    },
    Command {
        name: "explain",
        span: "cli.explain",
        run: explain::run,
        positional: false,
        options: "data keywords k eps describe photos rho json index-cache",
        help: "explain   --data DIR --keywords w1,w2 [--k 10] [--eps 0.0005] [--describe]\n\
               \u{20}          [--photos 5] [--rho 0.0001] [--json FILE]\n\
               \u{20}          [--index-cache DIR]\n\
               \u{20}          Run a k-SOI query with the explain collector and print\n\
               \u{20}          its bound-convergence table, pruning counters and memory\n\
               \u{20}          use; --describe adds Alg. 2's per-round cell-filter\n\
               \u{20}          report for the top street (--photos, --rho as for\n\
               \u{20}          describe), --json writes the machine-readable artifact.",
    },
    Command {
        name: "batch",
        span: "cli.batch",
        run: batch::run,
        positional: true,
        options: "queries data eps threads stats-json index-cache",
        help: "batch     (FILE.tsv | --queries FILE.tsv) --data DIR [--threads N]\n\
               \u{20}          [--eps 0.0005] [--stats-json FILE]\n\
               \u{20}          [--index-cache DIR]\n\
               \u{20}          Run a file of k-SOI queries through the multi-threaded\n\
               \u{20}          engine (one query per line: keywords<TAB>k[<TAB>eps]);\n\
               \u{20}          --stats-json dumps engine telemetry (latency\n\
               \u{20}          percentiles, work counters) as JSON.",
    },
    Command {
        name: "describe",
        span: "cli.describe",
        run: describe::run,
        positional: false,
        options: "data keywords street photos lambda w rho eps index-cache",
        help: "describe  --data DIR --keywords w1,w2 [--photos 5] [--lambda 0.5] [--w 0.5]\n\
               \u{20}          [--rho 0.0001] [--eps 0.0005] [--street NAME]\n\
               \u{20}          [--index-cache DIR]\n\
               \u{20}          Select a diversified photo summary for the top street\n\
               \u{20}          (or a named street).",
    },
    Command {
        name: "export",
        span: "cli.export",
        run: export::run,
        positional: false,
        options: "data keywords k photos eps out index-cache",
        help: "export    --data DIR --keywords w1,w2 --out FILE.geojson [--k 10]\n\
               \u{20}          [--photos 5] [--eps 0.0005]\n\
               \u{20}          [--index-cache DIR]\n\
               \u{20}          Export the top-k streets (and a photo summary of the\n\
               \u{20}          winner) as GeoJSON for any web map.",
    },
    Command {
        name: "metrics",
        span: "cli.metrics",
        run: metrics::run,
        positional: false,
        options: "data keywords eps",
        help: "metrics   [--data DIR] [--keywords w1,w2] [--eps 0.0005]\n\
               \u{20}          Print process metrics in Prometheus text format (with\n\
               \u{20}          --data, first runs a small workload to populate them).",
    },
    Command {
        name: "check-artifacts",
        span: "cli.check_artifacts",
        run: check_artifacts::run,
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
        run: serve::run,
        positional: false,
        options: "data addr threads io-threads queue deadline-ms max-deadline-ms eps rho \
                  index-cache trace-sample slow-query-ms ring-capacity \
                  epoch-max-delta ingest-log stats-json batch-max",
        help: "serve     --data DIR [--addr 127.0.0.1:7878] [--threads N] [--io-threads 4]\n\
               \u{20}          [--queue 64] [--deadline-ms 250] [--max-deadline-ms 10000]\n\
               \u{20}          [--eps 0.0005] [--rho 0.0001]\n\
               \u{20}          [--trace-sample N] [--slow-query-ms MS] [--ring-capacity 256]\n\
               \u{20}          [--ingest-log FILE] [--epoch-max-delta 4096]\n\
               \u{20}          [--stats-json FILE] [--index-cache DIR]\n\
               \u{20}          Serve queries over HTTP (POST /soi|/describe|/ingest,\n\
               \u{20}          GET /metrics|/status|/debug/requests) with\n\
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
        run: ingest::run,
        positional: true,
        options: "file addr batch timeout-ms",
        help: "ingest    (FILE | --file FILE) --addr HOST:PORT [--batch 256] [--timeout-ms 5000]\n\
               \u{20}          Stream a JSON-lines delta file to a running server's\n\
               \u{20}          POST /ingest and report the resulting epoch.",
    },
    Command {
        name: "gen-deltas",
        span: "cli.gen_deltas",
        run: gen_deltas::run,
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
         --index-cache DIR  Load the index bundle from a versioned snapshot in\n\
         \u{20}                  DIR (built and cached on first use; a stale or\n\
         \u{20}                  corrupt snapshot is rebuilt, rewritten and logged;\n\
         \u{20}                  `soi check-artifacts --snapshot FILE` exits 3 on a\n\
         \u{20}                  corrupt file).\n\n\
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
    let set = dataset
        .parse_keyword_list(raw)
        .ok_or_else(|| SoiError::invalid("--keywords must name at least one keyword"))?;
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
/// (built and persisted on a miss, rebuilt and rewritten when stale or
/// corrupt); without it the structures are built fresh in memory.
/// `poi_option` names where the POI cell size came from (`--eps`, or
/// `default`), for a usage error to quote before anything is built.
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
    let started = std::time::Instant::now();
    let (bundle, outcome) = IndexCache::new(dir).load_or_build(dataset, params)?;
    log::event(
        "cli.index_cache",
        outcome.message(),
        &[
            ("dir", Value::Str(dir)),
            ("ms", Value::F64(started.elapsed().as_secs_f64() * 1e3)),
        ],
    );
    Ok(bundle)
}

/// Alg. 1 over the whole dataset.
fn run_query(dataset: &Dataset, index: &PoiIndex, query: &SoiQuery) -> Result<SoiOutcome> {
    run_soi(&dataset.network, &dataset.pois, index, query)
}

/// The terms of `photo`'s tags.
fn photo_tags<'d>(dataset: &'d Dataset, photo: &Photo) -> Vec<&'d str> {
    photo
        .tags
        .iter()
        .filter_map(|t| dataset.vocab.term(t))
        .collect()
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
