//! The served-path benchmark of the streets-of-interest stack.
//!
//! `benchmark/run.sh` builds `soi` and this binary and runs it; see
//! `benchmark/README.md` for every metric and workload. Two ways in:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` — one workload, one
//!   JSON result line last on stdout (the contract of `BENCHMARK.json`);
//! - no `--trace` — every selected workload with its layer pass (and the
//!   traced replay with `--traced`), written to `out/<run-id>/`.

#![deny(unsafe_code)]

mod compare;
mod layers;
mod loadgen;
mod report;
mod rng;
mod scrape;
mod served;
mod server;
mod stats;
mod summary;
mod tracer;
mod verify;
mod workload;
mod world;

use report::Value;
use served::Phases;
use soi_obs::json::JsonWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Endpoint, Request, Workload};
use world::World;

/// The dataset: `berlin` at half scale, ≈25 k segments, 399 k POIs and
/// 80 k photos — large enough that a `/soi` request costs 8–16 ms.
const SCALE: f64 = 0.5;
const SMOKE_SCALE: f64 = 0.05;
/// Phase seconds of a full run (2 s warm-up, 26 s rate, 12 s saturation).
const FULL_SECONDS: f64 = 40.0;
const SMOKE_SECONDS: f64 = 3.0;
/// Requests the traced replay covers (twice: recorder off, then on).
const REPLAY_REQUESTS: usize = 128;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    /// `--trace 0|1`: driver mode, one result line.
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
    soi: PathBuf,
    out: PathBuf,
}

fn usage() -> String {
    "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
     [--traced] [--smoke] --soi PATH --out DIR\n       \
     benchmark compare A/results.json B/results.json\n       \
     benchmark metrics"
        .to_string()
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        traced: false,
        smoke: false,
        soi: PathBuf::new(),
        out: PathBuf::new(),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads.push(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err("--seconds must lie in 1..=600".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--soi" => args.soi = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.soi.as_os_str().is_empty() || args.out.as_os_str().is_empty() {
        return Err(format!("--soi and --out are required\n{}", usage()));
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace runs exactly one --workload".to_string());
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// Which passes a run makes and how long its served phases last.
struct Plan {
    scale: f64,
    /// The served phases of each workload.
    phases: Phases,
    boots: usize,
    layers: bool,
    traced: bool,
    /// Write `results.json` / `trace.json`.
    record: bool,
}

impl Plan {
    fn of(args: &Args) -> Self {
        if args.smoke {
            return Plan {
                scale: SMOKE_SCALE,
                phases: Phases::split(args.seconds.unwrap_or(SMOKE_SECONDS)),
                boots: 1,
                layers: true,
                traced: true,
                record: false,
            };
        }
        let seconds = args.seconds.unwrap_or(FULL_SECONDS);
        match args.trace {
            // End-to-end metrics: tracing off, the whole time served.
            Some(false) => Plan {
                scale: SCALE,
                phases: Phases::split(seconds),
                boots: 3,
                layers: false,
                traced: false,
                record: true,
            },
            // Per-layer metrics: half the time served (for what only a
            // served run shows), the other half is the in-process passes.
            Some(true) => Plan {
                scale: SCALE,
                phases: Phases::split(seconds / 2.0),
                boots: 3,
                layers: true,
                traced: true,
                record: true,
            },
            None => Plan {
                scale: SCALE,
                phases: Phases::split(seconds),
                boots: 3,
                layers: true,
                traced: args.traced,
                record: true,
            },
        }
    }
}

/// The requests of `kind` the rate phase sent; the head of the named
/// reference list when the workload sends none of that kind.
fn layer_list(
    window: &[Request],
    kind: Endpoint,
    reference: Workload,
    seed: u64,
    world: &World,
) -> (Vec<Request>, String) {
    let own: Vec<Request> = window
        .iter()
        .filter(|r| r.endpoint() == kind)
        .cloned()
        .collect();
    if !own.is_empty() {
        return (own, "rate-phase requests".to_string());
    }
    let mut list = workload::requests(reference, seed, &world.hot_streets);
    list.truncate(layers::TIMED_REQUESTS);
    (list, format!("reference list {}", reference.name()))
}

/// The traced pass: replay with the recorder off, then on.
fn traced_pass(
    world: &World,
    window: &[Request],
    responses: &[String],
    p50_ms: f64,
) -> Result<(Vec<Value>, Vec<tracer::Span>), String> {
    let n = window.len().min(REPLAY_REQUESTS);
    let (window, responses) = (&window[..n], &responses[..n]);
    // Warm caches and buffers, then time the untraced replay.
    tracer::replay(
        world,
        &window[..n.min(16)],
        responses,
        &mut tracer::Recorder::new(false),
    )?;
    let off = tracer::replay(world, window, responses, &mut tracer::Recorder::new(false))?;
    let mut recorder = tracer::Recorder::new(true);
    let on = tracer::replay(world, window, responses, &mut recorder)?;
    tracer::validate(recorder.spans())?;
    let summary = tracer::summarize(recorder.spans());
    let mut values: Vec<Value> = summary
        .self_p50_ms
        .iter()
        .map(|(name, ms)| Value::new(&format!("trace.self_p50_ms.{name}"), *ms, "ms"))
        .collect();
    values.push(Value::new(
        "trace.coverage_pct",
        summary.request_p50_ms / p50_ms * 100.0,
        "%",
    ));
    values.push(Value::new(
        "trace.overhead_pct",
        (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0,
        "%",
    ));
    Ok((values, recorder.spans().to_vec()))
}

/// One workload's results.
struct Outcome {
    workload: Workload,
    end_to_end: Vec<Value>,
    per_layer: Vec<Value>,
    counts: Vec<(String, u64)>,
    check: verify::Check,
    server_flags: Vec<String>,
    engine_threads: u64,
    layer_lists: Vec<String>,
    spans: Vec<tracer::Span>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.check.failed() == 0
    }
}

/// What every workload of one invocation shares.
struct Session<'a> {
    args: &'a Args,
    plan: &'a Plan,
    world: &'a World,
    delta_lines: &'a [String],
    run_dir: &'a Path,
    data_dir: &'a Path,
    host_cpus: usize,
}

fn run_workload(session: &Session<'_>, workload: Workload) -> Result<Outcome, String> {
    let Session {
        args,
        plan,
        world,
        delta_lines,
        run_dir,
        data_dir,
        host_cpus,
    } = *session;
    let requests = workload::requests(workload, args.seed, &world.hot_streets);
    let work_dir = run_dir.join(workload.name());
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let setup = served::Setup {
        soi: &args.soi,
        data_dir,
        run_dir: &work_dir,
        clients: host_cpus.min(4),
        boots: plan.boots,
        phases: plan.phases,
    };
    let mut stopwatch = std::time::Instant::now();
    let mut lap = |what: &str| {
        let seconds = stopwatch.elapsed().as_secs_f64();
        eprintln!("benchmark: {} {what} took {seconds:.1} s", workload.name());
        stopwatch = std::time::Instant::now();
    };
    let (served, server) = served::run(&setup, workload, &requests, delta_lines)?;
    lap("served run");
    let check = verify::check(world, workload, &requests, &served, server.addr, args.seed)?;
    lap("verification");
    let drain = server.drain()?;
    // The server's caches and journal are inputs, not results.
    let _ = std::fs::remove_dir_all(work_dir.join("index-cache"));
    let _ = std::fs::remove_file(work_dir.join("ingest.log"));

    let (end_to_end, mut counts) = summary::end_to_end(&served, &check);
    counts.push(("server_requests".to_string(), drain.requests));
    counts.push(("server_errors".to_string(), drain.errors));
    let p50_ms = end_to_end
        .iter()
        .find(|v| v.name == "p50_ms")
        .map_or(0.0, |v| v.value);
    let mut per_layer = summary::observed(&served, &requests, p50_ms);

    let window: Vec<Request> = served
        .rate_samples()
        .map(|s| requests[s.index].clone())
        .collect();
    let mut layer_lists = Vec::new();
    if plan.layers {
        let (soi, soi_from) =
            layer_list(&window, Endpoint::Soi, Workload::SoiHot, args.seed, world);
        let (describe, describe_from) = layer_list(
            &window,
            Endpoint::Describe,
            Workload::DescribeHot,
            args.seed,
            world,
        );
        layer_lists = vec![
            format!("core.soi, engine, index.view: {soi_from} ({})", soi.len()),
            format!("core.describe: {describe_from} ({})", describe.len()),
        ];
        let measured = layers::run(&layers::Inputs {
            world,
            soi: &soi,
            describe: &describe,
            delta_lines,
            scratch_dir: &work_dir,
            threads: host_cpus,
        })?;
        per_layer.extend(measured.into_iter().map(|(name, value)| {
            let unit = report::unit_of(&name).unwrap_or("count");
            Value::new(&name, value, unit)
        }));
        lap("layer pass");
    }
    let mut spans = Vec::new();
    if plan.traced {
        let responses: Vec<String> = served.rate_samples().map(|s| s.body.clone()).collect();
        let (values, recorded) = traced_pass(world, &window, &responses, p50_ms)?;
        per_layer.extend(values);
        spans = recorded;
        lap("traced replay");
    }
    Ok(Outcome {
        workload,
        end_to_end,
        per_layer,
        counts,
        check,
        server_flags: served.server_flags,
        engine_threads: served.status.engine_threads,
        layer_lists,
        spans,
    })
}

fn command_line(program: &str, args: &[&str], cwd: Option<&Path>) -> String {
    let mut command = std::process::Command::new(program);
    command.args(args);
    if let Some(cwd) = cwd {
        command.current_dir(cwd);
    }
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn strings_json(items: &[String]) -> String {
    let mut arr = JsonWriter::array();
    for item in items {
        let mut quoted = String::new();
        soi_obs::json::write_escaped(&mut quoted, item);
        arr.elem_raw(&quoted);
    }
    arr.finish()
}

/// `results.json`: provenance under stable keys, then every workload.
fn results_json(
    args: &Args,
    plan: &Plan,
    world: &World,
    host_cpus: usize,
    outcomes: &[Outcome],
) -> String {
    let phases = plan.phases;
    let mut provenance = JsonWriter::object();
    provenance.field_str(
        "git_sha",
        &command_line("git", &["rev-parse", "HEAD"], None),
    );
    provenance.field_u64("host_cpus", host_cpus as u64);
    provenance.field_str("rustc", &command_line("rustc", &["-V"], None));
    provenance.field_u64("seed", args.seed);
    provenance.field_str("city", &world.dataset.name);
    provenance.field_f64("scale", plan.scale);
    let mut dataset = JsonWriter::object();
    dataset.field_u64("segments", world.dataset.network.num_segments() as u64);
    dataset.field_u64("streets", world.dataset.network.num_streets() as u64);
    dataset.field_u64("pois", world.dataset.pois.len() as u64);
    dataset.field_u64("photos", world.dataset.photos.len() as u64);
    provenance.field_raw("dataset", &dataset.finish());
    provenance.field_u64("generator_threads", host_cpus.min(4) as u64);
    let mut p = JsonWriter::object();
    p.field_f64("warm_s", phases.warm_s);
    p.field_f64("rate_s", phases.rate_s);
    p.field_f64("sat_s", phases.sat_s);
    provenance.field_raw("phases", &p.finish());
    provenance.field_u64("setup_boots", plan.boots as u64);

    let mut workloads = JsonWriter::object();
    for outcome in outcomes {
        let mut w = JsonWriter::object();
        w.field_str("why", outcome.workload.why());
        w.field_f64("rate_req_per_s", outcome.workload.rate());
        w.field_raw("server_flags", &strings_json(&outcome.server_flags));
        w.field_u64("engine_threads", outcome.engine_threads);
        w.field_bool("correct", outcome.correct());
        w.field_u64("attempted", outcome.check.attempted);
        w.field_u64("failed", outcome.check.failed());
        w.field_raw("end_to_end", &report::values_json(&outcome.end_to_end));
        w.field_raw("per_layer", &report::values_json(&outcome.per_layer));
        let mut counts = JsonWriter::object();
        for (name, count) in &outcome.counts {
            counts.field_u64(name, *count);
        }
        w.field_raw("sample_counts", &counts.finish());
        let mut v = JsonWriter::object();
        v.field_u64("incomplete", outcome.check.incomplete);
        v.field_u64("inconsistent", outcome.check.inconsistent);
        v.field_u64("wrong", outcome.check.wrong);
        v.field_u64("distinct_requests", outcome.check.coverage.distinct as u64);
        v.field_u64(
            "oracle_brute_force",
            outcome.check.coverage.brute_force as u64,
        );
        v.field_u64("oracle_baseline", outcome.check.coverage.baseline as u64);
        v.field_u64("oracle_greedy", outcome.check.coverage.greedy as u64);
        v.field_raw("notes", &strings_json(&outcome.check.notes));
        w.field_raw("verification", &v.finish());
        w.field_raw("layer_lists", &strings_json(&outcome.layer_lists));
        workloads.field_raw(outcome.workload.name(), &w.finish());
    }
    let mut doc = JsonWriter::object();
    doc.field_str("schema", "soi-benchmark/1");
    doc.field_raw("provenance", &provenance.finish());
    doc.field_raw("workloads", &workloads.finish());
    doc.finish()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let plan = Plan::of(args);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let run_id = format!("seed{}-{stamp}-{}", args.seed, std::process::id());
    let run_dir = args.out.join(&run_id);
    let data_dir = run_dir.join("data");
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    eprintln!("benchmark: run {run_id} in {}", run_dir.display());

    let world = World::build(plan.scale, &data_dir)?;
    let delta_lines = served::gen_deltas(
        &args.soi,
        &data_dir,
        &run_dir.join("deltas.jsonl"),
        plan.phases.ingest_ops().max(layers::FOLD_OPS),
        args.seed,
    )?;

    let session = Session {
        args,
        plan: &plan,
        world: &world,
        delta_lines: &delta_lines,
        run_dir: &run_dir,
        data_dir: &data_dir,
        host_cpus,
    };
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let outcome = run_workload(&session, workload)?;
        report::print_values(workload.name(), &outcome.end_to_end);
        report::print_values(workload.name(), &outcome.per_layer);
        let c = &outcome.check;
        println!(
            "{} verification: {} attempted, {} incomplete, {} inconsistent, {} wrong; \
             oracles covered {} of {} distinct requests (brute force {}, baseline {}, greedy {})",
            workload.name(),
            c.attempted,
            c.incomplete,
            c.inconsistent,
            c.wrong,
            c.coverage.checked(),
            c.coverage.distinct,
            c.coverage.brute_force,
            c.coverage.baseline,
            c.coverage.greedy,
        );
        for note in &c.notes {
            eprintln!("benchmark: {}: {note}", workload.name());
        }
        outcomes.push(outcome);
    }

    // Inputs are regenerated from the seed; only results stay on disk.
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_file(run_dir.join("deltas.jsonl"));
    if plan.record {
        let write = |name: &str, text: String| {
            let path = run_dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(
            "results.json",
            results_json(args, &plan, &world, host_cpus, &outcomes),
        )?;
        if plan.traced {
            let spans: Vec<(&str, &[tracer::Span])> = outcomes
                .iter()
                .map(|o| (o.workload.name(), o.spans.as_slice()))
                .collect();
            write("trace.json", tracer::to_json(&spans))?;
        }
        println!("results {}", run_dir.join("results.json").display());
    } else {
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    let all_correct = outcomes.iter().all(Outcome::correct);
    if let Some(trace) = args.trace {
        // Driver mode: the result line is the last line of stdout, and
        // wrong answers are reported in it, not by the exit code.
        let outcome = &outcomes[0];
        let defs: Vec<&report::MetricDef> = if trace {
            report::per_layer().collect()
        } else {
            report::END_TO_END.iter().map(|(def, _)| def).collect()
        };
        let values: Vec<Value> = outcome
            .end_to_end
            .iter()
            .chain(&outcome.per_layer)
            .cloned()
            .collect();
        println!(
            "{}",
            report::driver_line(
                outcome.correct(),
                outcome.check.attempted,
                outcome.check.failed(),
                &defs,
                &values
            )?
        );
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: verification failed");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return match raw.as_slice() {
            [_, base, new] => match compare::run(base, new) {
                Ok(code) => ExitCode::from(code as u8),
                Err(e) => {
                    eprintln!("benchmark compare: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    if raw.first().map(String::as_str) == Some("metrics") {
        report::print_registry();
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(&raw).and_then(|args| run(&args));
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
