//! End-to-end tests of the `soi` binary: generate a dataset into a temp
//! dir, then exercise every subcommand through the real executable.

use soi_obs::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn soi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soi"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Generates the shared test dataset once per test binary run.
fn dataset_dir() -> &'static str {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("soi_cli_test_{}", std::process::id()));
        let out = soi(&[
            "generate",
            "--city",
            "vienna",
            "--scale",
            "0.01",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "generate failed: {}", stderr(&out));
        dir
    })
    .to_str()
    .unwrap()
}

#[test]
fn help_lists_all_commands() {
    let out = soi(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in ["generate", "stats", "query", "describe", "export"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = soi(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn missing_required_option_fails() {
    let out = soi(&["stats"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--data"));
}

#[test]
fn stats_prints_counts() {
    let out = soi(&["stats", "--data", dataset_dir()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("dataset: vienna"));
    assert!(text.contains("segments:"));
    assert!(text.contains("POIs:"));
}

#[test]
fn query_ranks_streets_and_agrees_with_baseline() {
    let a = soi(&[
        "query",
        "--data",
        dataset_dir(),
        "--keywords",
        "shop",
        "--k",
        "5",
    ]);
    assert!(a.status.success(), "{}", stderr(&a));
    let soi_out = stdout(&a);
    assert!(soi_out.lines().count() >= 2, "no results: {soi_out}");

    let b = soi(&[
        "query",
        "--data",
        dataset_dir(),
        "--keywords",
        "shop",
        "--k",
        "5",
        "--algo",
        "bl",
    ]);
    assert!(b.status.success());
    // Both algorithms print the same ranked street table.
    assert_eq!(soi_out, stdout(&b));
}

#[test]
fn describe_selects_photos() {
    let out = soi(&[
        "describe",
        "--data",
        dataset_dir(),
        "--keywords",
        "shop",
        "--photos",
        "3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("summary of 3 photos"));
    assert_eq!(text.matches("photo #").count(), 3);
}

#[test]
fn export_writes_valid_geojson() {
    let path = std::env::temp_dir().join(format!("soi_cli_export_{}.geojson", std::process::id()));
    let out = soi(&[
        "export",
        "--data",
        dataset_dir(),
        "--keywords",
        "shop",
        "--k",
        "3",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // Both files parse, and every feature carries its properties.
    let features = |path: &str| {
        let doc = soi_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("type").and_then(Json::as_str),
            Some("FeatureCollection")
        );
        doc.get("features").and_then(Json::as_arr).unwrap().to_vec()
    };
    let streets = features(path.to_str().unwrap());
    assert_eq!(streets.len(), 3);
    for (i, street) in streets.iter().enumerate() {
        let geometry = street.get("geometry").unwrap();
        assert_eq!(
            geometry.get("type").and_then(Json::as_str),
            Some("MultiLineString")
        );
        let props = street.get("properties").unwrap();
        assert_eq!(
            props.get("rank").and_then(Json::as_f64),
            Some(i as f64 + 1.0)
        );
        assert!(props.get("interest").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(props.get("name").and_then(Json::as_str).is_some());
    }
    let photos = features(&format!("{}.photos.geojson", path.display()));
    assert!(!photos.is_empty());
    for photo in &photos {
        let geometry = photo.get("geometry").unwrap();
        assert_eq!(geometry.get("type").and_then(Json::as_str), Some("Point"));
        assert_eq!(
            geometry
                .get("coordinates")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
        let props = photo.get("properties").unwrap();
        assert!(props.get("photo_id").and_then(Json::as_f64).is_some());
        assert!(props.get("tags").and_then(Json::as_str).is_some());
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(format!("{}.photos.geojson", path.display())).ok();
}

#[test]
fn generate_rejects_unknown_city() {
    let out = soi(&["generate", "--city", "atlantis", "--out", "/tmp/nowhere"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown city"));
}

// --- exit-code contract -------------------------------------------------
//
// 2 = usage error, 3 = corrupt/invalid data, 4 = not found, 1 = other I/O.

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited normally")
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["frobnicate"][..],
        &["stats"][..],                                             // missing --data
        &["query", "--data", "x", "--keywords"][..],                // option without value
        &["generate", "--city", "atlantis", "--out", "/tmp/n"][..], // bad value
    ] {
        let out = soi(args);
        assert_eq!(code(&out), 2, "args {args:?}: {}", stderr(&out));
    }
}

#[test]
fn invalid_query_parameters_exit_2() {
    let out = soi(&[
        "query",
        "--data",
        dataset_dir(),
        "--keywords",
        "shop",
        "--k",
        "0",
    ]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("k must be at least 1"));

    let out = soi(&[
        "query",
        "--data",
        dataset_dir(),
        "--keywords",
        "shop",
        "--eps",
        "-1.0",
    ]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("eps must be positive"));
}

#[test]
fn missing_dataset_exits_4() {
    let out = soi(&["stats", "--data", "/definitely/not/a/dataset"]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
    assert!(stderr(&out).contains("network.tsv"), "{}", stderr(&out));
}

#[test]
fn unknown_street_exits_4() {
    let out = soi(&[
        "describe",
        "--data",
        dataset_dir(),
        "--street",
        "No Such Street",
    ]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
    assert!(stderr(&out).contains("No Such Street"));
}

#[test]
fn a_rho_too_small_for_the_street_exits_2() {
    // 1e-8 used to panic building the street's grid (exit 101); 1e-12
    // wrapped the cell counts to a 1 × 1 grid and printed a 1-photo summary.
    for rho in ["1e-8", "1e-12"] {
        let out = soi(&[
            "describe",
            "--data",
            dataset_dir(),
            "--keywords",
            "shop",
            "--rho",
            rho,
        ]);
        assert_eq!(code(&out), 2, "--rho {rho}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("rho") && err.contains("grid cells"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert_eq!(stdout(&out), "", "--rho {rho}");
    }
}

#[test]
fn corrupt_dataset_exits_3() {
    // Copy the generated dataset, then poison one record of pois.tsv.
    let src = PathBuf::from(dataset_dir());
    let dir = std::env::temp_dir().join(format!("soi_cli_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    std::fs::write(dir.join("pois.tsv"), "not-a-coordinate\t0\t1\t2\n").unwrap();

    let out = soi(&["stats", "--data", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("pois.tsv"), "error names the file: {err}");
    assert!(err.contains("record 1"), "error names the record: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn piped_truncation_is_not_a_panic() {
    // `soi query ... | head -n 1` closes stdout early; the CLI must treat
    // the broken pipe as a clean exit (like cat), not panic with exit 101.
    let script = format!(
        "set -o pipefail; {} query --data {} --keywords food --k 4 | head -n 1",
        env!("CARGO_BIN_EXE_soi"),
        dataset_dir()
    );
    let out = Command::new("bash")
        .args(["-c", &script])
        .output()
        .expect("shell runs");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "broken pipe panicked: {err}");
    assert!(out.status.success(), "pipeline failed: {err}");
}

#[test]
fn error_messages_name_the_failing_file_and_record() {
    let src = PathBuf::from(dataset_dir());
    let dir = std::env::temp_dir().join(format!("soi_cli_truncnet_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    // Truncate the network file mid-stream.
    let net = std::fs::read_to_string(dir.join("network.tsv")).unwrap();
    let cut: String = net.lines().take(5).map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("network.tsv"), cut).unwrap();

    let out = soi(&["stats", "--data", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("network.tsv"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_writes_trace_and_stats_artifacts() {
    let dir = std::env::temp_dir().join(format!("soi_cli_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let queries = dir.join("queries.tsv");
    std::fs::write(&queries, "shop\t5\nfood\t3\n").unwrap();
    let trace = dir.join("trace.json");
    let stats = dir.join("stats.json");

    let out = soi(&[
        "batch",
        queries.to_str().unwrap(),
        "--data",
        dataset_dir(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--stats-json",
        stats.to_str().unwrap(),
        "--log-json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // --log-json turns every stderr event into a JSON line; each line must
    // be a standalone valid JSON object.
    let err = stderr(&out);
    let mut events = 0;
    for line in err.lines().filter(|l| l.starts_with('{')) {
        let doc = soi_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("stderr line is not valid JSON ({e}): {line}"));
        assert!(doc.get("event").is_some(), "log line lacks event: {line}");
        events += 1;
    }
    assert!(events > 0, "no JSON log lines in stderr: {err}");
    let batch_done = err
        .lines()
        .find(|l| l.contains("\"event\":\"batch.done\""))
        .unwrap_or_else(|| panic!("no batch.done JSON event in stderr: {err}"));
    assert!(batch_done.starts_with('{'), "not a JSON line: {batch_done}");
    assert!(batch_done.contains("\"queries\":2"), "{batch_done}");

    // The trace covers the whole command (cli.batch span) and the engine's
    // per-query spans.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.contains("\"cli.batch\""), "{trace_text}");
    assert!(trace_text.contains("\"engine.query\""), "{trace_text}");
    assert!(trace_text.contains("\"soi.query\""), "{trace_text}");

    // The stats file records the batch telemetry.
    let stats_text = std::fs::read_to_string(&stats).unwrap();
    assert!(stats_text.contains("\"queries\":2"), "{stats_text}");
    assert!(stats_text.contains("\"p50_ms\""), "{stats_text}");

    // check-artifacts accepts both files.
    let check = soi(&[
        "check-artifacts",
        "--trace",
        trace.to_str().unwrap(),
        "--stats",
        stats.to_str().unwrap(),
    ]);
    assert!(check.status.success(), "{}", stderr(&check));
    let text = stdout(&check);
    assert!(text.contains("trace ok"), "{text}");
    assert!(text.contains("stats ok: "), "{text}");
    assert!(text.contains("(2 queries)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_prints_prometheus_text() {
    let out = soi(&["metrics", "--data", dataset_dir(), "--keywords", "shop"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Mandatory series, fully formed exposition.
    assert!(
        text.contains("# TYPE soi_query_latency_seconds histogram"),
        "{text}"
    );
    assert!(text.contains("soi_query_latency_seconds_count 1"), "{text}");
    assert!(
        text.contains("# TYPE soi_index_builds_total counter"),
        "{text}"
    );
    // The workload builds one index.
    assert!(text.contains("soi_index_builds_total 1"), "{text}");
    assert!(!text.contains("soi_epsilon"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");

    // Without --data the series still appear, at zero.
    let bare = soi(&["metrics"]);
    assert!(bare.status.success(), "{}", stderr(&bare));
    let bare_text = stdout(&bare);
    assert!(
        bare_text.contains("soi_query_latency_seconds_count 0"),
        "{bare_text}"
    );
    assert!(
        bare_text.contains("soi_index_builds_total 0"),
        "{bare_text}"
    );
}

#[test]
fn explain_prints_converged_bound_table_and_writes_artifact() {
    let dir = std::env::temp_dir().join(format!("soi_cli_explain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("explain.json");

    let out = soi(&[
        "explain",
        "--data",
        dataset_dir(),
        "--keywords",
        "shop",
        "--k",
        "5",
        "--describe",
        "--json",
        artifact.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("k-SOI explain: k=5"), "{text}");
    assert!(text.contains("bound convergence"), "{text}");
    assert!(text.contains("memory: "), "{text}");
    assert!(text.contains("allocations"), "{text}");
    assert!(text.contains("describe explain for"), "{text}");

    // The printed termination line must show a converged UB <= LBk pair.
    let term = text
        .lines()
        .find(|l| l.starts_with("termination: UB"))
        .unwrap_or_else(|| panic!("no termination line: {text}"));
    let nums: Vec<f64> = term
        .split_whitespace()
        .filter_map(|w| w.parse::<f64>().ok())
        .collect();
    assert!(nums.len() >= 2, "termination line lacks bounds: {term}");
    assert!(nums[0] <= nums[1] + 1e-9, "UB > LBk in: {term}");

    // The JSON artifact parses, converged, and validates via check-artifacts.
    let doc = soi_obs::json::parse(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    let soi_section = doc.get("soi").expect("soi section");
    assert_eq!(
        soi_section
            .get("termination")
            .and_then(|t| t.get("converged")),
        Some(&soi_obs::json::Json::Bool(true))
    );
    assert!(!soi_section
        .get("rows")
        .and_then(soi_obs::json::Json::as_arr)
        .expect("rows array")
        .is_empty());
    assert!(doc.get("describe").is_some(), "describe section missing");
    assert!(
        doc.get("alloc")
            .and_then(|a| a.get("peak_bytes"))
            .and_then(soi_obs::json::Json::as_f64)
            .is_some_and(|b| b > 0.0),
        "alloc.peak_bytes missing or zero"
    );

    let check = soi(&["check-artifacts", "--explain", artifact.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    assert!(stdout(&check).contains("explain ok"), "{}", stdout(&check));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_artifacts_rejects_unconverged_explain() {
    let dir = std::env::temp_dir().join(format!("soi_cli_badexp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("explain.json");
    // A trajectory whose recorded termination never reached UB <= LBk.
    std::fs::write(
        &bad,
        "{\"soi\":{\"rows\":[{\"access\":1,\"ub\":9.0,\"lbk\":1.0}],\
         \"termination\":{\"accesses\":1,\"ub\":9.0,\"lbk\":1.0,\"converged\":false}}}",
    )
    .unwrap();
    let out = soi(&["check-artifacts", "--explain", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("converge"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_exposes_allocation_series() {
    let out = soi(&["metrics", "--data", dataset_dir(), "--keywords", "shop"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Per-query engine allocation histograms carry the one-query workload.
    assert!(
        text.contains("# TYPE soi_engine_query_allocations histogram"),
        "{text}"
    );
    assert!(
        text.contains("soi_engine_query_allocations_count 1"),
        "{text}"
    );
    assert!(
        text.contains("soi_engine_query_alloc_peak_bytes_count 1"),
        "{text}"
    );
    // Index-build gauges record the build's process-wide deltas.
    assert!(text.contains("soi_index_build_alloc_bytes"), "{text}");
    // Process-wide allocator gauges are exported by the final publish.
    assert!(text.contains("soi_alloc_live_bytes"), "{text}");
    assert!(text.contains("soi_alloc_peak_bytes"), "{text}");
}

#[test]
fn batch_reports_per_query_errors_without_aborting() {
    let dir = std::env::temp_dir().join(format!("soi_cli_batcherr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let queries = dir.join("queries.tsv");
    // Line 2 has an unparsable k: the batch must still run lines 1 and 3
    // and report the failure against its input slot.
    std::fs::write(&queries, "shop\t5\nfood\tnot-a-number\nfood\t3\n").unwrap();
    let stats = dir.join("stats.json");

    let out = soi(&[
        "batch",
        queries.to_str().unwrap(),
        "--data",
        dataset_dir(),
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("query 2: parse error:"),
        "bad line not reported: {text}"
    );
    assert!(text.contains("invalid k"), "{text}");
    assert!(text.contains("query 1: k=5"), "good line 1 skipped: {text}");
    assert!(text.contains("query 3: k=3"), "good line 3 skipped: {text}");

    // The stats artifact carries the categorized error record at the
    // 0-based input slot, and still validates.
    let stats_text = std::fs::read_to_string(&stats).unwrap();
    assert!(stats_text.contains("\"error_records\""), "{stats_text}");
    assert!(stats_text.contains("\"index\":1"), "{stats_text}");
    assert!(stats_text.contains("\"stage\":\"parse\""), "{stats_text}");
    assert!(stats_text.contains("\"queries\":2"), "{stats_text}");
    let check = soi(&["check-artifacts", "--stats", stats.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_with_all_lines_bad_fails_with_count() {
    let dir = std::env::temp_dir().join(format!("soi_cli_batchall_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let queries = dir.join("queries.tsv");
    std::fs::write(&queries, "\t\nshop\tNaN-k\n").unwrap();
    let out = soi(&["batch", queries.to_str().unwrap(), "--data", dataset_dir()]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("every query line failed"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_drains_gracefully_on_sigterm() {
    use std::io::BufRead;

    let dir = std::env::temp_dir().join(format!("soi_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = dir.join("serve.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_soi"))
        .args([
            "serve",
            "--data",
            dataset_dir(),
            "--addr",
            "127.0.0.1:0",
            "--stats-json",
            stats.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");

    // Scrape the bound address from the ready line (port 0 picks a port).
    let out = child.stdout.take().expect("stdout piped");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(out).lines() {
            let Ok(line) = line else { break };
            if let Some(addr) = line.strip_prefix("listening on ") {
                let _ = tx.send(addr.trim().to_string());
            }
        }
    });
    let addr: std::net::SocketAddr = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("serve printed its ready line")
        .parse()
        .expect("ready line carries an address");

    // Real traffic over the socket before the signal.
    let timeout = std::time::Duration::from_secs(10);
    let status = soi_serve::client::request(addr, "GET", "/status", None, timeout).expect("status");
    assert_eq!(status.status, 200, "body: {}", status.body);
    let soi_resp = soi_serve::client::request(
        addr,
        "POST",
        "/soi",
        Some("{\"keywords\":[\"shop\"],\"k\":3,\"deadline_ms\":5000}"),
        timeout,
    )
    .expect("soi");
    assert_eq!(soi_resp.status, 200, "body: {}", soi_resp.body);

    // SIGTERM must drain and exit 0 with the report flushed to disk.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .output()
        .expect("kill runs");
    assert!(kill.status.success());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("wait works") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                panic!("serve did not exit within 60s of SIGTERM");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    };
    reader.join().expect("reader joins");
    assert!(status.success(), "serve exited nonzero: {status:?}");

    let report = std::fs::read_to_string(&stats).expect("stats artifact written");
    assert!(report.contains("\"drained\":true"), "{report}");
    assert!(!report.contains("\"requests\":0"), "{report}");
    assert!(report.contains("\"panics\":0"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_artifacts_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("soi_cli_badart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"traceEvents\": 7}").unwrap();
    let out = soi(&["check-artifacts", "--trace", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("traceEvents"), "{}", stderr(&out));
    // No file at all is a usage error that lists the four artifact kinds.
    let none = soi(&["check-artifacts"]);
    assert_eq!(code(&none), 2);
    let err = stderr(&none);
    for option in ["--trace", "--stats", "--explain", "--snapshot"] {
        assert!(err.contains(option), "{option} missing: {err}");
    }
    assert!(!err.contains("--profile"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_strict_exits_3_lenient_rebuilds() {
    let cache = std::env::temp_dir().join(format!("soi_cli_snapcache_{}", std::process::id()));
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--data",
            dataset_dir(),
            "--keywords",
            "shop",
            "--k",
            "5",
            "--index-cache",
            cache.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        soi(&args)
    };

    // Cold run builds the bundle and persists the snapshot.
    let cold = run(&[]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let snap = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "soisnap"))
        .expect("cache dir holds a snapshot");

    // Warm run hits the snapshot and prints the same ranked table.
    let warm = run(&[]);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(stdout(&cold), stdout(&warm));

    // Storage bitrot: flip one payload byte in place.
    let mut bytes = std::fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    // Strict mode refuses with the corrupt-data exit code, naming the file.
    let strict = run(&["--index-cache-mode", "strict"]);
    assert_eq!(code(&strict), 3, "{}", stderr(&strict));
    assert!(
        stderr(&strict).contains(".soisnap"),
        "error names the snapshot: {}",
        stderr(&strict)
    );

    // Lenient (default) mode rebuilds transparently: same results, and the
    // rewritten snapshot hits on the next run.
    let lenient = run(&[]);
    assert!(lenient.status.success(), "{}", stderr(&lenient));
    assert_eq!(stdout(&cold), stdout(&lenient));

    std::fs::remove_dir_all(&cache).ok();
}

/// Runs `args` against the test dataset and asserts a usage error (exit 2,
/// no panic, nothing on stdout) whose message holds every one of `needles`.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let mut full = args.to_vec();
    full.extend_from_slice(&["--data", dataset_dir()]);
    let out = soi(&full);
    let err = stderr(&out);
    assert_eq!(code(&out), 2, "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    for needle in needles {
        assert!(
            err.contains(needle),
            "{args:?}: {needle:?} missing from {err}"
        );
    }
    assert_eq!(stdout(&out), "", "{args:?}");
}

#[test]
fn a_cell_size_that_is_not_finite_and_positive_exits_2() {
    // Each of these used to panic in the grid constructor (exit 101).
    let dir = std::env::temp_dir().join(format!("soi_cli_nancell_{}", std::process::id()));
    let out = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (geojson, snap) = (out("map.geojson"), out("b.soisnap"));
    for (args, option) in [
        (
            &["serve", "--eps", "nan", "--addr", "127.0.0.1:0"][..],
            "--eps",
        ),
        (
            &[
                "export",
                "--eps",
                "nan",
                "--keywords",
                "shop",
                "--out",
                &geojson,
            ][..],
            "--eps",
        ),
        (
            &["build-index", "--pg-cell", "nan", "--out", &snap][..],
            "--pg-cell",
        ),
    ] {
        assert_usage_error(args, &[option, "NaN", "must be finite and positive"]);
    }
    assert!(!dir.exists(), "nothing may be written");
}

#[test]
fn a_cell_size_too_small_for_the_dataset_exits_2() {
    // Each of these used to panic with "grid too large for CellId" (exit 101).
    let snap =
        std::env::temp_dir().join(format!("soi_cli_tinycell_{}.soisnap", std::process::id()));
    for (args, option) in [
        (
            &["serve", "--eps", "1e-300", "--addr", "127.0.0.1:0"][..],
            "--eps",
        ),
        (
            &["explain", "--eps", "1e-300", "--keywords", "shop"][..],
            "--eps",
        ),
        (
            &["query", "--eps", "5e-324", "--keywords", "shop"][..],
            "--eps",
        ),
        (&["metrics", "--eps", "1e-300"][..], "--eps"),
        (
            &[
                "build-index",
                "--poi-cell",
                "1e-300",
                "--out",
                snap.to_str().unwrap(),
            ][..],
            "--poi-cell",
        ),
    ] {
        assert_usage_error(args, &[option, "too small", "inf grid cells"]);
    }
    assert!(!snap.exists(), "nothing may be written");
}

#[test]
fn an_option_the_command_does_not_read_is_a_usage_error() {
    // A misspelling, an option of another command, and a removed option
    // (the IR-tree's flag, given as if it took a value).
    assert_usage_error(&["query", "--keywords", "shop", "--kk", "2"], &["--kk"]);
    assert_usage_error(&["stats", "--keywords", "shop"], &["--keywords"]);
    assert_usage_error(
        &["query", "--with-ir", "1", "--keywords", "shop"],
        &["--with-ir"],
    );
}

#[test]
fn serve_accepts_batch_max() {
    // The parse passes: the missing dataset is what fails (exit 4, not 2).
    let out = soi(&[
        "serve",
        "--batch-max",
        "8",
        "--data",
        "/definitely/not/a/dataset",
    ]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
}

#[test]
fn build_index_with_ir_is_rejected_and_writes_nothing() {
    let snap = std::env::temp_dir().join(format!("soi_cli_withir_{}.soisnap", std::process::id()));
    let snap = snap.to_str().unwrap();
    for args in [
        &["build-index", "--with-ir", "--out", snap][..],
        &["build-index", "--out", snap, "--with-ir"][..],
    ] {
        assert_usage_error(args, &["--with-ir"]);
    }
    assert!(!std::path::Path::new(snap).exists());
}
