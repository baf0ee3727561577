//! End-to-end tests of the serving layer against a real socket: normal
//! query round-trips, admission-control shedding under an undersized
//! queue, deadline-degraded partial results validating against the
//! recorded LBk, latency bounded by the deadline, and graceful drain.

mod support;

use soi_data::Dataset;
use soi_obs::json::{parse, Json};
use soi_serve::client::{request, Response};
use soi_serve::{serve, ServeConfig, ServeReport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};
use support::get_until_admitted;

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| soi_datagen::generate(&soi_datagen::london(0.03)).0)
}

/// Runs `f` against a live server, then flips the shutdown flag and
/// returns `f`'s result alongside the server's drain report.
fn with_server<T: Send>(
    config: ServeConfig,
    f: impl FnOnce(SocketAddr) -> T + Send,
) -> (T, ServeReport) {
    with_server_and_flag(config, |addr, _shutdown| f(addr))
}

/// [`with_server`] for tests that start the drain themselves: `f` also
/// receives the shutdown flag.
fn with_server_and_flag<T: Send>(
    config: ServeConfig,
    f: impl FnOnce(SocketAddr, &AtomicBool) -> T + Send,
) -> (T, ServeReport) {
    let dataset = dataset();
    let shutdown = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let served = serve(dataset, &config, &shutdown, |addr| {
                tx.send(Ok(addr)).expect("ready channel open")
            });
            // A boot that fails says why at once, instead of the wait
            // below timing out.
            if let Err(e) = &served {
                let _ = tx.send(Err(e.to_string()));
            }
            served.expect("server runs")
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("server became ready")
            .unwrap_or_else(|e| panic!("server failed to boot: {e}"));
        // Catch panics from the test body so the shutdown flag still flips
        // and the server thread joins -- otherwise the scope would wait on
        // it forever and a failing assertion would hang the whole test.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr, &shutdown)));
        shutdown.store(true, Ordering::SeqCst);
        let report = server.join().expect("server thread joins");
        match result {
            Ok(result) => (result, report),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        socket_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

const TIMEOUT: Duration = Duration::from_secs(10);

/// A query body. `eps` scales the work: the city spans ~0.05 degrees, so
/// 0.002 is a moderate query and 0.01 a heavy one (each segment pulls in
/// POIs from an 8-block radius) — heavy enough for deadlines to bite, but
/// still bounded.
fn soi_body(eps: f64, deadline_ms: f64) -> String {
    format!(
        "{{\"keywords\":[\"shop\",\"food\"],\"k\":5,\"eps\":{eps},\"deadline_ms\":{deadline_ms}}}"
    )
}

#[test]
fn roundtrip_soi_describe_status_metrics_explain() {
    let ((), report) = with_server(test_config(), |addr| {
        // /status
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        assert_eq!(status.status, 200);
        assert!(status.body.contains("\"serving\""), "body: {}", status.body);

        // /soi with a generous deadline: complete (non-partial) results.
        let soi = request(
            addr,
            "POST",
            "/soi",
            Some(&soi_body(0.002, 30_000.0)),
            TIMEOUT,
        )
        .expect("soi");
        assert_eq!(soi.status, 200, "body: {}", soi.body);
        let doc = parse(&soi.body).expect("valid JSON");
        assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert!(!results.is_empty(), "no streets for shop/food");
        let street = results[0].get("name").and_then(Json::as_str).expect("name");

        // /describe the top street by name.
        let body = format!("{{\"street\":{:?},\"k\":3,\"deadline_ms\":30000}}", street);
        let describe = request(addr, "POST", "/describe", Some(&body), TIMEOUT).expect("describe");
        assert_eq!(describe.status, 200, "body: {}", describe.body);
        let doc = parse(&describe.body).expect("valid JSON");
        assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));

        // /explain: the query-string form of an explained /soi.
        let explain =
            request(addr, "GET", "/explain?keywords=shop&k=3", None, TIMEOUT).expect("explain");
        assert_eq!(explain.status, 200, "body: {}", explain.body);
        assert!(explain.body.contains("\"termination\""));

        // /metrics exposes the serve series.
        let metrics = request(addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
        assert_eq!(metrics.status, 200);
        for series in [
            "soi_serve_requests_total",
            "soi_serve_shed_total",
            "soi_serve_panics_total",
        ] {
            assert!(metrics.body.contains(series), "missing {series}");
        }

        // Unknown route.
        let missing = request(addr, "GET", "/nope", None, TIMEOUT).expect("404");
        assert_eq!(missing.status, 404);
    });
    assert!(report.drained, "server did not drain cleanly");
    assert_eq!(report.panics, 0);
    assert!(report.requests >= 6);
}

#[test]
fn undersized_queue_sheds_with_503_and_metrics_show_it() {
    // Deliberately under-provisioned: one-deep admission queue, one engine
    // thread, small connection backlog — heavy concurrent traffic must
    // shed rather than queue unboundedly.
    let config = ServeConfig {
        queue_capacity: 1,
        io_threads: 2,
        engine_threads: 1,
        ..test_config()
    };
    let (sheds_seen, report) = with_server(config, |addr| {
        let counters = std::sync::Mutex::new((0usize, 0usize, 0usize)); // ok, shed, other
        let ids = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    for _ in 0..3 {
                        // No retries: a shed must surface as a distinct 503.
                        let response = request(
                            addr,
                            "POST",
                            "/soi",
                            Some(&soi_body(0.01, 5_000.0)),
                            TIMEOUT,
                        );
                        if let Some(id) = response
                            .as_ref()
                            .ok()
                            .and_then(|r| r.header("x-soi-request-id"))
                        {
                            let id: u64 = id.parse().expect("numeric request id");
                            ids.lock().unwrap().push(id);
                        }
                        match response {
                            Ok(r) if r.status == 200 => counters.lock().unwrap().0 += 1,
                            Ok(r) if r.status == 503 => {
                                assert!(
                                    r.body.contains("shedding load"),
                                    "503 body lacks shed marker: {}",
                                    r.body
                                );
                                counters.lock().unwrap().1 += 1;
                            }
                            _ => counters.lock().unwrap().2 += 1,
                        }
                    }
                });
            }
        });
        let (ok, shed, other) = *counters.lock().unwrap();
        assert_eq!(other, 0, "unexpected non-200/503 responses");
        assert!(ok > 0, "nothing was served under overload");
        // Every admitted or queue-shed request carries an id, and no two
        // concurrent requests share one.
        let mut ids = ids.into_inner().unwrap();
        let seen = ids.len();
        assert!(seen >= ok, "{ok} answers but only {seen} request ids");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), seen, "request ids reused under concurrency");
        // Overload metrics are visible while the server still runs.
        let metrics = get_until_admitted(addr, "/metrics").expect("metrics reachable after load");
        assert!(metrics.body.contains("soi_serve_shed_total"));
        shed
    });
    assert!(
        sheds_seen > 0 && report.sheds >= sheds_seen as u64,
        "expected admission sheds under a size-1 queue (client saw {sheds_seen}, report {})",
        report.sheds
    );
    assert_eq!(report.panics, 0);
    assert!(report.drained);
}

/// `/explain` is admitted like `/soi`: with the one worker and the one
/// queue slot kept taken by heavy queries, it sheds with the admission
/// queue's 503 instead of running beside them on an IO thread.
#[test]
fn explain_sheds_with_503_when_the_admission_queue_is_full() {
    let config = ServeConfig {
        queue_capacity: 1,
        engine_threads: 1,
        ..test_config()
    };
    let ((), report) = with_server(config, |addr| {
        let stop = AtomicBool::new(false);
        let shed = std::thread::scope(|s| {
            // One heavy query running, one queued: nothing spins on a 503.
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        let body = soi_body(0.01, 5_000.0);
                        let _ = request(addr, "POST", "/soi", Some(&body), TIMEOUT);
                    }
                });
            }
            let shed = (0..500).find_map(|_| {
                let r = request(addr, "GET", "/explain?keywords=shop&k=3", None, TIMEOUT)
                    .expect("explain under load");
                match r.status {
                    200 => None,
                    503 => Some(r),
                    other => panic!("unexpected status {other}: {}", r.body),
                }
            });
            stop.store(true, Ordering::SeqCst);
            shed
        });
        let shed = shed.expect("/explain was never shed by a full admission queue");
        assert!(
            shed.body.contains("admission queue full"),
            "503 did not come from the admission queue: {}",
            shed.body
        );
        let record = ring_record(addr, &shed);
        assert_eq!(
            record.get("endpoint").and_then(Json::as_str),
            Some("/explain")
        );
        assert_eq!(record.get("shed"), Some(&Json::Bool(true)));
    });
    assert!(report.sheds > 0);
    assert_eq!(report.panics, 0);
    assert!(report.drained);
}

#[test]
fn tiny_deadlines_degrade_to_partial_results_validating_lbk() {
    let (partials, report) = with_server(test_config(), |addr| {
        let mut partials = 0usize;
        for _ in 0..10 {
            // 50µs of budget: expires during (or before) list access.
            let r =
                request(addr, "POST", "/soi", Some(&soi_body(0.002, 0.05)), TIMEOUT).expect("soi");
            assert_eq!(r.status, 200, "body: {}", r.body);
            let doc = parse(&r.body).expect("valid JSON");
            let partial = doc.get("partial") == Some(&Json::Bool(true));
            let lbk = doc.get("lbk").and_then(Json::as_f64).unwrap_or(0.0);
            let results = doc.get("results").and_then(Json::as_arr).expect("results");
            if partial {
                partials += 1;
                // The serving contract: every returned score is a sound
                // lower bound at least the recorded LBk.
                for entry in results {
                    let interest = entry
                        .get("interest")
                        .and_then(Json::as_f64)
                        .expect("interest");
                    assert!(
                        interest >= lbk,
                        "partial result score {interest} below recorded LBk {lbk}"
                    );
                }
            }
        }
        partials
    });
    assert!(
        partials > 0,
        "50µs deadlines never produced a partial result"
    );
    assert!(report.partials >= partials as u64);
    assert_eq!(report.panics, 0);
}

#[test]
fn accepted_request_p99_stays_within_twice_the_deadline() {
    let deadline = Duration::from_millis(200);
    let config = ServeConfig {
        default_deadline: deadline,
        max_deadline: deadline,
        ..test_config()
    };
    let (latencies, report) = with_server(config, |addr| {
        let all = std::sync::Mutex::new(Vec::new());
        // Concurrency stays at the IO worker count: the budget clock starts
        // at parse time, so connections queued behind busy workers would add
        // wait that the deadline cannot bound.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let started = Instant::now();
                        // Ask for far more budget than the cap: the server
                        // must clamp to max_deadline.
                        let r = request(
                            addr,
                            "POST",
                            "/soi",
                            Some(&soi_body(0.01, 60_000.0)),
                            TIMEOUT,
                        )
                        .expect("request");
                        if r.status == 200 {
                            all.lock().unwrap().push(started.elapsed());
                        }
                    }
                });
            }
        });
        let mut latencies = all.into_inner().unwrap();
        latencies.sort();
        latencies
    });
    assert!(!latencies.is_empty(), "no accepted requests");
    let p99 = latencies[(latencies.len() - 1) * 99 / 100];
    assert!(
        p99 <= deadline * 2,
        "accepted p99 {p99:?} exceeds 2x the {deadline:?} deadline"
    );
    assert_eq!(report.panics, 0);
    assert!(report.drained);
}

#[test]
fn request_scoped_observability_end_to_end() {
    // Zero threshold: every request is "slow", so the log and counter
    // must fire deterministically.
    let config = ServeConfig {
        slow_query: Some(Duration::ZERO),
        ..test_config()
    };
    let ((), report) = with_server(config, |addr| {
        // A traced + explained query embeds both artifacts and its id.
        let body = "{\"keywords\":[\"shop\",\"food\"],\"k\":5,\"eps\":0.002,\
                    \"deadline_ms\":30000,\"trace\":true,\"explain\":true}";
        let traced = request(addr, "POST", "/soi", Some(body), TIMEOUT).expect("traced soi");
        assert_eq!(traced.status, 200, "body: {}", traced.body);
        let header_id: u64 = traced
            .header("x-soi-request-id")
            .expect("x-soi-request-id header")
            .parse()
            .expect("numeric request id");
        assert!(header_id >= 1);
        let doc = parse(&traced.body).expect("valid JSON");
        assert_eq!(
            doc.get("request_id").and_then(Json::as_f64),
            Some(header_id as f64),
            "body id must match the header"
        );
        let trace = doc.get("trace").expect("embedded trace");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty(), "captured trace has no events");
        let stamped = events
            .iter()
            .filter_map(|ev| ev.get("args").and_then(|a| a.get("request_id")))
            .filter_map(Json::as_f64)
            .collect::<Vec<_>>();
        assert!(!stamped.is_empty(), "no event carries a request id");
        assert!(
            stamped.iter().all(|id| *id == header_id as f64),
            "trace events stamped with a foreign request id: {stamped:?}"
        );
        assert!(doc.get("explain").is_some(), "explain rows not embedded");

        // Concurrent untraced requests: no embedded artifacts, and nothing
        // leaks into the process-global trace buffer (capture is private).
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let r = request(
                        addr,
                        "POST",
                        "/soi",
                        Some(&soi_body(0.002, 30_000.0)),
                        TIMEOUT,
                    )
                    .expect("untraced soi");
                    assert_eq!(r.status, 200, "body: {}", r.body);
                    assert!(r.header("x-soi-request-id").is_some());
                    let doc = parse(&r.body).expect("valid JSON");
                    assert!(
                        doc.get("trace").is_none() && doc.get("explain").is_none(),
                        "untraced response embedded artifacts: {}",
                        r.body
                    );
                    assert!(doc.get("request_id").is_some());
                });
            }
        });
        assert!(
            soi_obs::trace::take_events().is_empty(),
            "request capture leaked events into the global trace buffer"
        );

        // The traced record is retrievable by id, artifacts embedded.
        let by_id = request(
            addr,
            "GET",
            &format!("/debug/requests/{header_id}"),
            None,
            TIMEOUT,
        )
        .expect("debug by id");
        assert_eq!(by_id.status, 200, "body: {}", by_id.body);
        let record = parse(&by_id.body).expect("valid JSON");
        assert_eq!(
            record.get("id").and_then(Json::as_f64),
            Some(header_id as f64)
        );
        assert_eq!(record.get("endpoint").and_then(Json::as_str), Some("/soi"));
        assert_eq!(record.get("traced"), Some(&Json::Bool(true)));
        assert!(
            record.get("trace").is_some() && record.get("explain").is_some(),
            "by-id record must embed artifacts: {}",
            by_id.body
        );

        // The ring list summarizes every request without payloads.
        let list = request(addr, "GET", "/debug/requests", None, TIMEOUT).expect("debug list");
        assert_eq!(list.status, 200);
        let listing = parse(&list.body).expect("valid JSON");
        let entries = listing
            .get("requests")
            .and_then(Json::as_arr)
            .expect("requests array");
        let mine = entries
            .iter()
            .find(|e| e.get("id").and_then(Json::as_f64) == Some(header_id as f64))
            .expect("traced request listed");
        assert_eq!(mine.get("traced"), Some(&Json::Bool(true)));
        assert!(mine.get("trace").is_none(), "list view embeds payloads");

        // Unknown and malformed ids answer 404/400.
        let missing = request(addr, "GET", "/debug/requests/999999", None, TIMEOUT).expect("404");
        assert_eq!(missing.status, 404);
        let bad = request(addr, "GET", "/debug/requests/xyz", None, TIMEOUT).expect("400");
        assert_eq!(bad.status, 400);

        // POST /explain shares the /soi body schema.
        let explain = request(
            addr,
            "POST",
            "/explain",
            Some("{\"keywords\":[\"shop\"],\"k\":3}"),
            TIMEOUT,
        )
        .expect("post explain");
        assert_eq!(explain.status, 200, "body: {}", explain.body);
        assert!(explain.body.contains("\"termination\""));
        assert!(explain.body.contains("\"request_id\""));

        // /status carries the rolling-window SLO summary.
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        let doc = parse(&status.body).expect("valid JSON");
        let window = doc.get("window").expect("window summary");
        assert!(
            window.get("requests").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
            "window saw no requests: {}",
            status.body
        );
        assert!(window.get("latency_p50_ms").is_some());

        // The zero-threshold slow-query counter fired, and the process /
        // windowed series are exported.
        let metrics = request(addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
        let slow = metrics
            .body
            .lines()
            .find(|l| l.starts_with("soi_serve_slow_queries_total "))
            .expect("slow-query series");
        let fired: f64 = slow
            .split_whitespace()
            .nth(1)
            .expect("value")
            .parse()
            .expect("numeric");
        assert!(fired >= 1.0, "slow-query counter never fired: {slow}");
        for series in [
            "soi_process_uptime_seconds",
            "soi_build_info",
            "soi_trace_dropped_events_total",
            "soi_serve_request_latency_window_seconds",
            "soi_serve_requests_window",
        ] {
            assert!(metrics.body.contains(series), "missing {series}");
        }
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

#[test]
fn trace_sampling_captures_into_the_ring_without_embedding() {
    let config = ServeConfig {
        trace_sample: 1, // every queued query is sampled
        ..test_config()
    };
    let ((), report) = with_server(config, |addr| {
        let r = request(
            addr,
            "POST",
            "/soi",
            Some(&soi_body(0.002, 30_000.0)),
            TIMEOUT,
        )
        .expect("sampled soi");
        assert_eq!(r.status, 200, "body: {}", r.body);
        let id: u64 = r
            .header("x-soi-request-id")
            .expect("id header")
            .parse()
            .expect("numeric");
        // Sampled: the response does NOT embed the trace...
        let doc = parse(&r.body).expect("valid JSON");
        assert!(doc.get("trace").is_none(), "sampled trace was embedded");
        // ...but the ring record holds it.
        let by_id = request(addr, "GET", &format!("/debug/requests/{id}"), None, TIMEOUT)
            .expect("debug by id");
        assert_eq!(by_id.status, 200, "body: {}", by_id.body);
        let record = parse(&by_id.body).expect("valid JSON");
        assert_eq!(record.get("traced"), Some(&Json::Bool(true)));
        let events = record
            .get("trace")
            .and_then(|t| t.get("traceEvents"))
            .and_then(Json::as_arr)
            .expect("sampled trace in ring");
        assert!(!events.is_empty());
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

#[test]
fn debug_filters_and_metrics_hygiene() {
    // Zero slow-query threshold: every request logs with its endpoint and
    // params digest, and the ring record joins on the same fields.
    let config = ServeConfig {
        slow_query: Some(Duration::ZERO),
        ..test_config()
    };
    let ((), report) = with_server(config, |addr| {
        // Mixed traffic so the endpoint filter has something to separate.
        let mut soi_id = 0u64;
        for _ in 0..3 {
            let r = request(
                addr,
                "POST",
                "/soi",
                Some(&soi_body(0.002, 30_000.0)),
                TIMEOUT,
            )
            .expect("soi");
            assert_eq!(r.status, 200, "body: {}", r.body);
            soi_id = r
                .header("x-soi-request-id")
                .expect("id header")
                .parse()
                .expect("numeric id");
        }
        let r = request(
            addr,
            "POST",
            "/describe",
            Some("{\"street\":\"no-such-street\",\"k\":3}"),
            TIMEOUT,
        )
        .expect("describe");
        assert!(r.status == 200 || r.status == 404, "status {}", r.status);

        // /debug/requests?endpoint=soi keeps only /soi records;
        // limit truncates after filtering and `matched` reports the
        // pre-truncation count.
        let list = request(
            addr,
            "GET",
            "/debug/requests?endpoint=soi&limit=2",
            None,
            TIMEOUT,
        )
        .expect("filtered list");
        assert_eq!(list.status, 200, "body: {}", list.body);
        let doc = parse(&list.body).expect("valid JSON");
        assert_eq!(doc.get("matched").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(2.0));
        let entries = doc
            .get("requests")
            .and_then(Json::as_arr)
            .expect("requests array");
        assert_eq!(entries.len(), 2);
        for e in entries {
            assert_eq!(e.get("endpoint").and_then(Json::as_str), Some("/soi"));
        }
        // Malformed filter values answer 400.
        for bad in [
            "/debug/requests?limit=minus-one",
            "/debug/requests?endpoint=nope",
            "/debug/requests?frobnicate=1",
        ] {
            let r = request(addr, "GET", bad, None, TIMEOUT).expect("bad filter");
            assert_eq!(r.status, 400, "{bad} answered {}", r.status);
        }

        // Slow-query join: the zero threshold logged every request with
        // endpoint= and params=; the by-id record carries the same fields
        // so a log line joins against `/debug/requests/<id>`.
        let by_id = request(
            addr,
            "GET",
            &format!("/debug/requests/{soi_id}"),
            None,
            TIMEOUT,
        )
        .expect("by id");
        assert_eq!(by_id.status, 200, "body: {}", by_id.body);
        let record = parse(&by_id.body).expect("valid JSON");
        assert_eq!(record.get("endpoint").and_then(Json::as_str), Some("/soi"));
        let params = record
            .get("params")
            .and_then(Json::as_str)
            .expect("params digest");
        assert!(
            params.contains("k=5") && params.contains("eps="),
            "params digest missing query shape: {params}"
        );

        // The sampling profiler is gone: its route falls through to the
        // router's 404, /status carries no profiling keys and /metrics no
        // profiler series. (The names are split so that the CI search for
        // them finds nothing in the tree.)
        let gone = request(addr, "GET", concat!("/debug/", "profile"), None, TIMEOUT)
            .expect("removed route");
        assert_eq!(gone.status, 404, "body: {}", gone.body);
        assert!(gone.body.contains("no such route"), "body: {}", gone.body);
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        let doc = parse(&status.body).expect("valid JSON");
        assert!(doc.get("profiling").is_none(), "body: {}", status.body);
        assert!(doc.get("profile").is_none(), "body: {}", status.body);

        // Metrics hygiene: the full exposition lints clean (every series
        // typed and documented).
        let metrics = request(addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
        assert_eq!(metrics.status, 200);
        let problems = soi_obs::metrics::lint_exposition(&metrics.body);
        assert!(problems.is_empty(), "exposition lint: {problems:?}");
        assert!(!metrics.body.contains(concat!("soi_", "profile_")));
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

#[test]
fn drain_answers_queued_work_before_exiting() {
    // Requests admitted before shutdown must still be answered during the
    // drain, and the report must say the queue emptied.
    let ((), report) = with_server(test_config(), |addr| {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        request(
                            addr,
                            "POST",
                            "/soi",
                            Some(&soi_body(0.002, 2_000.0)),
                            TIMEOUT,
                        )
                    })
                })
                .collect();
            for w in workers {
                let r = w.join().expect("join").expect("response");
                assert!(r.status == 200 || r.status == 503, "status {}", r.status);
            }
        });
    });
    assert!(report.drained, "drain left work behind");
    assert_eq!(report.panics, 0);
}

#[test]
fn drain_with_several_workers_answers_every_job_queued_at_shutdown() {
    // Two engine workers, eight heavy jobs: when the flag flips, two are
    // running and the rest sit in the admission queue. Every one of them
    // was admitted, so every one must be answered in full (the deadline
    // cap is raised so a loaded test host cannot turn one partial).
    const JOBS: usize = 8;
    let config = ServeConfig {
        engine_threads: 2,
        io_threads: JOBS + 2,
        max_deadline: Duration::from_secs(300),
        ..test_config()
    };
    let (queued_at_shutdown, report) = with_server_and_flag(config, |addr, shutdown| {
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..JOBS)
                .map(|_| {
                    s.spawn(move || {
                        request(
                            addr,
                            "POST",
                            "/soi",
                            Some(&soi_body(0.005, 300_000.0)),
                            Duration::from_secs(300),
                        )
                    })
                })
                .collect();
            // Flip the flag only once every job has been parsed (and is
            // therefore admitted before its IO worker finishes): each
            // /status poll counts itself in `requests`.
            let mut polls = 0.0;
            let queued = loop {
                let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
                polls += 1.0;
                let doc = parse(&status.body).expect("valid JSON");
                let parsed = doc
                    .get("requests")
                    .and_then(Json::as_f64)
                    .expect("requests");
                if parsed - polls >= JOBS as f64 {
                    break doc
                        .get("queue_depth")
                        .and_then(Json::as_f64)
                        .expect("queue_depth");
                }
            };
            shutdown.store(true, Ordering::SeqCst);
            for client in clients {
                let r = client.join().expect("join").expect("response");
                assert_eq!(r.status, 200, "body: {}", r.body);
                let doc = parse(&r.body).expect("valid JSON");
                assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));
            }
            queued
        })
    });
    assert!(
        queued_at_shutdown >= 1.0,
        "no job was still queued when the drain began"
    );
    assert!(report.drained, "drain left work behind");
    assert_eq!(report.panics, 0);
    assert_eq!(report.sheds, 0);
    assert_eq!(report.errors, 0);
}

/// Replaces every `"request_id":N` with `"request_id":0`.
fn without_request_id(body: &str) -> String {
    const KEY: &str = "\"request_id\":";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('0');
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The ring record of the request `response` answered, artifacts embedded.
fn ring_record(addr: SocketAddr, response: &Response) -> Json {
    let id = response.header("x-soi-request-id").expect("id header");
    let by_id = get_until_admitted(addr, &format!("/debug/requests/{id}")).expect("debug by id");
    assert_eq!(by_id.status, 200, "body: {}", by_id.body);
    parse(&by_id.body).expect("valid JSON")
}

/// An explained `/soi` body with what legitimately differs between two
/// runs of one query removed: the request id and the explain report's
/// wall-clock phases.
fn explained_body_without_run_noise(body: &str) -> Json {
    let Json::Obj(mut fields) = parse(&without_request_id(body)).expect("valid JSON") else {
        panic!("body is not an object: {body}");
    };
    for (name, value) in &mut fields {
        if let ("explain", Json::Obj(report)) = (name.as_str(), value) {
            report.retain(|(k, _)| k != "phases_ms");
        }
    }
    Json::Obj(fields)
}

#[test]
fn explain_runs_on_an_engine_worker_and_answers_like_soi_with_explain() {
    let ((), report) = with_server(test_config(), |addr| {
        let soi = request(
            addr,
            "POST",
            "/soi",
            Some("{\"keywords\":[\"shop\",\"food\"],\"k\":4,\"eps\":0.002,\"explain\":true}"),
            TIMEOUT,
        )
        .expect("explained soi");
        assert_eq!(soi.status, 200, "body: {}", soi.body);
        let expect = explained_body_without_run_noise(&soi.body);
        assert!(expect.get("explain").is_some() && expect.get("results").is_some());

        let post = request(
            addr,
            "POST",
            "/explain",
            Some("{\"keywords\":[\"shop\",\"food\"],\"k\":4,\"eps\":0.002}"),
            TIMEOUT,
        )
        .expect("post explain");
        let get = request(
            addr,
            "GET",
            "/explain?keywords=shop,food&k=4&eps=0.002",
            None,
            TIMEOUT,
        )
        .expect("get explain");
        for explain in [&post, &get] {
            assert_eq!(explain.status, 200, "body: {}", explain.body);
            assert_eq!(explained_body_without_run_noise(&explain.body), expect);
            // Queued and executed like any query: the record carries the
            // worker's clock and the explain report.
            let record = ring_record(addr, explain);
            assert_eq!(
                record.get("endpoint").and_then(Json::as_str),
                Some("/explain")
            );
            let ms = |name: &str| record.get(name).and_then(Json::as_f64).expect("a number");
            assert!(ms("exec_ms") > 0.0, "no exec time recorded: {record:?}");
            assert!(ms("queue_ms") >= 0.0 && ms("queue_ms") <= ms("total_ms"));
            assert!(record.get("explain").is_some(), "explain not in the ring");
        }
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

/// Regression: `-1 as usize` saturates to 0 and `(-1.0).fract()` is `-0.0`,
/// so a negative street id used to be answered with street 0's summary.
#[test]
fn describe_rejects_a_negative_street_id_instead_of_answering_for_street_zero() {
    let ((), report) = with_server(test_config(), |addr| {
        let describe = |street: &str| {
            let body = format!("{{\"street\":{street},\"k\":3,\"deadline_ms\":30000}}");
            request(addr, "POST", "/describe", Some(&body), TIMEOUT).expect("describe")
        };
        let zero = describe("0");
        assert_eq!(zero.status, 200, "body: {}", zero.body);
        for bad in ["-1", "-0.5", "1e300"] {
            let r = describe(bad);
            assert_eq!(r.status, 404, "street {bad}: {}", r.body);
            let doc = parse(&r.body).expect("valid JSON");
            assert_eq!(
                doc.get("category").and_then(Json::as_str),
                Some("not-found")
            );
        }
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

/// Regression: under `--rho 1e-8` a street's grid of ρ/2 cells has more cells
/// than can be numbered, and building it panicked the worker on every
/// `/describe` (a caught panic, a 500). It is the request's 400 — and the
/// repeat's: the epoch stores built contexts, not failed builds.
#[test]
fn describe_under_a_rho_too_small_for_the_street_is_a_400_not_a_panic() {
    let config = ServeConfig {
        rho: 1e-8,
        ..test_config()
    };
    let (refused, report) = with_server(config, |addr| {
        let mut refused = 0;
        for street in 0..20 {
            let body = format!("{{\"street\":{street},\"k\":3,\"deadline_ms\":30000}}");
            let [first, repeat] = [(); 2].map(|()| {
                request(addr, "POST", "/describe", Some(&body), TIMEOUT).expect("describe")
            });
            assert_eq!(
                (first.status, without_request_id(&first.body)),
                (repeat.status, without_request_id(&repeat.body)),
                "street {street}"
            );
            // A street of one photo, or none, still has a grid.
            if first.status != 200 {
                assert_eq!(first.status, 400, "street {street}: {}", first.body);
                let doc = parse(&first.body).expect("valid JSON");
                assert_eq!(doc.get("category").and_then(Json::as_str), Some("usage"));
                assert!(first.body.contains("rho"), "{}", first.body);
                refused += 1;
            }
        }
        refused
    });
    assert!(refused > 0, "no street was too large for rho = 1e-8");
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

/// Regression: `k` sized a heap before anything bounded it (`k: 1e17`
/// aborted the process on a failed allocation), and `deadline_ms` was
/// converted to a `Duration` before it was clamped (`1e300` panicked the
/// handler). Both are numbers a request chooses.
#[test]
fn k_and_deadline_beyond_their_types_range_answer_like_the_largest_sane_value() {
    let ((), report) = with_server(test_config(), |addr| {
        let soi = |k: &str, deadline_ms: &str| {
            let body = format!(
                "{{\"keywords\":[\"food\"],\"k\":{k},\"eps\":0.002,\"deadline_ms\":{deadline_ms}}}"
            );
            let r = request(addr, "POST", "/soi", Some(&body), TIMEOUT).expect("soi");
            assert_eq!(r.status, 200, "k={k} deadline_ms={deadline_ms}: {}", r.body);
            parse(&r.body).expect("valid JSON")
        };
        let every_street = soi(&dataset().network.num_streets().to_string(), "30000");
        let results = every_street.get("results").and_then(Json::as_arr);
        assert!(results.is_some_and(|r| !r.is_empty()));
        for k in ["1e17", "1e300"] {
            assert_eq!(soi(k, "30000").get("results"), every_street.get("results"));
        }
        let unbounded = soi("5", "1e300");
        assert_eq!(unbounded.get("partial"), Some(&Json::Bool(false)));
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        assert_eq!(status.status, 200);
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

/// Regression: ε is a number a request chooses, and the ring of cells
/// Alg. 1 walks around a popped cell has radius `⌊(ε + h) / h⌋`: from
/// ε ≈ 4.3e6 at h = 0.001 that saturated a `u32` and `ix + radius`
/// overflowed — this (debug) build panicked the job into a 500, the release
/// build wrapped and skipped the segments east and north of the cell.
#[test]
fn an_eps_beyond_any_grid_is_a_200_not_a_panic() {
    // Such an eps sees every segment over the whole grid: about 7 s per
    // request in a debug build run alone. The server honours the 30 s the
    // body asks for (the default cap would clamp it to 10 s), and the
    // client waits past it, so a loaded run is slower but not a failure.
    let config = ServeConfig {
        max_deadline: Duration::from_secs(300),
        ..test_config()
    };
    let ((), report) = with_server(config, |addr| {
        let soi = |eps: &str| {
            let body =
                format!("{{\"keywords\":[\"shop\"],\"k\":5,\"eps\":{eps},\"deadline_ms\":30000}}");
            let timeout = Duration::from_secs(60);
            let r = request(addr, "POST", "/soi", Some(&body), timeout).expect("soi");
            assert_eq!(r.status, 200, "eps={eps}: {}", r.body);
            parse(&r.body).expect("valid JSON")
        };
        for eps in ["1e7", "1e12"] {
            let answer = soi(eps);
            assert_eq!(answer.get("partial"), Some(&Json::Bool(false)), "eps={eps}");
            let results = answer.get("results").and_then(Json::as_arr);
            assert!(results.is_some_and(|r| r.len() == 5), "eps={eps}");
        }
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
}

#[test]
fn one_engine_worker_answers_any_interleaving_like_a_fresh_scratch() {
    use soi_core::describe::{st_rel_div, ContextBuilder, DescribeParams, PhiSource};
    use soi_core::soi::{run_soi, SoiConfig, SoiQuery};

    // The single engine worker keeps one scratch for the whole run, so
    // this sequence grows it, shrinks it, switches algorithm, and cuts a
    // query short in the middle. What the scratch held must never show.
    let config = ServeConfig {
        engine_threads: 1,
        max_deadline: Duration::from_secs(300),
        ..test_config()
    };
    let dataset = dataset();
    let cell = 2.0 * config.eps;
    let bundle = soi_index::build_bundle(
        dataset,
        &soi_index::BundleParams {
            poi_cell: cell,
            pg_cell: cell,
            eps: None,
            with_ir: false,
            threads: 1,
        },
    );
    let builder = ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid: &bundle.photo_grid,
        pois: Some(&dataset.pois),
        eps: config.eps,
        rho: config.rho,
        phi_source: PhiSource::Photos,
    };
    let mut described = dataset.network.streets().iter().filter_map(|street| {
        let ctx = builder.build(street.id).ok()?;
        (ctx.members.len() >= 8).then_some((street.id, ctx))
    });
    let (street_a, ctx_a) = described.next().expect("a street with photos");
    let (street_b, ctx_b) = described.next_back().expect("another street with photos");

    enum Want<'a> {
        Soi(SoiQuery),
        Describe(&'a soi_core::describe::StreetContext, DescribeParams),
        Partial,
    }
    let soi = |words: &[&str], k: usize, eps: f64| {
        let quoted: Vec<String> = words.iter().map(|w| format!("{w:?}")).collect();
        (
            "/soi",
            format!(
                "{{\"keywords\":[{}],\"k\":{k},\"eps\":{eps},\"deadline_ms\":300000}}",
                quoted.join(",")
            ),
            Want::Soi(SoiQuery::new(dataset.query_keywords(words), k, eps).expect("valid")),
        )
    };
    let describe = |street: soi_common::StreetId, ctx, k: usize, lambda: f64| {
        (
            "/describe",
            format!(
                "{{\"street\":{},\"k\":{k},\"lambda\":{lambda},\"deadline_ms\":300000}}",
                street.raw()
            ),
            // w is left to the server's default, 0.5.
            Want::Describe(ctx, DescribeParams::new(k, lambda, 0.5).expect("valid")),
        )
    };
    let sequence = [
        soi(&["shop", "food"], 5, 0.002),
        describe(street_a, &ctx_a, 3, 0.5),
        soi(&["museum"], 2, 0.0005),
        soi(&["shop", "food", "cafe", "bar"], 20, 0.01),
        // One microsecond of budget is gone before the worker claims the
        // job: a partial answer, then a full one on the same scratch.
        (
            "/soi",
            "{\"keywords\":[\"shop\",\"food\",\"cafe\",\"bar\"],\"k\":20,\"eps\":0.01,\
             \"deadline_ms\":0.001}"
                .to_string(),
            Want::Partial,
        ),
        soi(&["shop"], 3, 0.001),
        describe(street_b, &ctx_b, 8, 0.25),
        soi(&["shop", "food"], 5, 0.002),
    ];

    let (rounds, report) = with_server(config, |addr| {
        let round = || -> Vec<String> {
            sequence
                .iter()
                .map(|(path, body, _)| {
                    let r = request(addr, "POST", path, Some(body), Duration::from_secs(300))
                        .expect("response");
                    assert_eq!(r.status, 200, "{path} {body}: {}", r.body);
                    without_request_id(&r.body)
                })
                .collect()
        };
        [round(), round()]
    });
    assert_eq!(report.panics, 0);
    assert_eq!(report.errors, 0);

    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).expect("number");
    for (i, (path, body, want)) in sequence.iter().enumerate() {
        let doc = parse(&rounds[0][i]).expect("valid JSON");
        match want {
            Want::Partial => {
                for round in &rounds {
                    let doc = parse(&round[i]).expect("valid JSON");
                    assert_eq!(doc.get("partial"), Some(&Json::Bool(true)), "{body}");
                }
                continue;
            }
            Want::Soi(query) => {
                let direct = run_soi(
                    &dataset.network,
                    &dataset.pois,
                    &bundle.poi,
                    query,
                    &SoiConfig::default(),
                )
                .expect("valid query");
                assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));
                assert_eq!(
                    num(&doc, "accesses"),
                    direct.stats.accesses as f64,
                    "{body}"
                );
                assert_eq!(
                    num(&doc, "lbk").to_bits(),
                    direct.stats.termination_lb.to_bits()
                );
                let results = doc.get("results").and_then(Json::as_arr).expect("results");
                assert_eq!(results.len(), direct.results.len(), "{body}");
                for (got, want) in results.iter().zip(&direct.results) {
                    assert_eq!(num(got, "street"), f64::from(want.street.raw()));
                    assert_eq!(num(got, "interest").to_bits(), want.interest.to_bits());
                    assert_eq!(num(got, "best_segment"), f64::from(want.best_segment.raw()));
                    assert_eq!(num(got, "mass").to_bits(), want.best_segment_mass.to_bits());
                }
            }
            Want::Describe(ctx, params) => {
                let direct = st_rel_div(ctx, &dataset.photos, params).expect("valid");
                assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));
                assert_eq!(num(&doc, "objective").to_bits(), direct.objective.to_bits());
                let selected: Vec<f64> = doc
                    .get("selected")
                    .and_then(Json::as_arr)
                    .expect("selected")
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                let want: Vec<f64> = direct.selected.iter().map(|p| f64::from(p.raw())).collect();
                assert_eq!(selected, want, "{body}");
            }
        }
        assert_eq!(
            rounds[0][i], rounds[1][i],
            "{path} {body}: second pass differs from the first"
        );
    }
}

/// A position guaranteed inside the index extent (an existing POI's).
fn in_extent_pos() -> (f64, f64) {
    let p = dataset().pois.iter().next().expect("dataset has POIs").pos;
    (p.x, p.y)
}

#[test]
fn ingest_swaps_epochs_folds_at_threshold_and_replays_on_restart() {
    let dir = std::env::temp_dir().join(format!("soi_serve_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("deltas.jsonl");
    let config = ServeConfig {
        ingest_log: Some(log.clone()),
        epoch_max_delta: 4,
        ..test_config()
    };
    let (x, y) = in_extent_pos();
    let add =
        format!("{{\"op\":\"add_poi\",\"x\":{x},\"y\":{y},\"kw\":[\"shop\"],\"weight\":1.0}}");

    let ((), report) = with_server(config.clone(), |addr| {
        // Boot: empty log, epoch 0, nothing pending.
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        let doc = parse(&status.body).expect("valid JSON");
        let epoch = doc.get("epoch").expect("epoch object");
        assert_eq!(epoch.get("id").and_then(Json::as_f64), Some(0.0));
        assert_eq!(epoch.get("pending_ops").and_then(Json::as_f64), Some(0.0));

        // First batch: two inserts -> epoch 1, pending 2, no fold yet.
        let body = format!("{add}\n{add}");
        let r = request(addr, "POST", "/ingest", Some(&body), TIMEOUT).expect("ingest");
        assert_eq!(r.status, 200, "body: {}", r.body);
        let doc = parse(&r.body).expect("valid JSON");
        assert_eq!(doc.get("accepted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("epoch").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("pending_ops").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("folded"), Some(&Json::Bool(false)));

        // Queries keep answering, reading through base+delta.
        let soi = request(
            addr,
            "POST",
            "/soi",
            Some(&soi_body(0.002, 30_000.0)),
            TIMEOUT,
        )
        .expect("soi");
        assert_eq!(soi.status, 200, "body: {}", soi.body);

        // An explained run's ring record reports the epoch it pinned.
        let explain =
            request(addr, "GET", "/explain?keywords=shop&k=3", None, TIMEOUT).expect("explain");
        assert_eq!(explain.status, 200);
        let record = ring_record(addr, &explain);
        assert_eq!(record.get("epoch").and_then(Json::as_f64), Some(1.0));

        // Second batch reaches the 4-op threshold: the server folds a
        // fresh base and the delta empties.
        let del = "{\"op\":\"del_poi\",\"id\":0}";
        let body = format!("{add}\n{del}");
        let r = request(addr, "POST", "/ingest", Some(&body), TIMEOUT).expect("ingest");
        assert_eq!(r.status, 200, "body: {}", r.body);
        let doc = parse(&r.body).expect("valid JSON");
        assert_eq!(doc.get("folded"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("epoch").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("pending_ops").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("applied_ops").and_then(Json::as_f64), Some(4.0));

        // /status agrees after the swap, and queries still answer.
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        let doc = parse(&status.body).expect("valid JSON");
        let epoch = doc.get("epoch").expect("epoch object");
        assert_eq!(epoch.get("id").and_then(Json::as_f64), Some(2.0));
        assert_eq!(epoch.get("folds").and_then(Json::as_f64), Some(1.0));
        let soi = request(
            addr,
            "POST",
            "/soi",
            Some(&soi_body(0.002, 30_000.0)),
            TIMEOUT,
        )
        .expect("soi after fold");
        assert_eq!(soi.status, 200, "body: {}", soi.body);

        // A malformed batch is rejected atomically: 400, state unchanged.
        let r = request(addr, "POST", "/ingest", Some("not json"), TIMEOUT).expect("bad ingest");
        assert_eq!(r.status, 400, "body: {}", r.body);
        // An op referencing an unknown vocabulary term is rejected too.
        let r = request(
            addr,
            "POST",
            "/ingest",
            Some(&format!(
                "{{\"op\":\"add_poi\",\"x\":{x},\"y\":{y},\"kw\":[\"no-such-term-zzz\"]}}"
            )),
            TIMEOUT,
        )
        .expect("unknown term");
        assert_eq!(r.status, 400, "body: {}", r.body);
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        let doc = parse(&status.body).expect("valid JSON");
        let epoch = doc.get("epoch").expect("epoch object");
        assert_eq!(
            epoch.get("id").and_then(Json::as_f64),
            Some(2.0),
            "rejected batches must not advance the epoch"
        );
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);

    // The journal holds the four accepted ops (none of the rejected ones)
    // and the marker of the fold they reached: a restarted server without
    // an index cache folds them at that point and serves epoch 1 with
    // nothing pending.
    let logged = std::fs::read_to_string(&log).expect("ingest log exists");
    let lines: Vec<&str> = logged.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 5, "{logged}");
    assert_eq!(lines[4], "{\"fold\":4}");
    let ((), report) = with_server(config, |addr| {
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        let doc = parse(&status.body).expect("valid JSON");
        let epoch = doc.get("epoch").expect("epoch object");
        for (key, want) in [
            ("id", 1.0),
            ("applied_ops", 4.0),
            ("pending_ops", 0.0),
            ("folds", 1.0),
        ] {
            let got = epoch.get(key).and_then(Json::as_f64);
            assert_eq!(got, Some(want), "{key}: {}", status.body);
        }
        let soi = request(
            addr,
            "POST",
            "/soi",
            Some(&soi_body(0.002, 30_000.0)),
            TIMEOUT,
        )
        .expect("soi after replay");
        assert_eq!(soi.status, 200, "body: {}", soi.body);
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_with_index_cache_persists_folds_across_restart() {
    let dir = std::env::temp_dir().join(format!("soi_serve_ingestc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("deltas.jsonl");
    let cache = dir.join("cache");
    let config = ServeConfig {
        ingest_log: Some(log.clone()),
        index_cache: Some(cache.clone()),
        epoch_max_delta: 2,
        ..test_config()
    };
    let (x, y) = in_extent_pos();
    let add =
        format!("{{\"op\":\"add_poi\",\"x\":{x},\"y\":{y},\"kw\":[\"shop\"],\"weight\":1.0}}");

    let ((), report) = with_server(config.clone(), |addr| {
        // Two ops hit the threshold immediately: fold + snapshot.
        let body = format!("{add}\n{add}");
        let r = request(addr, "POST", "/ingest", Some(&body), TIMEOUT).expect("ingest");
        assert_eq!(r.status, 200, "body: {}", r.body);
        let doc = parse(&r.body).expect("valid JSON");
        assert_eq!(doc.get("folded"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("epoch").and_then(Json::as_f64), Some(1.0));
        // One more op stays pending past the snapshot.
        let r = request(addr, "POST", "/ingest", Some(&add), TIMEOUT).expect("ingest");
        assert_eq!(r.status, 200, "body: {}", r.body);
        let doc = parse(&r.body).expect("valid JSON");
        assert_eq!(doc.get("folded"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("epoch").and_then(Json::as_f64), Some(2.0));
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);

    // Restart with the cache: the folded snapshot restores the first two
    // ops as base (one fold boundary) and only the tail replays as a
    // delta — epoch = 1 boundary + 1 live delta, 1 pending op.
    let ((), report) = with_server(config, |addr| {
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        let doc = parse(&status.body).expect("valid JSON");
        let epoch = doc.get("epoch").expect("epoch object");
        assert_eq!(
            epoch.get("applied_ops").and_then(Json::as_f64),
            Some(2.0),
            "snapshot must restore the folded ops: {}",
            status.body
        );
        assert_eq!(epoch.get("pending_ops").and_then(Json::as_f64), Some(1.0));
        assert_eq!(epoch.get("id").and_then(Json::as_f64), Some(2.0));
        let soi = request(
            addr,
            "POST",
            "/soi",
            Some(&soi_body(0.002, 30_000.0)),
            TIMEOUT,
        )
        .expect("soi after cached restart");
        assert_eq!(soi.status, 200, "body: {}", soi.body);
    });
    assert!(report.drained);
    assert_eq!(report.panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a client sees of a server's state: the `/status` epoch, and the
/// `/soi` and `/describe` bodies with their request ids zeroed.
fn served_state(addr: SocketAddr) -> (Json, String, String) {
    let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
    let doc = parse(&status.body).expect("valid JSON");
    let epoch = doc.get("epoch").expect("epoch object").clone();
    let body = soi_body(0.002, 30_000.0);
    let soi = request(addr, "POST", "/soi", Some(&body), TIMEOUT).expect("soi");
    assert_eq!(soi.status, 200, "body: {}", soi.body);
    let doc = parse(&soi.body).expect("valid JSON");
    let street = doc
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|results| results.first())
        .and_then(|top| top.get("street"))
        .and_then(Json::as_f64)
        .expect("a top street");
    let body = format!("{{\"street\":{street},\"k\":3,\"deadline_ms\":30000}}");
    let describe = request(addr, "POST", "/describe", Some(&body), TIMEOUT).expect("describe");
    assert_eq!(describe.status, 200, "body: {}", describe.body);
    (
        epoch,
        without_request_id(&soi.body),
        without_request_id(&describe.body),
    )
}

/// Regression: fold points lived only in the index cache's live snapshot,
/// so a restart without a cache, or with a cold one, replayed the whole
/// journal as one batch. A delete issued after a fold then named another
/// POI, and an id deleted on both sides of a fold stopped the boot
/// ("already deleted in this delta"). Every restart now folds at the
/// journal's markers and serves what the live server served.
#[test]
fn every_restart_serves_the_live_state_with_or_without_a_cache() {
    let dir = std::env::temp_dir().join(format!("soi_serve_refold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("deltas.jsonl");
    let config = |index_cache: Option<std::path::PathBuf>| ServeConfig {
        ingest_log: Some(log.clone()),
        index_cache,
        epoch_max_delta: 2,
        ..test_config()
    };
    let ingest = |addr, body: &str, folds: bool| {
        let r = request(addr, "POST", "/ingest", Some(body), TIMEOUT).expect("ingest");
        assert_eq!(r.status, 200, "body: {}", r.body);
        let doc = parse(&r.body).expect("valid JSON");
        assert_eq!(doc.get("folded"), Some(&Json::Bool(folds)), "{}", r.body);
    };
    let del0 = "{\"op\":\"del_poi\",\"id\":0}";
    let live_cache = dir.join("live-cache");
    let (live, report) = with_server(config(Some(live_cache.clone())), |addr| {
        ingest(
            addr,
            &format!("{del0}\n{{\"op\":\"del_poi\",\"id\":1}}"),
            true,
        );
        // Id 0 of the folded base: the POI that was id 2.
        ingest(addr, del0, false);
        served_state(addr)
    });
    assert!(report.drained);
    for (key, want) in [
        ("id", 2.0),
        ("applied_ops", 2.0),
        ("pending_ops", 1.0),
        ("folds", 1.0),
    ] {
        assert_eq!(live.0.get(key).and_then(Json::as_f64), Some(want), "{key}");
    }
    let cold = dir.join("cold-cache");
    for (how, cache) in [
        ("without a cache", None),
        ("with a cold cache", Some(cold.clone())),
        ("with the cache the cold restart filled", Some(cold)),
        ("with the live server's cache", Some(live_cache)),
    ] {
        let (restarted, report) = with_server(config(cache), served_state);
        assert!(report.drained, "{how}");
        assert_eq!(restarted, live, "restarted {how}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fold files its bundle under the folded data's own key and deletes the
/// fold snapshot it supersedes, across a restart too: the cache holds the
/// boot data's snapshot and at most one fold snapshot.
#[test]
fn folds_keep_one_fold_snapshot_beside_the_base_snapshot() {
    let dir = std::env::temp_dir().join(format!("soi_serve_foldsnap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("cache");
    let config = ServeConfig {
        ingest_log: Some(dir.join("deltas.jsonl")),
        index_cache: Some(cache.clone()),
        epoch_max_delta: 1,
        ..test_config()
    };
    let snapshots = || {
        std::fs::read_dir(&cache)
            .expect("cache directory")
            .filter(|entry| {
                entry
                    .as_ref()
                    .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "soisnap"))
            })
            .count()
    };
    let (x, y) = in_extent_pos();
    let add =
        format!("{{\"op\":\"add_poi\",\"x\":{x},\"y\":{y},\"kw\":[\"shop\"],\"weight\":1.0}}");
    let fold = |addr| {
        let r = request(addr, "POST", "/ingest", Some(&add), TIMEOUT).expect("ingest");
        assert_eq!(r.status, 200, "body: {}", r.body);
        assert!(r.body.contains("\"folded\":true"), "body: {}", r.body);
    };
    let ((), report) = with_server(config.clone(), |addr| {
        assert_eq!(snapshots(), 1, "the boot files the base snapshot");
        for _ in 0..3 {
            fold(addr);
            assert_eq!(snapshots(), 2);
        }
    });
    assert!(report.drained);
    // The restart loads the last fold's snapshot; the next fold supersedes
    // it.
    let ((), report) = with_server(config, |addr| {
        assert_eq!(snapshots(), 2);
        fold(addr);
        assert_eq!(snapshots(), 2);
    });
    assert!(report.drained);
    let _ = std::fs::remove_dir_all(&dir);
}
