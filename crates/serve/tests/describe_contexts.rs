//! `/describe` over the per-epoch street-context table, against a real
//! socket: every served body equals Alg. 2 over a fresh context build at
//! the epoch that answered it (at boot, under a live delta, after a fold),
//! the first job on a street in an epoch builds its context unless the
//! epoch carried it over from the one before (its batch cannot reach the
//! street), every later one reads it, and racing jobs build a street once.
//!
//! The built/reused counters are process-wide, so the tests of this suite
//! take turns ([`serial`]) and read them as differences.

use soi_common::StreetId;
use soi_core::describe::{st_rel_div, ContextBuilder, DescribeParams, PhiSource};
use soi_data::Dataset;
use soi_index::{BundleParams, DeltaIndex, DeltaOp};
use soi_obs::json::{parse, Json};
use soi_obs::names::metrics::{DESCRIBE_CONTEXTS_BUILT, DESCRIBE_CONTEXTS_REUSED};
use soi_serve::client::request;
use soi_serve::{serve, ServeConfig, ServeReport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| soi_datagen::generate(&soi_datagen::london(0.03)).0)
}

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        socket_timeout: Duration::from_secs(5),
        max_deadline: Duration::from_secs(300),
        ..ServeConfig::default()
    }
}

/// The bundle parameters `serve` derives from `config`.
fn bundle_params(config: &ServeConfig) -> BundleParams {
    BundleParams {
        poi_cell: 2.0 * config.eps,
        pg_cell: 2.0 * config.eps,
        eps: None,
        with_ir: false,
        threads: 1,
    }
}

/// Runs `f` against a live server over `dataset()`, then drains it.
fn with_server<T: Send>(
    config: &ServeConfig,
    f: impl FnOnce(SocketAddr) -> T + Send,
) -> (T, ServeReport) {
    let shutdown = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve(dataset(), config, &shutdown, |addr| {
                tx.send(addr).expect("ready channel open")
            })
            .expect("server runs")
        });
        let addr = rx.recv_timeout(TIMEOUT).expect("server became ready");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        shutdown.store(true, Ordering::SeqCst);
        let report = server.join().expect("server thread joins");
        match result {
            Ok(result) => (result, report),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// The value of counter `name` in a `/metrics` scrape.
fn counter(addr: SocketAddr, name: &str) -> f64 {
    let metrics = request(addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
    metrics
        .body
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

/// `/describe` with `"explain": true`: the parsed body.
fn describe(addr: SocketAddr, street: StreetId, params: &DescribeParams) -> Json {
    let body = format!(
        "{{\"street\":{},\"k\":{},\"lambda\":{},\"w\":{},\"deadline_ms\":300000,\"explain\":true}}",
        street.raw(),
        params.k,
        params.lambda,
        params.w
    );
    let r = request(addr, "POST", "/describe", Some(&body), TIMEOUT).expect("describe");
    assert_eq!(r.status, 200, "{body}: {}", r.body);
    parse(&r.body).expect("valid JSON")
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{key}"))
}

/// The served answer with what differs between two requests for the same
/// thing (its id, the explain report's wall clock and `context_built`)
/// left out: selection, objective and the work counters.
fn answer(doc: &Json) -> (Vec<f64>, u64, Vec<f64>) {
    let selected = doc
        .get("selected")
        .and_then(Json::as_arr)
        .expect("selected");
    let counters = doc
        .get("explain")
        .and_then(|e| e.get("counters"))
        .expect("explain counters");
    (
        selected.iter().filter_map(Json::as_f64).collect(),
        num(doc, "objective").to_bits(),
        [
            "photos_evaluated",
            "cells_pruned_filtering",
            "cells_pruned_refinement",
            "cells_refined",
        ]
        .map(|key| num(counters, key))
        .to_vec(),
    )
}

fn context_built(doc: &Json) -> bool {
    match doc.get("explain").and_then(|e| e.get("context_built")) {
        Some(Json::Bool(built)) => *built,
        other => panic!("explain.context_built: {other:?}"),
    }
}

/// Streets with at least `min` photos within ε at boot, busiest first.
fn busy_streets(config: &ServeConfig, min: usize) -> Vec<(StreetId, Vec<soi_common::PhotoId>)> {
    let dataset = dataset();
    let bundle = soi_index::build_bundle(dataset, &bundle_params(config));
    let mut streets: Vec<_> = dataset
        .network
        .streets()
        .iter()
        .map(|s| {
            let rs = bundle.photo_grid.photos_near_street(
                &dataset.network,
                &dataset.photos,
                s.id,
                config.eps,
            );
            (s.id, rs)
        })
        .filter(|(_, rs)| rs.len() >= min)
        .collect();
    streets.sort_by_key(|(s, rs)| (std::cmp::Reverse(rs.len()), *s));
    streets
}

#[test]
fn every_describe_body_equals_a_fresh_context_at_its_epoch() {
    let _serial = serial();
    // The first batch (7 ops) stays a live delta; the second reaches 9
    // pending ops and folds.
    let config = ServeConfig {
        epoch_max_delta: 8,
        ..config()
    };
    let dataset = dataset();
    let streets = busy_streets(&config, 8);
    assert!(
        streets.len() >= 4,
        "fixture has {} busy streets",
        streets.len()
    );
    let (street, members) = &streets[0];
    // Within ε of the first street: three of its photos go and four new
    // ones on its first segment come, tagged like one of its photos; the
    // fold's batch deletes two more.
    let geom = dataset
        .network
        .segment(dataset.network.street(*street).segments[0])
        .geom;
    let tags: Vec<String> = dataset
        .photos
        .get(members[0])
        .tags
        .iter()
        .map(|t| t.raw().to_string())
        .collect();
    let add = |t: f64| {
        let p = geom.a.lerp(geom.b, t);
        format!(
            "{{\"op\":\"add_photo\",\"x\":{},\"y\":{},\"tags\":[{}]}}",
            p.x,
            p.y,
            tags.join(",")
        )
    };
    let del = |id: soi_common::PhotoId| format!("{{\"op\":\"del_photo\",\"id\":{}}}", id.raw());
    let live_batch = [
        del(members[1]),
        del(members[3]),
        del(members[5]),
        add(0.2),
        add(0.5),
        add(0.8),
        add(0.35),
    ]
    .join("\n");
    // Where the live batch lands: its adds, and the photos it deletes.
    let live_points: Vec<_> = [members[1], members[3], members[5]]
        .map(|id| dataset.photos.get(id).pos)
        .into_iter()
        .chain([0.2, 0.5, 0.8, 0.35].map(|t| geom.a.lerp(geom.b, t)))
        .collect();
    // A street the live batch reaches has one of its points within ε; one
    // it cannot reach has them all more than 3ε from its MBR.
    let reached = |s: StreetId| {
        live_points
            .iter()
            .any(|&p| dataset.network.dist_point_to_street(p, s) <= config.eps)
    };
    let unreachable = |s: StreetId| {
        let mbr = dataset
            .network
            .street_mbr(s)
            .expect("streets have segments");
        live_points
            .iter()
            .all(|&p| mbr.mindist_to_point(p) > 3.0 * config.eps)
    };
    // The first street, which the live batch reaches, and the three
    // busiest streets after it that it certainly reaches or certainly
    // cannot reach (a street in between may be rebuilt or carried).
    assert!(reached(*street));
    let described: Vec<StreetId> = std::iter::once(*street)
        .chain(
            streets[1..]
                .iter()
                .map(|(s, _)| *s)
                .filter(|&s| reached(s) || unreachable(s))
                .take(3),
        )
        .collect();
    assert!(
        described.iter().any(|&s| unreachable(s)),
        "fixture has a busy street the live batch cannot reach: {described:?}"
    );
    let fold_batch = [del(members[2]), del(members[4])].join("\n");
    let shapes = [(3usize, 0.5), (8, 0.25), (5, 0.75)]
        .map(|(k, lambda)| DescribeParams::new(k, lambda, 0.5).expect("valid"));

    // What each epoch should answer, from fresh builds over the same state.
    let params = bundle_params(&config);
    let base = soi_index::build_bundle(dataset, &params);
    let live_ops = DeltaOp::parse_lines(&live_batch, &dataset.vocab).expect("valid ops");
    let live =
        DeltaIndex::seal(&base.poi, &dataset.pois, &dataset.photos, &live_ops).expect("sealable");
    let mut all_ops = live_ops.clone();
    all_ops.extend(DeltaOp::parse_lines(&fold_batch, &dataset.vocab).expect("valid ops"));
    let (pois, photos) =
        soi_index::fold_ops(&dataset.pois, &dataset.photos, &all_ops).expect("foldable");
    let folded = Dataset::new(
        dataset.name.clone(),
        dataset.network.clone(),
        dataset.vocab.clone(),
        pois,
        photos,
    );
    let folded_bundle = soi_index::build_bundle(&folded, &params);
    let builder = |data: &'static Dataset, grid| ContextBuilder {
        network: &data.network,
        photos: &data.photos,
        photo_grid: grid,
        pois: Some(&data.pois),
        eps: config.eps,
        rho: config.rho,
        phi_source: PhiSource::Photos,
    };
    let folded: &'static Dataset = Box::leak(Box::new(folded));
    let epochs = [
        (builder(dataset, &base.photo_grid), None),
        (builder(dataset, &base.photo_grid), Some(&live)),
        (builder(folded, &folded_bundle.photo_grid), None),
    ];
    let expected = |epoch: usize, street: StreetId, params: &DescribeParams| {
        let (builder, delta) = &epochs[epoch];
        let ctx = builder.build_with_delta(street, *delta).expect("buildable");
        let outcome = st_rel_div(&ctx, builder.photo_view(*delta), params).expect("valid");
        let stats = &outcome.stats;
        (
            outcome
                .selected
                .iter()
                .map(|p| f64::from(p.raw()))
                .collect::<Vec<_>>(),
            outcome.objective.to_bits(),
            [
                stats.photos_evaluated,
                stats.cells_pruned_filtering,
                stats.cells_pruned_refinement,
                stats.cells_refined,
            ]
            .map(|n| n as f64)
            .to_vec(),
            ctx.members.len(),
        )
    };

    let ((sizes, built, reused), report) = with_server(&config, |addr| {
        let (built_before, reused_before) = (
            counter(addr, DESCRIBE_CONTEXTS_BUILT),
            counter(addr, DESCRIBE_CONTEXTS_REUSED),
        );
        let mut sizes = Vec::new();
        for epoch in 0..3 {
            match epoch {
                1 => {
                    let r = request(addr, "POST", "/ingest", Some(&live_batch), TIMEOUT)
                        .expect("ingest");
                    assert_eq!(r.status, 200, "{}", r.body);
                    assert!(r.body.contains("\"folded\":false"), "{}", r.body);
                }
                2 => {
                    let r = request(addr, "POST", "/ingest", Some(&fold_batch), TIMEOUT)
                        .expect("ingest");
                    assert_eq!(r.status, 200, "{}", r.body);
                    assert!(r.body.contains("\"folded\":true"), "{}", r.body);
                }
                _ => {}
            }
            for &street in &described {
                for (i, params) in shapes.iter().enumerate() {
                    let doc = describe(addr, street, params);
                    assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));
                    // The first describe of a street builds at boot and
                    // after the fold; under the live delta only where the
                    // live batch reaches, the rest carried from boot.
                    let builds = i == 0 && (epoch != 1 || reached(street));
                    assert_eq!(context_built(&doc), builds, "epoch {epoch} street {street}");
                    let (selected, objective, counters, size) = expected(epoch, street, params);
                    assert_eq!(
                        answer(&doc),
                        (selected, objective, counters),
                        "epoch {epoch} street {street} {params:?}"
                    );
                    sizes.push(size);
                }
            }
        }
        (
            sizes,
            counter(addr, DESCRIBE_CONTEXTS_BUILT) - built_before,
            counter(addr, DESCRIBE_CONTEXTS_REUSED) - reused_before,
        )
    });
    assert_eq!(report.panics, 0);
    assert_eq!(report.errors, 0);
    // Four streets × three shapes × three epochs: boot builds 4, the live
    // epoch rebuilds the first street and carries the other 3, the fold
    // builds 4 again; every other describe reads its epoch's context.
    assert_eq!((built, reused), (9.0, 27.0));
    // Each batch did change the first street's Rs.
    let n = members.len();
    let first_street = |epoch: usize| sizes[epoch * shapes.len() * described.len()];
    assert_eq!(
        [0, 1, 2].map(first_street),
        [n, n + 1, n - 1],
        "|Rs| of street {street} per epoch"
    );
}

#[test]
fn racing_describes_of_one_street_build_its_context_once() {
    let _serial = serial();
    const CLIENTS: usize = 8;
    let config = ServeConfig {
        engine_threads: CLIENTS,
        ..config()
    };
    let (street, _) = busy_streets(&config, 8).swap_remove(0);
    let params = DescribeParams::new(10, 0.5, 0.5).expect("valid");
    let ((docs, built, reused), report) = with_server(&config, |addr| {
        let before = (
            counter(addr, DESCRIBE_CONTEXTS_BUILT),
            counter(addr, DESCRIBE_CONTEXTS_REUSED),
        );
        let start = Barrier::new(CLIENTS);
        let docs: Vec<Json> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        describe(addr, street, &params)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client"))
                .collect()
        });
        (
            docs,
            counter(addr, DESCRIBE_CONTEXTS_BUILT) - before.0,
            counter(addr, DESCRIBE_CONTEXTS_REUSED) - before.1,
        )
    });
    assert_eq!(report.panics, 0);
    assert_eq!((built, reused), (1.0, (CLIENTS - 1) as f64));
    assert_eq!(docs.iter().filter(|doc| context_built(doc)).count(), 1);
    for doc in &docs[1..] {
        assert_eq!(answer(doc), answer(&docs[0]));
    }
}
