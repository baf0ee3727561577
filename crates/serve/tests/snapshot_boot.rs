//! Booting over a corrupt index cache. The cache has one policy: a corrupt
//! snapshot is rebuilt, rewritten, logged and counted in
//! `soi_snapshot_rebuilds_total`, and the server answers what a server
//! booted without a cache answers. A test binary of its own, so no other
//! boot in the process moves the counter.

use soi_data::Dataset;
use soi_serve::client::request;
use soi_serve::{serve, ServeConfig};
use soi_snapshot::Snapshot;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The `/soi` bodies the comparison sends.
const SOI_BODIES: [&str; 2] = [
    "{\"keywords\":[\"shop\",\"food\"],\"k\":5,\"eps\":0.002,\"deadline_ms\":30000}",
    "{\"keywords\":[\"museum\"],\"k\":3,\"deadline_ms\":30000}",
];

/// Boots a server over `dataset` with `index_cache`, runs `f` against it,
/// then drains it.
fn with_server<T: Send>(
    dataset: &Dataset,
    index_cache: Option<PathBuf>,
    f: impl FnOnce(SocketAddr) -> T + Send,
) -> T {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        index_cache,
        ..ServeConfig::default()
    };
    let shutdown = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve(dataset, &config, &shutdown, |addr| {
                tx.send(addr).expect("ready channel open")
            })
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("server became ready");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        shutdown.store(true, Ordering::SeqCst);
        let report = server
            .join()
            .expect("server thread joins")
            .expect("server runs");
        assert!(report.drained);
        result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// `soi_snapshot_rebuilds_total` as `/metrics` reports it.
fn rebuilds(addr: SocketAddr) -> f64 {
    let metrics = request(addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    metrics
        .body
        .lines()
        .find_map(|line| line.strip_prefix("soi_snapshot_rebuilds_total "))
        .and_then(|value| value.trim().parse().ok())
        .expect("soi_snapshot_rebuilds_total is exposed")
}

/// The `/soi` answers to [`SOI_BODIES`], with their request ids zeroed.
fn soi_answers(addr: SocketAddr) -> Vec<String> {
    SOI_BODIES
        .iter()
        .map(|body| {
            let soi = request(addr, "POST", "/soi", Some(body), TIMEOUT).expect("soi");
            assert_eq!(soi.status, 200, "body: {}", soi.body);
            without_request_id(&soi.body)
        })
        .collect()
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

/// The one snapshot file in `cache`.
fn the_snapshot(cache: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(cache)
        .expect("cache directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "soisnap"))
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    files.into_iter().next().expect("one snapshot")
}

#[test]
fn a_corrupt_cached_snapshot_is_rebuilt_counted_and_served_like_no_cache() {
    let dataset = soi_datagen::generate(&soi_datagen::london(0.03)).0;
    let dir = std::env::temp_dir().join(format!("soi_serve_snapboot_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache");

    let fresh = with_server(&dataset, None, soi_answers);
    // The first boot over the empty cache files the base snapshot.
    let before = with_server(&dataset, Some(cache.clone()), rebuilds);
    let snap = the_snapshot(&cache);

    // Storage bitrot: flip one payload byte of the base snapshot.
    let offset = Snapshot::open(&snap).expect("a sound snapshot").sections()[0].offset as usize;
    let mut bytes = std::fs::read(&snap).expect("snapshot bytes");
    bytes[offset] ^= 0x01;
    std::fs::write(&snap, &bytes).expect("rewrite snapshot");
    assert!(Snapshot::open(&snap).is_err(), "the flip must corrupt it");

    let (status, after, served) = with_server(&dataset, Some(cache.clone()), |addr| {
        let status = request(addr, "GET", "/status", None, TIMEOUT).expect("status");
        (status.status, rebuilds(addr), soi_answers(addr))
    });
    assert_eq!(status, 200);
    assert_eq!(after, before + 1.0, "the corrupt boot counts one rebuild");
    assert_eq!(the_snapshot(&cache), snap, "rewritten under the same key");
    Snapshot::open(&snap).expect("the rewritten snapshot opens");
    assert_eq!(served, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}
