//! Overload and fault-injection suite: hostile or broken clients must be
//! rejected in bounded time, must never panic a worker, and must never
//! wedge the server — after every abuse the server still answers a clean
//! request and drains with zero recorded panics.

mod support;

use soi_data::Dataset;
use soi_serve::client::request;
use soi_serve::{serve, ServeConfig, ServeReport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};
use support::get_until_admitted;

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| soi_datagen::generate(&soi_datagen::london(0.02)).0)
}

fn with_server<T: Send>(
    config: ServeConfig,
    f: impl FnOnce(SocketAddr) -> T + Send,
) -> (T, ServeReport) {
    let dataset = dataset();
    let shutdown = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve(dataset, &config, &shutdown, |addr| {
                tx.send(addr).expect("ready channel open")
            })
            .expect("server runs")
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("server became ready");
        // Catch panics from the test body so the shutdown flag still flips
        // and the server thread joins -- otherwise the scope would wait on
        // it forever and a failing assertion would hang the whole test.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        shutdown.store(true, Ordering::SeqCst);
        let report = server.join().expect("server thread joins");
        match result {
            Ok(result) => (result, report),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Short socket timeout so every bounded-time assertion runs fast.
fn hostile_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        socket_timeout: Duration::from_millis(300),
        max_body_bytes: 4 * 1024,
        ..ServeConfig::default()
    }
}

/// Sends raw bytes, optionally keeps the socket open, and returns the raw
/// response (may be empty if the server just closed the connection).
fn send_raw(addr: SocketAddr, payload: &[u8], then_close: bool) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(payload).expect("write");
    if then_close {
        drop(stream);
        return Vec::new();
    }
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

/// The server must still answer a clean request: the abused worker was
/// neither wedged nor killed.
fn assert_still_serving(addr: SocketAddr) {
    let r = get_until_admitted(addr, "/status").expect("status");
    assert_eq!(r.status, 200, "server unhealthy after abuse: {}", r.body);
}

#[test]
fn hostile_clients_are_rejected_bounded_and_never_wedge() {
    let timeout = hostile_config().socket_timeout;
    let ((), report) = with_server(hostile_config(), |addr| {
        // 1. Malformed request line: prompt 400.
        let started = Instant::now();
        let raw = send_raw(addr, b"GARBAGE\r\n\r\n", false);
        let text = String::from_utf8_lossy(&raw).into_owned();
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text:?}");
        assert!(
            started.elapsed() < timeout * 4,
            "malformed line not bounded"
        );
        assert_still_serving(addr);

        // 2. Oversized declared body: 413 without reading the payload.
        let started = Instant::now();
        let raw = send_raw(
            addr,
            b"POST /soi HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
            false,
        );
        let text = String::from_utf8_lossy(&raw).into_owned();
        assert!(text.starts_with("HTTP/1.1 413"), "got: {text:?}");
        assert!(
            started.elapsed() < timeout * 4,
            "oversized body not bounded"
        );
        assert_still_serving(addr);

        // 3. Chunked transfer: 501, explicitly unsupported.
        let raw = send_raw(
            addr,
            b"POST /soi HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            false,
        );
        let text = String::from_utf8_lossy(&raw).into_owned();
        assert!(text.starts_with("HTTP/1.1 501"), "got: {text:?}");
        assert_still_serving(addr);

        // 4. Abruptly closed socket mid-request: server drops it silently.
        let started = Instant::now();
        send_raw(
            addr,
            b"POST /soi HTTP/1.1\r\ncontent-length: 100\r\n\r\nabc",
            true,
        );
        assert!(started.elapsed() < timeout * 4);
        assert_still_serving(addr);

        // 5. Slow-writing (drip-feed) client: one byte at a time. The
        //    overall parse deadline must cut it off — the per-read socket
        //    timeout alone never fires against a steady drip.
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut response = Vec::new();
        for b in b"GET /status HTTP/1.1\r" {
            if stream.write_all(&[*b]).is_err() {
                break; // server already gave up on us — that's the point
            }
            std::thread::sleep(Duration::from_millis(20));
            // Stop dripping once the server responded.
            stream
                .set_read_timeout(Some(Duration::from_millis(1)))
                .expect("timeout");
            let mut probe = [0u8; 1024];
            match stream.read(&mut probe) {
                Ok(0) => break,
                Ok(n) => {
                    response.extend_from_slice(&probe[..n]);
                    break;
                }
                Err(_) => {}
            }
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.read_to_end(&mut response);
        let elapsed = started.elapsed();
        assert!(
            elapsed < timeout * 4,
            "drip-feed client held a worker for {elapsed:?}"
        );
        let text = String::from_utf8_lossy(&response).into_owned();
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 408"),
            "expected timeout rejection, got: {text:?}"
        );
        assert_still_serving(addr);

        // 6. A burst of empty connections (open, send nothing, close).
        for _ in 0..8 {
            let stream = TcpStream::connect(addr).expect("connect");
            drop(stream);
        }
        assert_still_serving(addr);

        // 7. Bad JSON and bad fields in otherwise valid HTTP: 400s, not
        //    panics.
        for body in [
            "not json at all",
            "{\"keywords\":123}",
            "{\"keywords\":[\"shop\"],\"k\":-3}",
            "{\"keywords\":[\"shop\"],\"deadline_ms\":\"soon\"}",
            "{}",
        ] {
            let r = request(addr, "POST", "/soi", Some(body), Duration::from_secs(10))
                .expect("response");
            assert_eq!(r.status, 400, "body {body:?} -> {} {}", r.status, r.body);
        }
        // Unknown street: 404.
        let r = request(
            addr,
            "POST",
            "/describe",
            Some("{\"street\":\"no such street\"}"),
            Duration::from_secs(10),
        )
        .expect("response");
        assert_eq!(r.status, 404, "body: {}", r.body);
        assert_still_serving(addr);
    });
    assert_eq!(report.panics, 0, "a hostile client panicked a worker");
    assert!(report.rejected > 0, "edge rejections were not counted");
    assert!(report.drained, "server failed to drain after abuse");
}
