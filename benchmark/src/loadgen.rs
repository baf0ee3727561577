//! The load generator: an open loop on a fixed schedule, a closed loop of
//! waiting clients, and the `/ingest` writer.
//!
//! The server answers `Connection: close`, so one request is one
//! connection. In the open loop a request's latency runs from the instant
//! it was *due*, not from when it was sent: when every connection is
//! stalled, later requests go out late and that wait is counted (and
//! reported on its own as lateness).

use crate::workload::Request;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-request client timeout; well above the server's 250 ms deadline, so
/// a timeout is a transport failure, not a slow answer.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// One request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the workload's request list.
    pub index: usize,
    /// Open loop: due time to last response byte. Closed loop: send to
    /// last response byte.
    pub latency_ms: f64,
    /// Open loop: how long after its due time the request was sent.
    pub late_ms: f64,
    /// When the response was complete, from the start of the phase.
    pub done_ms: f64,
    /// HTTP status, 0 for a transport failure.
    pub status: u16,
    /// Response body (empty on transport failure).
    pub body: String,
}

fn send(addr: SocketAddr, request: &Request) -> (u16, String) {
    match soi_serve::client::request(
        addr,
        "POST",
        request.endpoint().path(),
        Some(&request.body),
        REQUEST_TIMEOUT,
    ) {
        Ok(response) => (response.status, response.body),
        Err(_) => (0, String::new()),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Sends `requests[(first + i) % len]` for `i in 0..count`, request `i`
/// due at `i / rate` seconds after the start, over `clients` connections.
/// Returns one sample per request, in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    first: usize,
    count: usize,
    rate: f64,
    clients: usize,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return mine;
                        }
                        let index = (first + i) % requests.len();
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        sleep_until(due);
                        let sent = Instant::now();
                        let (status, body) = send(addr, &requests[index]);
                        let done = Instant::now();
                        mine.push(Sample {
                            index,
                            latency_ms: ms(done.saturating_duration_since(due)),
                            late_ms: ms(sent.saturating_duration_since(due)),
                            done_ms: ms(done.saturating_duration_since(start)),
                            status,
                            body,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop client panicked"))
            .collect()
    });
    // Schedule order: `first + i` is monotone in `i` until the list wraps,
    // so order by position relative to `first`.
    let len = requests.len();
    samples.sort_by_key(|s| (s.index + len - first % len) % len);
    samples
}

/// `clients` connections each send their next request as soon as the
/// previous one is answered, for `duration`. Returns the samples and the
/// measured wall-clock of the phase.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    first: usize,
    duration: Duration,
    clients: usize,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + duration;
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let index = (first + i) % requests.len();
                        let sent = Instant::now();
                        let (status, body) = send(addr, &requests[index]);
                        mine.push(Sample {
                            index,
                            latency_ms: ms(sent.elapsed()),
                            late_ms: 0.0,
                            done_ms: ms(start.elapsed()),
                            status,
                            body,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    (samples, start.elapsed())
}

/// One `/ingest` batch as the writer saw it.
#[derive(Debug, Clone)]
pub struct IngestSample {
    /// Send to acknowledgement: journal fsync + seal (+ fold) + swap.
    pub round_trip_ms: f64,
    /// HTTP status, 0 for a transport failure.
    pub status: u16,
    /// The acknowledgement reported a fold.
    pub folded: bool,
}

/// Posts `batches` to `/ingest` on one connection at a time, batch `i` due
/// `i × interval` after the start (sent late, never skipped, when an
/// acknowledgement overruns the interval). Stops early once `stop` is set.
pub fn ingest_loop(
    addr: SocketAddr,
    batches: &[String],
    interval: Duration,
    stop: &AtomicBool,
) -> Vec<IngestSample> {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        sleep_until(start + interval * i as u32);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = Instant::now();
        let response =
            soi_serve::client::request(addr, "POST", "/ingest", Some(batch), REQUEST_TIMEOUT);
        let round_trip_ms = ms(sent.elapsed());
        samples.push(match response {
            Ok(r) => IngestSample {
                round_trip_ms,
                status: r.status,
                folded: r.body.contains("\"folded\":true"),
            },
            Err(_) => IngestSample {
                round_trip_ms,
                status: 0,
                folded: false,
            },
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{requests, Workload};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::Arc;

    /// Reads one request (head and `Content-Length` body) off `stream`, so
    /// closing it afterwards cannot reset the connection under the reply.
    fn read_full_request(stream: &mut std::net::TcpStream) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            let got = stream.read(&mut chunk).expect("read");
            assert!(got > 0, "client closed early");
            buf.extend_from_slice(&chunk[..got]);
            let text = String::from_utf8_lossy(&buf);
            if let Some((head, body)) = text.split_once("\r\n\r\n") {
                let want: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                if body.len() >= want {
                    return;
                }
            }
        }
    }

    /// A single-threaded server answering every request `200 {}` in
    /// arrival order, sleeping `stall` before answering request number
    /// `stall_on` (0-based). Serves `total` requests, then exits.
    fn stub_server(
        total: usize,
        stall_on: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            for n in 0..total {
                let (mut stream, _) = listener.accept().expect("accept");
                read_full_request(&mut stream);
                if n == stall_on {
                    std::thread::sleep(stall);
                }
                stream
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
                    )
                    .expect("write");
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_keeps_schedule_and_counts_the_stall_as_lateness() {
        let list = requests(Workload::SoiHot, 1, &[]);
        // 20 requests at 100/s = one every 10 ms; request 5 stalls 120 ms
        // on the only connection, so the following ones are sent late.
        let stall = Duration::from_millis(120);
        let (addr, server) = stub_server(20, 5, stall);
        let started = Instant::now();
        let samples = open_loop(addr, &list, 10, 20, 100.0, 1);
        let elapsed = started.elapsed();
        server.join().expect("stub server");

        assert_eq!(samples.len(), 20);
        assert!(samples.iter().all(|s| s.status == 200 && s.body == "{}"));
        let indices: Vec<usize> = samples.iter().map(|s| s.index).collect();
        assert_eq!(indices, (10..30).collect::<Vec<_>>());
        // The schedule spans 190 ms; the stall adds at most its length.
        assert!(elapsed >= Duration::from_millis(190), "{elapsed:?}");
        // Before the stall nothing is late (generous bound for a busy host).
        assert!(samples[..5].iter().all(|s| s.late_ms < 50.0), "{samples:?}");
        // The stalled request itself was sent on time but answered late.
        assert!(samples[5].late_ms < 50.0 && samples[5].latency_ms >= 120.0);
        // The next request was due 10 ms into the stall: sent ~110 ms late,
        // and its latency from the due time includes that wait.
        assert!(samples[6].late_ms >= 100.0, "{:?}", samples[6]);
        assert!(samples[6].latency_ms >= samples[6].late_ms);
        // The backlog drains: the last request is less late than the first
        // one behind the stall.
        assert!(samples[19].late_ms < samples[6].late_ms);
    }

    #[test]
    fn open_loop_wraps_the_list_in_schedule_order() {
        let list = requests(Workload::SoiHot, 1, &[])[..8].to_vec();
        let (addr, server) = stub_server(6, usize::MAX, Duration::ZERO);
        let samples = open_loop(addr, &list, 5, 6, 500.0, 2);
        server.join().expect("stub server");
        let indices: Vec<usize> = samples.iter().map(|s| s.index).collect();
        assert_eq!(indices, vec![5, 6, 7, 0, 1, 2]);
    }

    #[test]
    fn closed_loop_sends_back_to_back_until_the_deadline() {
        let list = requests(Workload::SoiHot, 1, &[]);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let done = Arc::new(AtomicBool::new(false));
        let server = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                listener.set_nonblocking(true).expect("nonblocking");
                while !done.load(Ordering::SeqCst) {
                    let Ok((mut stream, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    stream.set_nonblocking(false).expect("blocking");
                    read_full_request(&mut stream);
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                        .expect("write");
                }
            })
        };
        let (samples, wall) = closed_loop(addr, &list, 0, Duration::from_millis(150), 2);
        done.store(true, Ordering::SeqCst);
        server.join().expect("stub server");
        assert!(wall >= Duration::from_millis(150));
        assert!(samples.len() >= 4, "only {} requests", samples.len());
        assert!(samples.iter().all(|s| s.status == 200 && s.late_ms == 0.0));
    }

    #[test]
    fn unreachable_server_is_a_transport_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        let list = requests(Workload::SoiHot, 1, &[]);
        let samples = open_loop(addr, &list, 0, 2, 1000.0, 1);
        assert!(samples.iter().all(|s| s.status == 0 && s.body.is_empty()));
    }
}
