//! Helpers shared by the serving-layer integration tests.

use soi_serve::client::{request, Response};
use std::net::SocketAddr;
use std::time::Duration;

/// `GET path`, retried with doubling backoff (from 50 ms, ten times) while
/// the server sheds it with a 503 or the connection fails: right after a
/// burst, the connection backlog may legitimately shed.
pub fn get_until_admitted(addr: SocketAddr, path: &str) -> soi_common::Result<Response> {
    let timeout = Duration::from_secs(10);
    let mut backoff = Duration::from_millis(50);
    let mut outcome = request(addr, "GET", path, None, timeout);
    for _ in 0..10 {
        if outcome.as_ref().is_ok_and(|r| r.status != 503) {
            break;
        }
        std::thread::sleep(backoff);
        backoff *= 2;
        outcome = request(addr, "GET", path, None, timeout);
    }
    outcome
}
