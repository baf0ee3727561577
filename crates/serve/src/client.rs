//! A minimal blocking HTTP/1.1 client for `soi ingest`, the benchmark's
//! load generator and tests.
//!
//! Speaks exactly the dialect the server emits (`Connection: close`,
//! `Content-Length` bodies), with a per-request timeout. It never retries:
//! a shed request surfaces as its 503.

use soi_common::{Result, SoiError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub(crate) headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response, bounded by `timeout`.
///
/// # Errors
/// Connection, timeout, or malformed-response failures.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response> {
    let label = || format!("{method} {path}");
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| SoiError::io(e, addr.to_string()))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| SoiError::io(e, label()))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| SoiError::io(e, label()))?;
    let mut stream = stream;

    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: soi\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(payload.as_bytes()))
        .map_err(|e| SoiError::io(e, label()))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| SoiError::io(e, label()))?;
    parse_response(&raw)
}

/// Parses a `Connection: close` response (body runs to EOF).
fn parse_response(raw: &[u8]) -> Result<Response> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| SoiError::invalid("response had no header terminator"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| SoiError::invalid(format!("bad status line {status_line:?}")))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|line| {
            line.split_once(':')
                .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Ok(Response {
        status,
        headers,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response() {
        let raw =
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nX-Soi-Request-Id: 42\r\n\r\n{}";
        let response = parse_response(raw).expect("parses");
        assert_eq!(response.status, 503);
        assert_eq!(response.body, "{}");
        assert_eq!(response.header("x-soi-request-id"), Some("42"));
        assert_eq!(response.header("X-SOI-REQUEST-ID"), Some("42"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
    }
}
