//! Minimal, bounded HTTP/1.1 request parsing and response writing over a
//! [`TcpStream`].
//!
//! This is deliberately not a general HTTP implementation: it supports
//! exactly what the serving layer needs — `GET`/`POST`, `Content-Length`
//! bodies, `Connection: close` semantics — with every read bounded in both
//! *bytes* (line, header-block, and body caps) and *time* (socket
//! timeouts). A slow-loris client stalls against the socket timeout; a
//! client streaming an unbounded body is cut off at the configured cap.
//! Both cost one worker a bounded slice of time, never a wedge.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Byte and time caps applied while parsing one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max request-line length (method + target + version).
    pub(crate) max_request_line: usize,
    /// Max bytes across all header lines.
    pub(crate) max_header_bytes: usize,
    /// Max header count.
    pub(crate) max_headers: usize,
    /// Max `Content-Length` accepted.
    pub(crate) max_body_bytes: usize,
    /// Overall wall-clock cap on parsing one request. The per-read socket
    /// timeout alone does not stop a drip-feed client (one byte per
    /// interval resets it every read); this deadline does.
    pub(crate) max_parse_time: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_request_line: 4096,
            max_header_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 64 * 1024,
            max_parse_time: Duration::from_secs(5),
        }
    }
}

/// A parsed request: method, target (path + optional query) and body. The
/// headers are read for the body's framing and not kept.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercase as sent.
    pub(crate) method: String,
    /// The request target as sent (`/soi`, `/debug/requests?limit=5`, …).
    pub(crate) target: String,
    /// The request body (empty without `Content-Length`).
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// The target's path component (query string stripped).
    pub(crate) fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's raw query string, if any.
    pub(crate) fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// The `name=value` pairs of a raw query string, in order: empty pairs are
/// skipped, and a pair without `=` has an empty value. Nothing is decoded.
pub(crate) fn query_pairs(raw: &str) -> impl Iterator<Item = (&str, &str)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
}

/// Why a request could not be parsed, mapped to a response status.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request (bad request line, header, length).
    Malformed(String),
    /// Request line, header block, or body exceeded its byte cap.
    TooLarge(String),
    /// A feature this server intentionally does not implement (chunked
    /// transfer encoding, unsupported methods).
    Unsupported(String),
    /// The socket read or write timed out (slow or stalled peer).
    Timeout,
    /// The peer closed the connection before a full request arrived.
    Closed,
    /// Any other socket-level I/O failure.
    Io(std::io::Error),
}

impl HttpError {
    /// The `(status, reason)` to answer with; `None` means the peer is gone
    /// and the connection should just be dropped.
    pub(crate) fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::TooLarge(_) => Some((413, "Payload Too Large")),
            HttpError::Unsupported(_) => Some((501, "Not Implemented")),
            HttpError::Timeout => Some((408, "Request Timeout")),
            HttpError::Closed | HttpError::Io(_) => None,
        }
    }

    /// A short human-readable description for the error body.
    pub fn describe(&self) -> String {
        match self {
            HttpError::Malformed(m) | HttpError::TooLarge(m) | HttpError::Unsupported(m) => {
                m.clone()
            }
            HttpError::Timeout => "request read timed out".to_string(),
            HttpError::Closed => "connection closed".to_string(),
            HttpError::Io(e) => e.to_string(),
        }
    }

    fn from_io(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => HttpError::Closed,
            _ => HttpError::Io(e),
        }
    }
}

/// A tiny buffered reader over the socket: reads ahead in 4 KiB chunks and
/// hands out CRLF-terminated lines and exact-length bodies, both bounded.
struct ByteReader<'a> {
    stream: &'a mut TcpStream,
    buf: Vec<u8>,
    start: usize,
    deadline: Instant,
}

impl<'a> ByteReader<'a> {
    fn new(stream: &'a mut TcpStream, max_parse_time: Duration) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            start: 0,
            deadline: Instant::now() + max_parse_time,
        }
    }

    /// Pulls more bytes from the socket; `Closed` on EOF, `Timeout` once
    /// the overall parse deadline has passed (drip-feed defense).
    fn fill(&mut self) -> Result<(), HttpError> {
        if Instant::now() > self.deadline {
            return Err(HttpError::Timeout);
        }
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).map_err(HttpError::from_io)?;
        if n == 0 {
            return Err(HttpError::Closed);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads one `\r\n`-terminated line of at most `max` bytes (terminator
    /// excluded); a bare `\n` terminator is tolerated.
    fn read_line(&mut self, max: usize) -> Result<String, HttpError> {
        loop {
            if let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let end = self.start + pos;
                let mut line = &self.buf[self.start..end];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                if line.len() > max {
                    return Err(HttpError::TooLarge(format!(
                        "line of {} bytes exceeds the {max}-byte cap",
                        line.len()
                    )));
                }
                let text = std::str::from_utf8(line)
                    .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".to_string()))?
                    .to_string();
                self.start = end + 1;
                return Ok(text);
            }
            // No terminator buffered yet: enforce the cap on the unfinished
            // line *before* reading more, so an endless unterminated line is
            // rejected after at most `max` + one chunk of socket reads.
            if self.buf.len() - self.start > max {
                return Err(HttpError::TooLarge(format!(
                    "unterminated line exceeds the {max}-byte cap"
                )));
            }
            self.fill()?;
        }
    }

    /// Reads exactly `n` body bytes (buffered remainder first).
    fn read_body(&mut self, n: usize) -> Result<Vec<u8>, HttpError> {
        let mut body = Vec::with_capacity(n);
        let buffered = (self.buf.len() - self.start).min(n);
        body.extend_from_slice(&self.buf[self.start..self.start + buffered]);
        self.start += buffered;
        while body.len() < n {
            if Instant::now() > self.deadline {
                return Err(HttpError::Timeout);
            }
            let mut chunk = [0u8; 4096];
            let want = (n - body.len()).min(chunk.len());
            let got = self
                .stream
                .read(&mut chunk[..want])
                .map_err(HttpError::from_io)?;
            if got == 0 {
                return Err(HttpError::Closed);
            }
            body.extend_from_slice(&chunk[..got]);
        }
        Ok(body)
    }
}

/// Reads and parses one HTTP/1.1 request within `limits`.
///
/// Socket timeouts must already be set by the caller; a stalled peer
/// surfaces as [`HttpError::Timeout`].
///
/// # Errors
/// Any parse failure, cap violation, timeout, or socket error — see
/// `HttpError::status` for the response mapping.
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, HttpError> {
    let mut reader = ByteReader::new(stream, limits.max_parse_time);
    let request_line = reader.read_line(limits.max_request_line)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let method = method.to_string();
    let target = target.to_string();

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = reader.read_line(limits.max_request_line)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > limits.max_header_bytes {
            return Err(HttpError::TooLarge(format!(
                "header block exceeds the {}-byte cap",
                limits.max_header_bytes
            )));
        }
        if headers.len() == limits.max_headers {
            return Err(HttpError::TooLarge(format!(
                "more than {} headers",
                limits.max_headers
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let transfer_encoding = headers
        .iter()
        .find(|(n, _)| n == "transfer-encoding")
        .map(|(_, v)| v.as_str());
    if let Some(te) = transfer_encoding {
        return Err(HttpError::Unsupported(format!(
            "transfer-encoding {te:?} is not supported; send Content-Length"
        )));
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {}-byte cap",
            limits.max_body_bytes
        )));
    }
    let body = if content_length > 0 {
        reader.read_body(content_length)?
    } else {
        Vec::new()
    };

    Ok(Request {
        method,
        target,
        body,
    })
}

/// Writes a complete `Connection: close` response.
///
/// # Errors
/// Propagates socket write failures (including write timeouts).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with_headers(stream, status, reason, content_type, body, &[])
}

/// [`write_response`] with extra response headers (e.g. the per-request
/// `x-soi-request-id`). Header names and values must already be valid
/// token/field text — they are written verbatim.
///
/// # Errors
/// Propagates socket write failures (including write timeouts).
pub fn write_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("connection: close\r\n\r\n");
    // Head and body leave in one write: one syscall and, for the usual
    // small answer, one TCP segment on this close-after-reply socket.
    let mut response = head.into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// Writes a JSON error body `{"error": ...}` with the given status.
///
/// # Errors
/// Propagates socket write failures.
pub(crate) fn write_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    message: &str,
) -> std::io::Result<()> {
    let mut obj = soi_obs::json::JsonWriter::object();
    obj.field_str("error", message);
    obj.field_u64("status", u64::from(status));
    write_response(
        stream,
        status,
        reason,
        "application/json",
        obj.finish().as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(input: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(input).unwrap();
        drop(client); // EOF after the payload
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side, &Limits::default())
    }

    #[test]
    fn parses_get_with_query() {
        let req = roundtrip(b"GET /debug/requests?limit=5 HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/debug/requests");
        assert_eq!(req.query(), Some("limit=5"));
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(b"POST /soi HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(
            roundtrip(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let err = roundtrip(b"POST /soi HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n");
        assert!(matches!(err, Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn rejects_chunked_transfer() {
        let err = roundtrip(b"POST /soi HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
        assert!(matches!(err, Err(HttpError::Unsupported(_))));
    }

    #[test]
    fn truncated_request_is_closed_not_hung() {
        assert!(matches!(
            roundtrip(b"POST /soi HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn response_arrives_whole_head_then_body() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        // Larger than a loopback socket buffer: the single write must still
        // deliver every byte while the client reads.
        let body = vec![b'x'; 1 << 20];
        let expected_body = body.clone();
        let writer = std::thread::spawn(move || {
            write_response_with_headers(
                &mut server_side,
                200,
                "OK",
                "text/plain",
                &body,
                &[("x-soi-request-id", "7")],
            )
        });
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        writer.join().unwrap().unwrap();
        let head = "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 1048576\r\n\
                    x-soi-request-id: 7\r\nconnection: close\r\n\r\n";
        assert_eq!(&got[..head.len()], head.as_bytes());
        assert_eq!(&got[head.len()..], &expected_body[..]);
    }

    #[test]
    fn unterminated_line_is_bounded() {
        let long = vec![b'a'; 10_000];
        assert!(matches!(roundtrip(&long), Err(HttpError::TooLarge(_))));
    }
}
