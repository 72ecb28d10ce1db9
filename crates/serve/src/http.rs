//! Minimal HTTP/1.1 request parsing and response writing over a
//! `TcpStream` — exactly the slice of the protocol a metrics scrape and
//! a JSON POST need, hand-rolled so the workspace stays zero-dependency.
//!
//! The server speaks one request per connection (`Connection: close`),
//! which sidesteps keep-alive bookkeeping entirely: Prometheus, `curl`
//! and the bench drivers all handle that fine, and the served routes
//! have no use for pipelining. Request heads are capped at
//! [`MAX_HEAD_BYTES`], bodies at a caller-chosen limit (oversize bodies
//! are a distinct [`ReadError::BodyTooLarge`] so the server can answer
//! `413 Payload Too Large` instead of a generic 400), and the whole
//! request must arrive within one [`READ_TIMEOUT`] deadline, so a stuck
//! or slowly dripping client cannot wedge a handler thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers). A metrics
/// scrape is a few hundred bytes; 8 KiB matches common server defaults.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Default request-body cap. Characterize requests are a few hundred
/// bytes of JSON; 64 KiB leaves room for large override maps while
/// keeping a misbehaving client from ballooning handler memory.
pub(crate) const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024;

/// Time allowed for one whole request (head and body) — a client that
/// stalls or drips bytes is cut off when it runs out.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request: method, path, headers, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// HTTP method, uppercased by the client (`GET`, `POST`, …).
    pub(crate) method: String,
    /// Decoded-enough path for routing: `/metrics`, `/healthz`, …
    /// (percent-decoding is deliberately not performed; the served
    /// routes are plain ASCII).
    pub(crate) path: String,
    /// Header `(name, value)` pairs in arrival order, names as sent.
    pub(crate) headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// First value of `name`, compared case-insensitively per RFC 9110.
    #[must_use]
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps onto one response
/// status, decided by the server layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReadError {
    /// Unparseable request line or headers, an oversized head, an
    /// unsupported `Transfer-Encoding`, a missed deadline, or a peer that
    /// hung up mid-request — all answered 400 (when the socket still
    /// works).
    Malformed,
    /// `Content-Length` exceeds the configured cap — answered 413.
    BodyTooLarge {
        /// The cap that was exceeded, for the error body.
        limit: usize,
    },
}

/// Reads and parses one request (head **and** body) from `stream`.
///
/// Bodies are read iff the client sent `Content-Length`; chunked
/// transfer encoding is not supported (none of the served clients use
/// it) and is rejected as [`ReadError::Malformed`]. A declared length
/// above `max_body` fails *before* reading the body, so a hostile
/// client cannot make the server buffer it. The whole request must
/// arrive within [`READ_TIMEOUT`] of the call.
///
/// # Errors
///
/// See [`ReadError`].
pub(crate) fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, ReadError> {
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the blank line ending the header block. Bytes past it
    // (an eagerly-sent body) stay in `buf` and are consumed below.
    let head_len = loop {
        if let Some(len) = head_end(&buf) {
            break len;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ReadError::Malformed);
        }
        let n = read_before(stream, &mut chunk, deadline)?;
        buf.extend_from_slice(&chunk[..n]);
    };
    // The read that completed the head may have crossed the cap.
    if head_len > MAX_HEAD_BYTES {
        return Err(ReadError::Malformed);
    }
    let mut request = parse_head(&buf[..head_len]).ok_or(ReadError::Malformed)?;
    if request.header("Transfer-Encoding").is_some() {
        return Err(ReadError::Malformed);
    }
    let content_length: usize = match request.header("Content-Length") {
        None => 0,
        Some(text) => text.trim().parse().map_err(|_| ReadError::Malformed)?,
    };
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge { limit: max_body });
    }
    let mut body = buf[head_len..].to_vec();
    while body.len() < content_length {
        let n = read_before(stream, &mut chunk, deadline)?;
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    request.body = body;
    Ok(request)
}

/// One read into `chunk` that must finish by `deadline`: the socket
/// timeout is set to the time remaining, so a client cannot stretch the
/// request by sending a byte just before each read would time out.
/// A passed deadline, a timeout, a reset, or a peer that closed
/// mid-request are all [`ReadError::Malformed`].
fn read_before(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, ReadError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() || stream.set_read_timeout(Some(remaining)).is_err() {
        return Err(ReadError::Malformed);
    }
    match stream.read(chunk) {
        Ok(0) | Err(_) => Err(ReadError::Malformed),
        Ok(n) => Ok(n),
    }
}

/// Index one past the blank line terminating the head, or `None` while
/// incomplete. Handles both `\r\n\r\n` and bare `\n\n` framing.
fn head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Parses the request line and headers out of the head bytes.
fn parse_head(head: &[u8]) -> Option<Request> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let line = lines.next()?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':')?;
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
    }
    // Strip any query string; the routes take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    Some(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body: Vec::new(),
    })
}

/// Reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Writes a complete response with `Content-Length` and
/// `Connection: close`. Errors are swallowed — the peer hanging up
/// mid-response is its own problem, not the server's.
pub(crate) fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    write_response_with(stream, status, content_type, &[], body);
}

/// [`write_response`] plus extra `(name, value)` headers — `Allow` on a
/// 405, `Retry-After` on a 429, the cache-status header on a
/// characterize response. Callers must pass well-formed ASCII pairs.
pub(crate) fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_strips_query() {
        let req =
            parse_head(b"GET /metrics?x=1 HTTP/1.1\r\nHost: a\r\n\r\n").expect("valid request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.header("host"), Some("a"));
        assert_eq!(req.header("HOST"), Some("a"));
        assert_eq!(req.header("content-length"), None);
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        assert_eq!(parse_head(b"\r\n\r\n"), None);
        assert_eq!(parse_head(b"GET\r\n\r\n"), None);
        assert_eq!(parse_head(b"GET /x SMTP/1.0\r\n\r\n"), None);
        assert_eq!(parse_head(b"\xff\xfe\n"), None);
        // A header line without a colon is malformed.
        assert_eq!(parse_head(b"GET / HTTP/1.1\r\nbogus line\r\n\r\n"), None);
    }

    #[test]
    fn head_detection_handles_both_line_endings() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
        // Body bytes after the blank line do not move the boundary.
        assert_eq!(head_end(b"POST / HTTP/1.1\r\n\r\n{\"k\":1}"), Some(19));
    }

    #[test]
    fn headers_parse_in_order_with_trimming() {
        let req = parse_head(
            b"POST /v1/characterize HTTP/1.1\r\nContent-Type:  application/json \r\nContent-Length: 7\r\n\r\n",
        )
        .expect("valid head");
        assert_eq!(req.header("Content-Type"), Some("application/json"));
        assert_eq!(req.header("Content-Length"), Some("7"));
        assert_eq!(req.headers.len(), 2);
    }

    #[test]
    fn head_completed_by_the_read_that_crosses_the_cap_is_rejected() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // A short first write shifts the server's 512-byte reads off
            // the cap, so the blank line lands in the read crossing it.
            // The fixed reader rejects every read pattern; the pause only
            // makes the unfixed reader's gap reachable.
            let line = b"GET / HTTP/1.1\r\n";
            stream.write_all(line).expect("request line");
            std::thread::sleep(Duration::from_millis(100));
            let pad = "a".repeat(MAX_HEAD_BYTES + 8 - line.len() - "X-Pad: \r\n\r\n".len());
            stream
                .write_all(format!("X-Pad: {pad}\r\n\r\n").as_bytes())
                .expect("headers");
            stream
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let result = read_request(&mut conn, DEFAULT_MAX_BODY_BYTES);
        drop(client.join().expect("client"));
        assert_eq!(result, Err(ReadError::Malformed));
    }
}
