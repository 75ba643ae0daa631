//! A minimal HTTP/1.1 implementation over `std::net`.
//!
//! crates.io is unavailable to this workspace, so `antd` speaks HTTP
//! through this hand-rolled module instead of hyper/axum: blocking
//! reads via [`BufRead`], explicit `Content-Length` framing for
//! buffered messages, chunked transfer coding for the one place the
//! body length is genuinely unknown up front (the daemon streaming
//! generated tokens), keep-alive by default as HTTP/1.1 specifies, and
//! hard limits on header and body sizes so a malicious or confused
//! client cannot balloon server memory. Both sides live here —
//! [`read_request`] / [`Response`] / [`write_chunked_head`] for the
//! daemon, [`read_response`] / [`read_chunk`] for `antc` and the
//! end-to-end tests — so the framing rules can only drift together.
//! Chunked *requests* stay rejected: nothing in this workspace sends
//! them, so accepting them would be untested attack surface.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Largest accepted request line + header block, in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request/response body, in bytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Why a message could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer sent bytes that are not HTTP (or use framing this
    /// module does not implement, e.g. chunked transfer encoding).
    Malformed(String),
    /// The peer exceeded [`MAX_HEADER_BYTES`] or [`MAX_BODY_BYTES`].
    TooLarge(String),
    /// The connection closed mid-message (clean EOF *before* any bytes
    /// is not an error; see [`read_request`]).
    UnexpectedEof,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed message: {m}"),
            HttpError::TooLarge(m) => write!(f, "message too large: {m}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/models/mlp/infer`.
    pub path: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one line terminated by `\n`, stripping the `\r\n`/`\n` tail.
/// Returns `None` on EOF with nothing read.
fn read_line(
    r: &mut impl BufRead,
    budget: &mut usize,
    what: &str,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    // Bound the read itself, not just its result: one byte past the
    // budget proves the line too long, and a peer that never sends
    // '\n' must not be buffered for as long as it keeps sending.
    let n = io::Read::take(&mut *r, *budget as u64 + 1).read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > *budget {
        return Err(HttpError::TooLarge(format!("{what} exceeds header limit")));
    }
    *budget -= n;
    while line.last().is_some_and(|c| *c == b'\n' || *c == b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::Malformed(format!("{what} is not UTF-8")))
}

/// Reads one request from a connection.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly
/// between requests (the normal end of a keep-alive session).
///
/// # Errors
///
/// [`HttpError`] on socket failure, non-HTTP bytes, oversized header
/// block or body, or EOF mid-message.
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line(r, &mut budget, "request line")? {
        None => return Ok(None),
        Some(l) if l.is_empty() => {
            // Tolerate a stray blank line between pipelined requests.
            match read_line(r, &mut budget, "request line")? {
                None => return Ok(None),
                Some(l) => l,
            }
        }
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(HttpError::Malformed(format!("bad request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Header block: `name: value` lines up to the blank separator.
fn read_headers(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, budget, "header")?.ok_or(HttpError::UnexpectedEof)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Body per `Content-Length` (chunked transfer is rejected, not skipped).
fn read_body(r: &mut impl BufRead, headers: &[(String, String)]) -> Result<Vec<u8>, HttpError> {
    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let len: usize = match headers.iter().find(|(n, _)| n == "content-length") {
        None => return Ok(Vec::new()),
        Some((_, v)) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length: {v:?}")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!("body of {len} bytes")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::UnexpectedEof
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(body)
}

/// The canonical reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra header fields (Content-Length/Connection are added on write).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Adds a header field.
    #[must_use]
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body and its content type.
    #[must_use]
    pub fn body(mut self, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self
    }

    /// JSON body shorthand.
    #[must_use]
    pub fn json(self, body: impl Into<Vec<u8>>) -> Response {
        self.body("application/json", body)
    }

    /// Plain-text body shorthand.
    #[must_use]
    pub fn text(self, body: impl Into<Vec<u8>>) -> Response {
        self.body("text/plain; charset=utf-8", body)
    }

    /// Serializes the response, adding `Content-Length` and, when
    /// `close` is set, `Connection: close`.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        if close {
            write!(w, "Connection: close\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Starts a chunked response: status line, `Content-Type`, and
/// `Transfer-Encoding: chunked` — no `Content-Length`, because the
/// caller does not know the body length yet. Follow with any number of
/// [`write_chunk`] calls and exactly one [`finish_chunked`].
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunked_head(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    close: bool,
) -> io::Result<()> {
    write!(w, "HTTP/1.1 {} {}\r\n", status, reason(status))?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    write!(w, "Transfer-Encoding: chunked\r\n")?;
    if close {
        write!(w, "Connection: close\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Writes one chunk of a chunked body and flushes it to the peer.
/// Empty payloads are skipped — a zero-length chunk is the terminator,
/// which only [`finish_chunked`] may write.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunk(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", payload.len())?;
    w.write_all(payload)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Terminates a chunked body (zero-length chunk, no trailers).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn finish_chunked(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Writes one client request (client side: `antc loadgen`, tests).
/// `body` is `(content_type, bytes)`; omit for body-less methods.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> io::Result<()> {
    write!(w, "{method} {path} HTTP/1.1\r\nHost: antd\r\n")?;
    match body {
        Some((content_type, bytes)) => {
            write!(
                w,
                "Content-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
                bytes.len()
            )?;
            w.write_all(bytes)?;
        }
        None => w.write_all(b"\r\n")?,
    }
    w.flush()
}

/// A response as seen by a client ([`read_response`]).
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header fields, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Status line and headers of a response, before any body bytes.
///
/// Returned by [`read_response_head`] so streaming consumers (`antc
/// generate`) can inspect the status and then pull the body chunk by
/// chunk with [`read_chunk`] instead of buffering it whole.
#[derive(Debug)]
pub struct ResponseHead {
    /// Status code.
    pub status: u16,
    /// Header fields, names lowercased.
    pub headers: Vec<(String, String)>,
}

impl ResponseHead {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the body uses chunked transfer coding.
    pub fn is_chunked(&self) -> bool {
        self.header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    }
}

/// Reads a response's status line and headers, leaving the body on the
/// wire for the caller to frame ([`read_chunk`] when
/// [`ResponseHead::is_chunked`], `Content-Length` otherwise).
///
/// # Errors
///
/// [`HttpError`] on socket failure, non-HTTP bytes, an oversized header
/// block, or EOF before the blank separator line.
pub fn read_response_head(r: &mut impl BufRead) -> Result<ResponseHead, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = read_line(r, &mut budget, "status line")?.ok_or(HttpError::UnexpectedEof)?;
    let mut parts = line.split_whitespace();
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(HttpError::Malformed(format!("bad status line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| HttpError::Malformed(format!("bad status code in {line:?}")))?;
    let headers = read_headers(r, &mut budget)?;
    Ok(ResponseHead { status, headers })
}

/// Reads one chunk of a chunked body. Returns `Ok(None)` at the
/// terminating zero-length chunk (after consuming any trailer lines),
/// `Ok(Some(payload))` otherwise.
///
/// # Errors
///
/// [`HttpError`] on socket failure, a malformed size line or chunk
/// delimiter, a chunk above [`MAX_BODY_BYTES`], or EOF mid-chunk.
pub fn read_chunk(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = read_line(r, &mut budget, "chunk size")?.ok_or(HttpError::UnexpectedEof)?;
    // Chunk extensions (";name=value") are tolerated and ignored.
    let size_str = line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_str, 16)
        .map_err(|_| HttpError::Malformed(format!("bad chunk size: {line:?}")))?;
    if size > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!("chunk of {size} bytes")));
    }
    if size == 0 {
        // Trailer section: header lines up to the blank terminator.
        loop {
            let l = read_line(r, &mut budget, "chunk trailer")?.ok_or(HttpError::UnexpectedEof)?;
            if l.is_empty() {
                return Ok(None);
            }
        }
    }
    let mut payload = vec![0u8; size];
    r.read_exact(&mut payload).map_err(eof_as_truncation)?;
    let mut crlf = [0u8; 2];
    r.read_exact(&mut crlf).map_err(eof_as_truncation)?;
    if &crlf != b"\r\n" {
        return Err(HttpError::Malformed(
            "chunk payload not CRLF-terminated".into(),
        ));
    }
    Ok(Some(payload))
}

fn eof_as_truncation(e: io::Error) -> HttpError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        HttpError::UnexpectedEof
    } else {
        HttpError::Io(e)
    }
}

/// Reads one response from a connection (client side: `antc loadgen`,
/// tests). Chunked bodies are reassembled into one buffer; streaming
/// consumers should use [`read_response_head`] + [`read_chunk`] instead.
///
/// # Errors
///
/// [`HttpError`] on socket failure, non-HTTP bytes, oversized messages,
/// or EOF before a complete response arrived.
pub fn read_response(r: &mut impl BufRead) -> Result<ClientResponse, HttpError> {
    let head = read_response_head(r)?;
    let body = if head.is_chunked() {
        let mut body = Vec::new();
        while let Some(chunk) = read_chunk(r)? {
            if body.len() + chunk.len() > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge(format!(
                    "chunked body beyond {} bytes",
                    MAX_BODY_BYTES
                )));
            }
            body.extend_from_slice(&chunk);
        }
        body
    } else {
        read_body(r, &head.headers)?
    };
    Ok(ClientResponse {
        status: head.status,
        headers: head.headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_with_body_and_keepalive_semantics() {
        let raw = b"POST /v1/models/m/infer HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/v1/models/m/infer");
        assert_eq!(first.body, b"hello");
        assert!(!first.wants_close());
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert!(second.wants_close());
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn rejects_garbage_oversize_and_truncation() {
        let mut r = BufReader::new(&b"not http at all\r\n\r\n"[..]);
        assert!(matches!(read_request(&mut r), Err(HttpError::Malformed(_))));

        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        let mut r = BufReader::new(huge.as_bytes());
        assert!(matches!(read_request(&mut r), Err(HttpError::TooLarge(_))));

        let cut = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        let mut r = BufReader::new(&cut[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(HttpError::UnexpectedEof)
        ));

        let chunked = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let mut r = BufReader::new(&chunked[..]);
        assert!(matches!(read_request(&mut r), Err(HttpError::Malformed(_))));
    }

    /// `left` newline-free bytes, counting how many the parser pulls.
    struct Flood<'a> {
        left: usize,
        pulled: &'a mut usize,
    }

    impl io::Read for Flood<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.left);
            buf[..n].fill(b'a');
            self.left -= n;
            *self.pulled += n;
            Ok(n)
        }
    }

    #[test]
    fn an_overlong_line_is_refused_without_being_buffered() {
        type Reader = fn(&mut BufReader<Flood>) -> Result<(), HttpError>;
        let readers: [(&str, Reader); 2] = [
            ("request line", |r| read_request(r).map(drop)),
            ("chunk-size line", |r| read_chunk(r).map(drop)),
        ];
        for (what, read) in readers {
            let mut pulled = 0;
            let flood = Flood {
                left: 64 * MAX_HEADER_BYTES,
                pulled: &mut pulled,
            };
            let refused = read(&mut BufReader::new(flood));
            assert!(matches!(refused, Err(HttpError::TooLarge(_))), "{what}");
            // Budget + 1 bytes decide it; the slack is one BufReader fill.
            assert!(
                pulled <= 2 * MAX_HEADER_BYTES,
                "{what}: {pulled} bytes pulled against a {MAX_HEADER_BYTES}-byte limit"
            );
        }
    }

    #[test]
    fn chunked_response_streams_and_reassembles() {
        let mut wire = Vec::new();
        write_chunked_head(&mut wire, 200, "application/json", false).unwrap();
        write_chunk(&mut wire, b"{\"token\":1}\n").unwrap();
        write_chunk(&mut wire, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut wire, b"{\"token\":2}\n").unwrap();
        finish_chunked(&mut wire).unwrap();

        // Streaming path: head, then chunk by chunk.
        let mut r = BufReader::new(&wire[..]);
        let head = read_response_head(&mut r).unwrap();
        assert_eq!(head.status, 200);
        assert!(head.is_chunked());
        assert_eq!(read_chunk(&mut r).unwrap().unwrap(), b"{\"token\":1}\n");
        assert_eq!(read_chunk(&mut r).unwrap().unwrap(), b"{\"token\":2}\n");
        assert!(read_chunk(&mut r).unwrap().is_none(), "terminator");

        // Buffered path: read_response reassembles the same bytes.
        let mut r = BufReader::new(&wire[..]);
        let resp = read_response(&mut r).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str(), "{\"token\":1}\n{\"token\":2}\n");
    }

    #[test]
    fn malformed_chunks_are_rejected() {
        let mut r = BufReader::new(&b"zz\r\n"[..]);
        assert!(matches!(read_chunk(&mut r), Err(HttpError::Malformed(_))));

        // Payload not CRLF-terminated.
        let mut r = BufReader::new(&b"3\r\nabcXX"[..]);
        assert!(matches!(read_chunk(&mut r), Err(HttpError::Malformed(_))));

        // Truncated mid-payload.
        let mut r = BufReader::new(&b"10\r\nshort"[..]);
        assert!(matches!(read_chunk(&mut r), Err(HttpError::UnexpectedEof)));

        // Chunked *requests* are still refused outright.
        let chunked = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let mut r = BufReader::new(&chunked[..]);
        assert!(matches!(read_request(&mut r), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn response_roundtrips_through_client_parser() {
        let mut wire = Vec::new();
        Response::new(429)
            .header("Retry-After", "1")
            .json("{\"error\":\"overloaded\"}")
            .write_to(&mut wire, true)
            .unwrap();
        let mut r = BufReader::new(&wire[..]);
        let resp = read_response(&mut r).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.body_str(), "{\"error\":\"overloaded\"}");
    }
}
