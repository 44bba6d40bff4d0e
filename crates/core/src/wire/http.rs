//! Minimal, hardened HTTP/1.1 framing for the loopback SOAP transport.
//!
//! This is deliberately not a general HTTP implementation: it supports
//! exactly what a WS-I Basic Profile SOAP 1.1 binding needs — `POST`
//! with a `Content-Length` body, `GET` for `?wsdl` retrieval,
//! keep-alive — and enforces the limits the hardened server relies on:
//! request-line and header caps (read *before* buffering anything
//! else) and a body-size cap checked against the declared
//! `Content-Length` before a single body byte is read, so an oversized
//! request is rejected with `413` without allocating for it.
//!
//! All reads honour the socket deadlines the caller configured; a
//! timed-out read surfaces as [`HttpError::Timeout`], which the server
//! maps to `408` (the slow-loris defense) and the client maps to a
//! retryable transport error.

use std::fmt;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

/// Size limits enforced while reading a message off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum request/status line length in bytes.
    pub max_start_line: usize,
    /// Maximum size of one header line in bytes.
    pub max_header_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum declared body size in bytes; larger declarations are
    /// rejected before any body byte is read.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_start_line: 4096,
            max_header_line: 8192,
            max_headers: 64,
            max_body: 1 << 20,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected upstream).
    pub method: String,
    /// Request target as sent (path plus optional `?query`).
    pub target: String,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Message body (empty for bodyless requests).
    pub body: Vec<u8>,
    /// Whether the peer asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// The target's path component (query stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's query component, if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase as sent.
    pub reason: String,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Response {
    /// The body decoded as UTF-8, if it is valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Framing-level failures while reading a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before sending anything — the
    /// clean end of a keep-alive session, not a protocol error.
    ConnectionClosed,
    /// A socket deadline expired mid-message.
    Timeout,
    /// The peer reset the connection.
    Reset,
    /// Any other socket-level failure (stable, OS-independent text).
    Io(String),
    /// The start line exceeded [`HttpLimits::max_start_line`].
    StartLineTooLong,
    /// A header line exceeded [`HttpLimits::max_header_line`] or the
    /// header count exceeded [`HttpLimits::max_headers`].
    HeadersTooLarge,
    /// The request/status line was not parseable.
    BadStartLine(String),
    /// A header line was not parseable.
    BadHeader(String),
    /// The declared `Content-Length` exceeds [`HttpLimits::max_body`].
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
    /// The `Content-Length` header was missing or unreadable on a
    /// message that requires one.
    BadContentLength,
    /// The connection ended before the declared body arrived.
    TruncatedBody {
        /// Bytes received.
        got: usize,
        /// Bytes declared.
        want: usize,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Timeout => write!(f, "read timeout"),
            HttpError::Reset => write!(f, "connection reset"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::StartLineTooLong => write!(f, "start line too long"),
            HttpError::HeadersTooLarge => write!(f, "headers too large"),
            HttpError::BadStartLine(line) => write!(f, "malformed start line: {line:?}"),
            HttpError::BadHeader(line) => write!(f, "malformed header: {line:?}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds the {limit}-byte cap")
            }
            HttpError::BadContentLength => write!(f, "missing or unreadable Content-Length"),
            HttpError::TruncatedBody { got, want } => {
                write!(f, "truncated body: got {got} of {want} bytes")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Maps an I/O failure to a stable, OS-independent [`HttpError`].
///
/// Socket error text varies by platform and locale; classification
/// (and therefore campaign determinism) must not, so everything is
/// collapsed to a closed set here.
pub fn io_error(e: &std::io::Error) -> HttpError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            HttpError::Reset
        }
        ErrorKind::UnexpectedEof => HttpError::ConnectionClosed,
        kind => HttpError::Io(format!("{kind:?}")),
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, capped at `max`
/// bytes. Returns `Ok(None)` on clean EOF before the first byte.
fn read_line(
    reader: &mut BufReader<&TcpStream>,
    max: usize,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::TruncatedBody { got: line.len(), want: line.len() + 1 });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return match String::from_utf8(line) {
                        Ok(s) => Ok(Some(s)),
                        Err(_) => Err(HttpError::BadHeader("non-UTF-8 line".to_string())),
                    };
                }
                line.push(byte[0]);
                if line.len() > max {
                    return Err(HttpError::StartLineTooLong);
                }
            }
            Err(e) => return Err(io_error(&e)),
        }
    }
}

/// Reads the header block (after the start line) under the limits.
fn read_headers(
    reader: &mut BufReader<&TcpStream>,
    limits: &HttpLimits,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, limits.max_header_line) {
            Ok(Some(line)) => line,
            Ok(None) => return Err(HttpError::ConnectionClosed),
            Err(HttpError::StartLineTooLong) => return Err(HttpError::HeadersTooLarge),
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader(truncate_for_display(&line)));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads the declared body, enforcing [`HttpLimits::max_body`]
/// *before* the first body byte is buffered.
fn read_body(
    reader: &mut BufReader<&TcpStream>,
    headers: &[(String, String)],
    limits: &HttpLimits,
    required: bool,
) -> Result<Vec<u8>, HttpError> {
    let declared = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| HttpError::BadContentLength));
    let declared = match declared {
        Some(Ok(n)) => n,
        Some(Err(e)) => return Err(e),
        None if required => return Err(HttpError::BadContentLength),
        None => return Ok(Vec::new()),
    };
    if declared > limits.max_body {
        return Err(HttpError::BodyTooLarge { declared, limit: limits.max_body });
    }
    let mut body = vec![0u8; declared];
    let mut got = 0;
    while got < declared {
        match reader.read(&mut body[got..]) {
            Ok(0) => return Err(HttpError::TruncatedBody { got, want: declared }),
            Ok(n) => got += n,
            Err(e) => return Err(io_error(&e)),
        }
    }
    Ok(body)
}

fn truncate_for_display(line: &str) -> String {
    let mut cut = line.len().min(80);
    while cut > 0 && !line.is_char_boundary(cut) {
        cut -= 1;
    }
    line[..cut].to_string()
}

/// Reads one response off the stream.
pub fn read_response(stream: &TcpStream, limits: &HttpLimits) -> Result<Response, HttpError> {
    let mut reader = BufReader::new(stream);
    let Some(start) = read_line(&mut reader, limits.max_start_line)? else {
        return Err(HttpError::ConnectionClosed);
    };
    let mut parts = start.splitn(3, ' ');
    let (version, status, reason) = (parts.next(), parts.next(), parts.next());
    let status = match (version, status) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| HttpError::BadStartLine(truncate_for_display(&start)))?,
        _ => return Err(HttpError::BadStartLine(truncate_for_display(&start))),
    };
    let headers = read_headers(&mut reader, limits)?;
    let body = read_body(&mut reader, &headers, limits, false)?;
    Ok(Response {
        status,
        reason: reason.unwrap_or("").to_string(),
        headers,
        body,
    })
}

/// A request head parsed from a complete in-memory head block — the
/// one request parser. The server's event loop accumulates bytes into
/// a buffer and hands the finished block here; the fault proxy reads
/// its head off the socket byte by byte and does the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// `GET` or `POST` (anything else is rejected upstream).
    pub method: String,
    /// Request target as sent (path plus optional `?query`).
    pub target: String,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Whether the peer asked to keep the connection open.
    pub keep_alive: bool,
}

/// Finds the end of the head block in an accumulation buffer: the
/// index one past the blank line, accepting both CRLF and bare-LF
/// line endings (the response reader's tolerance too).
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1..].first() == Some(&b'\n') {
                return Some(i + 2);
            }
            if buf[i + 1..].starts_with(b"\r\n") {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Parses a complete head block (start line + headers + blank line)
/// under the same limits and error taxonomy as the response reader:
/// an over-long start line is [`HttpError::StartLineTooLong`], header
/// floods are [`HttpError::HeadersTooLarge`], unparseable lines are
/// `BadStartLine`/`BadHeader`.
pub fn parse_request_head(head: &[u8], limits: &HttpLimits) -> Result<RequestHead, HttpError> {
    let mut lines = head.split(|&b| b == b'\n').map(|line| {
        let line = if line.last() == Some(&b'\r') { &line[..line.len() - 1] } else { line };
        std::str::from_utf8(line).map_err(|_| HttpError::BadHeader("non-UTF-8 line".to_string()))
    });
    let start = match lines.next() {
        Some(Ok(s)) => s,
        Some(Err(e)) => return Err(e),
        None => return Err(HttpError::BadStartLine(String::new())),
    };
    if start.len() > limits.max_start_line {
        return Err(HttpError::StartLineTooLong);
    }
    let mut parts = start.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => return Err(HttpError::BadStartLine(truncate_for_display(start))),
    };
    let mut headers = Vec::new();
    for line in lines {
        let line = line?;
        if line.is_empty() {
            break;
        }
        if line.len() > limits.max_header_line || headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader(truncate_for_display(line)));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        // HTTP/1.1 defaults to keep-alive; 1.0 to close.
        _ => version == "HTTP/1.1",
    };
    Ok(RequestHead { method, target, headers, keep_alive })
}

/// The declared `Content-Length` of a parsed head, under the same
/// rules as the response reader: over-cap declarations are
/// rejected *before* any body byte is buffered, a `POST` without a
/// parseable length is [`HttpError::BadContentLength`].
pub fn declared_body_len(
    headers: &[(String, String)],
    limits: &HttpLimits,
    required: bool,
) -> Result<usize, HttpError> {
    let declared = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| HttpError::BadContentLength));
    let declared = match declared {
        Some(Ok(n)) => n,
        Some(Err(e)) => return Err(e),
        None if required => return Err(HttpError::BadContentLength),
        None => return Ok(0),
    };
    if declared > limits.max_body {
        return Err(HttpError::BodyTooLarge { declared, limit: limits.max_body });
    }
    Ok(declared)
}

/// Renders one complete response (head + body) into a buffer — the
/// nonblocking server's write path. `extra` headers (e.g.
/// `Retry-After` on a `503` shed) are appended after the standard
/// trio.
pub fn render_response(
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serializes one request, head and body, into one buffer — the
/// request-side mirror of [`render_response`]. `close` selects
/// `Connection: close` over `keep-alive`; a `soap_action` adds the SOAP
/// 1.1 `Content-Type` and quoted `SOAPAction` headers.
pub fn render_request(
    method: &str,
    target: &str,
    host: &str,
    soap_action: Option<&str>,
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut head =
        format!("{method} {target} HTTP/1.1\r\nHost: {host}\r\nConnection: {connection}\r\n");
    if let Some(action) = soap_action {
        head.push_str(&format!(
            "Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"{action}\"\r\n"
        ));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serializes and writes one request in a single `write_all`. Head and
/// body leave together: written apart, Nagle's algorithm holds the body
/// until the peer ACKs the head, which a delayed-ACK peer defers ~40 ms.
pub fn write_request<W: Write>(
    stream: &mut W,
    method: &str,
    target: &str,
    host: &str,
    soap_action: Option<&str>,
    body: &[u8],
    close: bool,
) -> Result<(), HttpError> {
    let bytes = render_request(method, target, host, soap_action, body, close);
    stream.write_all(&bytes).map_err(|e| io_error(&e))?;
    stream.flush().map_err(|e| io_error(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    /// Parses one request out of `bytes` the way the server's event
    /// loop does: find the head, parse it, take its declared body.
    fn parse_request(bytes: &[u8], limits: &HttpLimits) -> Result<Request, HttpError> {
        let end = find_head_end(bytes).expect("a complete head");
        let head = parse_request_head(&bytes[..end], limits)?;
        let want = declared_body_len(&head.headers, limits, head.method == "POST")?;
        Ok(Request {
            method: head.method,
            target: head.target,
            headers: head.headers,
            body: bytes[end..end + want].to_vec(),
            keep_alive: head.keep_alive,
        })
    }

    #[test]
    fn request_roundtrip_with_body() {
        let bytes = render_request("POST", "/svc", "127.0.0.1", Some("echo"), b"<x/>", false);
        let req = parse_request(&bytes, &HttpLimits::default()).expect("one request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/svc");
        assert_eq!(req.body, b"<x/>");
        assert!(req.keep_alive);
        assert_eq!(req.header("soapaction"), Some("\"echo\""));
    }

    #[test]
    fn head_end_accepts_crlf_and_bare_lf() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nrest"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: h\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn render_request_matches_the_golden_framing() {
        let cases: [(Option<&str>, bool, &str); 4] = [
            (
                Some("echo"),
                false,
                "POST /svc HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\
                 Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"echo\"\r\n\
                 Content-Length: 4\r\n\r\n<x/>",
            ),
            (
                Some("echo"),
                true,
                "POST /svc HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\
                 Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"echo\"\r\n\
                 Content-Length: 4\r\n\r\n<x/>",
            ),
            (
                None,
                false,
                "POST /svc HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\
                 Content-Length: 4\r\n\r\n<x/>",
            ),
            (
                None,
                true,
                "POST /svc HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\
                 Content-Length: 4\r\n\r\n<x/>",
            ),
        ];
        for (action, close, golden) in cases {
            let bytes = render_request("POST", "/svc", "127.0.0.1", action, b"<x/>", close);
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                golden,
                "{action:?} close={close}"
            );
        }
    }

    /// Records every `write` call so a test can count them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_request_makes_exactly_one_write() {
        for (action, close) in [(Some("echo"), false), (None, true)] {
            let mut out = CountingWriter::default();
            write_request(
                &mut out,
                "POST",
                "/svc",
                "127.0.0.1",
                action,
                b"<x/>",
                close,
            )
            .unwrap();
            assert_eq!(out.writes, 1, "{action:?} close={close}");
            assert_eq!(
                out.bytes,
                render_request("POST", "/svc", "127.0.0.1", action, b"<x/>", close)
            );
        }
    }

    #[test]
    fn query_is_split_from_the_path() {
        let bytes = render_request("GET", "/svc?wsdl", "h", None, b"", true);
        let req = parse_request(&bytes, &HttpLimits::default()).unwrap();
        assert_eq!(req.path(), "/svc");
        assert_eq!(req.query(), Some("wsdl"));
        assert!(!req.keep_alive);
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading_it() {
        // Declare a huge body but send none of it: the limit check must
        // fire from the headers alone.
        let bytes = b"POST /svc HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let limits = HttpLimits { max_body: 1024, ..HttpLimits::default() };
        let err = parse_request(bytes, &limits).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { declared: 99999999, limit: 1024 }));
    }

    #[test]
    fn overlong_request_line_is_rejected() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
        let err = parse_request(long.as_bytes(), &HttpLimits::default()).unwrap_err();
        assert_eq!(err, HttpError::StartLineTooLong);
    }

    #[test]
    fn header_flood_is_rejected() {
        let mut msg = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            msg.push_str(&format!("X-H{i}: v\r\n"));
        }
        msg.push_str("\r\n");
        let err = parse_request(msg.as_bytes(), &HttpLimits::default()).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
    }

    #[test]
    fn missing_or_unreadable_content_length_on_post_is_rejected() {
        for bytes in [
            &b"POST /svc HTTP/1.1\r\n\r\n"[..],
            &b"POST /svc HTTP/1.1\r\nContent-Length: ten\r\n\r\n"[..],
        ] {
            let err = parse_request(bytes, &HttpLimits::default()).unwrap_err();
            assert_eq!(err, HttpError::BadContentLength);
        }
        // A GET needs no declared length.
        let get = parse_request(b"GET /svc HTTP/1.1\r\n\r\n", &HttpLimits::default());
        assert_eq!(get.map(|req| req.body), Ok(Vec::new()));
    }

    #[test]
    fn malformed_start_and_header_lines_are_rejected() {
        let limits = HttpLimits::default();
        let err = parse_request(b"GET /svc SPDY/3\r\n\r\n", &limits).unwrap_err();
        assert!(matches!(err, HttpError::BadStartLine(_)), "{err:?}");
        let err = parse_request(b"GET /svc HTTP/1.1\r\nno-colon\r\n\r\n", &limits).unwrap_err();
        assert_eq!(err, HttpError::BadHeader("no-colon".to_string()));
    }

    #[test]
    fn response_roundtrip() {
        let (client, mut server) = pair();
        use std::io::Write;
        let bytes = render_response(200, "OK", "text/xml", &[], b"<ok/>", true);
        server.write_all(&bytes).unwrap();
        let resp = read_response(&client, &HttpLimits::default()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"<ok/>");
        assert_eq!(resp.body_str(), Some("<ok/>"));
    }

    #[test]
    fn garbage_status_line_is_a_framing_error() {
        let (client, mut server) = pair();
        use std::io::Write;
        server.write_all(b"ZZTP?! nonsense\r\n\r\n").unwrap();
        let err = read_response(&client, &HttpLimits::default()).unwrap_err();
        assert!(matches!(err, HttpError::BadStartLine(_)), "{err:?}");
    }

    #[test]
    fn truncated_body_is_detected() {
        let (client, mut server) = pair();
        use std::io::Write;
        server
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        drop(server);
        let err = read_response(&client, &HttpLimits::default()).unwrap_err();
        assert_eq!(err, HttpError::TruncatedBody { got: 3, want: 10 });
    }
}
