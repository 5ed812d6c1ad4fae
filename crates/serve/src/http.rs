//! A deliberately small HTTP/1.1 implementation over `std` I/O.
//!
//! Just enough protocol for the serving endpoints: request-line, headers,
//! and `Content-Length` bodies on the way in, fixed-length responses with
//! keep-alive on the way out. The client side ([`read_response`]) reads
//! those responses back through the same head and body reader, so the
//! sharded front, the load generators and the tests share one parser.
//! No chunked encoding, no TLS, no percent-decoding (user ids and counts
//! are plain integers). Limits are hard-coded and conservative because
//! the server fronts a model, not the open internet.
//!
//! Failpoints (`ahntp-faultz`): `serve.read` fires at the top of
//! [`read_request`] and `serve.write` at the top of
//! [`write_response_with`], both surfacing as injected I/O errors — the
//! chaos suite uses them to simulate flaky sockets.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Maximum bytes for the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed or the socket failed mid-request.
    Io(io::Error),
    /// The bytes are not HTTP we understand; the message is safe to echo
    /// into a 400 response.
    BadRequest(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge,
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

impl From<ahntp_faultz::Injected> for HttpError {
    fn from(inj: ahntp_faultz::Injected) -> HttpError {
        HttpError::Io(inj.into())
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge => write!(f, "request body too large"),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Path with the query string stripped (e.g. `/topk`).
    pub path: String,
    /// Query parameters, last occurrence wins.
    pub query: BTreeMap<String, String>,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the client asked to drop the connection after this
    /// exchange. HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// A query parameter parsed to `usize`.
    ///
    /// # Errors
    ///
    /// `Err` carries a 400-ready message for missing or non-numeric
    /// values.
    pub fn query_usize(&self, name: &str) -> Result<usize, String> {
        let raw = self
            .query
            .get(name)
            .ok_or_else(|| format!("missing query parameter {name:?}"))?;
        raw.parse()
            .map_err(|_| format!("query parameter {name:?} is not a non-negative integer"))
    }
}

/// Reads one request off the stream. `Ok(None)` means the peer closed
/// cleanly between requests (normal keep-alive teardown).
///
/// # Errors
///
/// [`HttpError::Io`] on socket failure (including read timeouts, which
/// surface as `WouldBlock`/`TimedOut`), [`HttpError::BadRequest`] on
/// malformed syntax, [`HttpError::TooLarge`] on oversized bodies.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    ahntp_faultz::failpoint!("serve.read");
    let Some((line, headers)) = read_head(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t, v),
        _ => return Err(HttpError::BadRequest(format!("bad request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version {version}")));
    }
    let body = read_body(reader, &headers)?;

    let (path, query_str) = target.split_once('?').unwrap_or((target, ""));
    let mut query = BTreeMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }

    Ok(Some(Request {
        method,
        path: path.to_string(),
        query,
        headers,
        body,
    }))
}

/// Renders one request with a `Content-Length`-framed body, as the
/// clients of this server (the sharded front, the load generators, the
/// tests) send them; `close` asks the server to close the connection
/// after answering.
pub fn format_request(method: &str, target: &str, body: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
}

/// One parsed response: what a client of this server (the sharded
/// front, the load generators, the tests) reads back.
#[derive(Debug)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// The body; every endpoint answers UTF-8 text (JSON, Prometheus).
    pub body: String,
}

/// Reads one response off the stream, framed by `Content-Length` under
/// the same limits as [`read_request`].
///
/// # Errors
///
/// Socket failures; `UnexpectedEof` when the peer closes before the
/// status line; `InvalidData` for a malformed status line or header, an
/// oversized or non-UTF-8 body.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let (line, headers) = read_head(reader)?.ok_or(io::ErrorKind::UnexpectedEof)?;
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| invalid_data(format!("bad status line {line:?}")))?;
    let body = String::from_utf8(read_body(reader, &headers)?)
        .map_err(|_| invalid_data("response body is not UTF-8".to_string()))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl From<HttpError> for io::Error {
    fn from(e: HttpError) -> io::Error {
        match e {
            HttpError::Io(e) => e,
            HttpError::BadRequest(m) => invalid_data(m),
            HttpError::TooLarge => invalid_data("body too large".to_string()),
        }
    }
}

/// The start line and the headers (names lower-cased) of one message.
type Head = (String, BTreeMap<String, String>);

/// Reads the head of a request or a response. `Ok(None)` means EOF
/// before the first byte.
fn read_head(reader: &mut impl BufRead) -> Result<Option<Head>, HttpError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut headers = BTreeMap::new();
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(HttpError::BadRequest("eof inside headers".to_string()));
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("headers too large".to_string()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::BadRequest(format!("bad header {header:?}")));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(Some((line, headers)))
}

/// Reads the `Content-Length` body that follows a head (empty without
/// the header).
fn read_body(
    reader: &mut impl BufRead,
    headers: &BTreeMap<String, String>,
) -> Result<Vec<u8>, HttpError> {
    let content_length = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("bad content-length".to_string()))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Writes one fixed-length response, with arbitrary extra headers (e.g.
/// `Retry-After` on load-shed and deadline responses).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response_with(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    ahntp_faultz::failpoint!("serve.write");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /topk?user=3&k=10 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/topk");
        assert_eq!(req.query_usize("user"), Ok(3));
        assert_eq!(req.query_usize("k"), Ok(10));
        assert!(req.query_usize("missing").is_err());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse(
            "POST /score HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: 15\r\nConnection: close\r\n\r\n{\"pairs\":[[0,1]]}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        // Exactly Content-Length bytes are consumed, no more.
        assert_eq!(req.body, b"{\"pairs\":[[0,1]".to_vec());
        assert!(req.wants_close());
        assert_eq!(req.headers.get("content-type").unwrap(), "application/json");
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_bad_request() {
        assert!(matches!(parse(""), Ok(None)));
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let raw = format!(
            "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge)));
    }

    #[test]
    fn formatted_requests_parse_back() {
        let raw = format_request("POST", "/score?x=1", "{}", true);
        let req = parse(&raw).unwrap().unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/score"));
        assert_eq!(req.body, b"{}");
        assert!(req.wants_close());
        let keep_alive = format_request("GET", "/healthz", "", false);
        assert!(!parse(&keep_alive).unwrap().unwrap().wants_close());
    }

    #[test]
    fn written_responses_read_back() {
        let mut wire = Vec::new();
        for body in [&b"{}"[..], b"second"] {
            write_response_with(
                &mut wire,
                503,
                "Service Unavailable",
                "application/json",
                &[("Retry-After", "2".to_string())],
                body,
                true,
            )
            .unwrap();
        }
        let mut reader = BufReader::new(&wire[..]);
        let first = read_response(&mut reader).unwrap();
        assert_eq!(first.status, 503);
        assert_eq!(first.headers["retry-after"], "2");
        assert_eq!(first.body, "{}");
        // Exactly one response is consumed; the next one follows intact.
        assert_eq!(read_response(&mut reader).unwrap().body, "second");
        let eof = read_response(&mut reader).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);

        let bad = read_response(&mut BufReader::new(&b"SPDY/3 200 OK\r\n\r\n"[..]));
        assert_eq!(bad.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn responses_have_framed_bodies() {
        let mut out = Vec::new();
        write_response_with(&mut out, 200, "OK", "application/json", &[], b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_ride_between_the_fixed_ones_and_the_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "2".to_string())],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("\r\nRetry-After: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
