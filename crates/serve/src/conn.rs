//! Incremental HTTP/1.1 request parsing for the event-driven front-end.
//!
//! A readiness loop sees requests in whatever fragments the kernel
//! delivers — half a request line, three headers and a byte of body,
//! two pipelined requests in one read. [`RequestParser`] is the
//! push-driven state machine that consumes those fragments and emits
//! complete requests, with **exactly** the accept/reject behavior of the
//! blocking whole-request parser it replaced (`tests` pin the contract
//! table-driven, byte-by-byte and across adversarial split points):
//!
//! * request line: `METHOD PATH VERSION` (extra tokens ignored), where
//!   the version must start `HTTP/1.`; keep-alive defaults on for
//!   HTTP/1.1 and off otherwise, then follows any `Connection` header;
//! * lines are bounded by [`MAX_LINE_BYTES`] *including* the CRLF;
//! * `Content-Length` declares the body (duplicate headers: last one
//!   wins, but an over-limit declaration poisons the request into
//!   [`ParseStatus::TooLarge`] permanently); `Transfer-Encoding` is
//!   rejected — chunked bodies are out of scope for the v1 protocol;
//! * request line, headers, and body must be UTF-8.
//!
//! The parser never looks at the transport: feeding it bytes and
//! mapping an EOF to the right truncation error
//! ([`RequestParser::eof_error`]) are the connection state machine's
//! job ([`crate::http`]).
//!
//! [`ResponseParser`] is the same framing behind a status line
//! (`HTTP/1.x NNN reason`, a three-digit code in `100..600`), plus the
//! delta-seconds `Retry-After` header. It reads every response this
//! workspace receives, through three callers: the router's nonblocking
//! shard links ([`crate::router`]), the blocking [`crate::client::Client`]
//! and the `serve_rpc` connection-fleet drill, the last two through
//! [`read_response`]. Both parsers share one line, header and body
//! implementation, so a limit or header rule cannot drift between the
//! two directions.

use std::io::{self, BufRead};

/// Longest accepted request line or header line, bytes, terminator
/// included.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// One fully parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The request method, verbatim.
    pub method: String,
    /// The request path, verbatim (query string included).
    pub path: String,
    /// The decoded body.
    pub body: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Outcome of feeding bytes to [`RequestParser::advance`].
#[derive(Debug, PartialEq, Eq)]
pub enum ParseStatus {
    /// All fed bytes consumed; the request is still incomplete.
    NeedMore,
    /// A complete request (the parser has reset for the next one —
    /// unconsumed bytes belong to a pipelined successor).
    Request(Box<ParsedRequest>),
    /// The bytes were not acceptable HTTP; answer 400 and close.
    Malformed(&'static str),
    /// The declared body exceeds the limit; answer 413 and close.
    TooLarge,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    StartLine,
    Headers,
    Body,
}

/// What [`Framing::advance`] produced.
enum Framed {
    /// All fed bytes consumed; the message is still incomplete.
    NeedMore,
    /// Start line, headers and body are complete.
    Message {
        body: String,
        keep_alive: bool,
        retry_after: Option<u64>,
    },
    /// A terminal error: the bytes were not acceptable HTTP.
    Malformed(&'static str),
    /// A terminal error: the declared body exceeds the limit.
    TooLarge,
}

/// The message framing requests and responses share: lines bounded by
/// [`MAX_LINE_BYTES`], the `Content-Length` / `Connection` /
/// `Transfer-Encoding` headers, and the UTF-8 body. The start line is
/// the one thing that differs; each parser hands its own handler to
/// [`Framing::advance`].
#[derive(Debug)]
struct Framing {
    max_body: usize,
    state: State,
    /// Accumulates the current line, terminator included (the line
    /// length bound counts it, exactly like the blocking reader did).
    line: Vec<u8>,
    /// Accumulates the body until `content_length` bytes arrived.
    body: Vec<u8>,
    keep_alive: bool,
    content_length: usize,
    /// The last `Retry-After` header in delta-seconds form, if any.
    retry_after: Option<u64>,
    too_large: bool,
    /// Whether any byte of the current message has been consumed —
    /// distinguishes a clean between-messages EOF from a truncation.
    started: bool,
}

impl Framing {
    fn new(max_body: usize) -> Self {
        Self {
            max_body,
            state: State::StartLine,
            line: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
            content_length: 0,
            retry_after: None,
            too_large: false,
            started: false,
        }
    }

    /// Consumes a prefix of `input`. `start_line` parses the (stripped)
    /// first line and returns the version's keep-alive default, or a
    /// terminal error.
    fn advance<F>(&mut self, input: &[u8], mut start_line: F) -> (usize, Framed)
    where
        F: FnMut(&str) -> Result<bool, &'static str>,
    {
        let mut consumed = 0usize;
        while consumed < input.len() {
            match self.state {
                State::StartLine | State::Headers => {
                    let rest = &input[consumed..];
                    let upto = rest.iter().position(|&b| b == b'\n');
                    let take = upto.map_or(rest.len(), |p| p + 1);
                    self.line.extend_from_slice(&rest[..take]);
                    consumed += take;
                    self.started = true;
                    if self.line.len() > MAX_LINE_BYTES {
                        return (consumed, Framed::Malformed("line too long"));
                    }
                    if upto.is_none() {
                        continue; // need the rest of the line
                    }
                    while matches!(self.line.last(), Some(b'\n' | b'\r')) {
                        self.line.pop();
                    }
                    // The buffer moves out so the line handlers can take
                    // `&mut self`, and moves back to keep its capacity.
                    let line_buf = std::mem::take(&mut self.line);
                    let status = match std::str::from_utf8(&line_buf) {
                        Err(_) => Some(Framed::Malformed("non-utf8 line")),
                        Ok(line) if self.state == State::StartLine => match start_line(line) {
                            Ok(keep_alive) => {
                                self.keep_alive = keep_alive;
                                self.state = State::Headers;
                                None
                            }
                            Err(what) => Some(Framed::Malformed(what)),
                        },
                        Ok(line) => self.take_header_line(line),
                    };
                    self.line = line_buf;
                    self.line.clear();
                    match status {
                        Some(s) => return (consumed, s),
                        None => continue,
                    }
                }
                State::Body => {
                    let need = self.content_length - self.body.len();
                    let take = need.min(input.len() - consumed);
                    self.body
                        .extend_from_slice(&input[consumed..consumed + take]);
                    consumed += take;
                    if self.body.len() == self.content_length {
                        return (consumed, self.emit());
                    }
                }
            }
        }
        // An empty Content-Length (or none) completes at the header
        // boundary without waiting for more input.
        if self.state == State::Body && self.body.len() == self.content_length {
            return (consumed, self.emit());
        }
        (consumed, Framed::NeedMore)
    }

    /// Parses one header line (empty = end of headers); `Some` is a
    /// terminal error or a completed zero-body message.
    fn take_header_line(&mut self, line: &str) -> Option<Framed> {
        if line.is_empty() {
            if self.too_large {
                return Some(Framed::TooLarge);
            }
            self.state = State::Body;
            if self.content_length == 0 {
                return Some(self.emit());
            }
            return None;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Some(Framed::Malformed("malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match value.parse::<usize>() {
                Ok(n) if n <= self.max_body => self.content_length = n,
                Ok(_) => self.too_large = true,
                Err(_) => return Some(Framed::Malformed("bad content-length")),
            },
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    self.keep_alive = false;
                } else if v.contains("keep-alive") {
                    self.keep_alive = true;
                }
            }
            // Delta-seconds form only (the API never sends a date).
            "retry-after" => self.retry_after = value.parse().ok(),
            "transfer-encoding" => {
                return Some(Framed::Malformed("transfer-encoding not supported"));
            }
            _ => {}
        }
        None
    }

    /// Finishes the current message and resets for the next one.
    fn emit(&mut self) -> Framed {
        let Ok(body) = String::from_utf8(std::mem::take(&mut self.body)) else {
            return Framed::Malformed("non-utf8 body");
        };
        let keep_alive = self.keep_alive;
        self.state = State::StartLine;
        self.keep_alive = true;
        self.content_length = 0;
        self.too_large = false;
        self.started = false;
        Framed::Message {
            body,
            keep_alive,
            retry_after: self.retry_after.take(),
        }
    }
}

/// Push-driven incremental parser for one connection. Emits any number
/// of requests over its lifetime; after each [`ParseStatus::Request`] it
/// is reset and ready for the next. A `Malformed`/`TooLarge` outcome is
/// terminal — the connection closes, so the parser is never fed again.
#[derive(Debug)]
pub struct RequestParser {
    framing: Framing,
    method: String,
    path: String,
}

impl RequestParser {
    /// A fresh parser enforcing `max_body` on declared body lengths.
    pub fn new(max_body: usize) -> Self {
        Self {
            framing: Framing::new(max_body),
            method: String::new(),
            path: String::new(),
        }
    }

    /// Whether the parser sits between requests (nothing consumed since
    /// the last emit). An EOF here is a clean close.
    pub fn is_idle(&self) -> bool {
        !self.framing.started
    }

    /// The truncation error an EOF at this point maps to, or `None` for
    /// a clean between-requests close. Mirrors the blocking parser: EOF
    /// mid-line is a cut-off request, at a header boundary it is
    /// "truncated headers", inside the body "truncated body".
    pub fn eof_error(&self) -> Option<&'static str> {
        let f = &self.framing;
        match f.state {
            State::StartLine | State::Headers if !f.started => None,
            State::StartLine => Some("truncated request"),
            State::Headers => {
                if f.line.is_empty() {
                    Some("truncated headers")
                } else {
                    Some("truncated request")
                }
            }
            State::Body => Some("truncated body"),
        }
    }

    /// Consumes a prefix of `input`, returning how many bytes were taken
    /// and what they produced. On [`ParseStatus::Request`] the remainder
    /// belongs to the next (pipelined) request — call again. On
    /// `NeedMore` the whole input was consumed.
    pub fn advance(&mut self, input: &[u8]) -> (usize, ParseStatus) {
        let (method, path) = (&mut self.method, &mut self.path);
        let (consumed, framed) = self
            .framing
            .advance(input, |line| take_request_line(line, method, path));
        let status = match framed {
            Framed::NeedMore => ParseStatus::NeedMore,
            Framed::Message {
                body, keep_alive, ..
            } => ParseStatus::Request(Box::new(ParsedRequest {
                method: std::mem::take(&mut self.method),
                path: std::mem::take(&mut self.path),
                body,
                keep_alive,
            })),
            Framed::Malformed(what) => ParseStatus::Malformed(what),
            Framed::TooLarge => ParseStatus::TooLarge,
        };
        (consumed, status)
    }
}

/// Parses a request line into `method` and `path`; returns the
/// version's keep-alive default.
fn take_request_line(
    line: &str,
    method: &mut String,
    path: &mut String,
) -> Result<bool, &'static str> {
    if line.is_empty() {
        return Err("empty request line");
    }
    let mut parts = line.split_whitespace();
    let (Some(m), Some(p), Some(version)) = (parts.next(), parts.next(), parts.next()) else {
        return Err("malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return Err("unsupported protocol version");
    }
    *method = m.to_string();
    *path = p.to_string();
    Ok(version == "HTTP/1.1")
}

/// One fully parsed response.
#[derive(Debug)]
pub struct ParsedResponse {
    /// The status code.
    pub status: u16,
    /// The decoded body.
    pub body: String,
    /// Whether the peer keeps the connection open after this response.
    pub keep_alive: bool,
    /// Seconds a `Retry-After: <delta-seconds>` header asked the caller
    /// to wait; `None` when absent or not in that form.
    pub retry_after: Option<u64>,
}

/// The response-side twin of [`RequestParser`], for a connection this
/// process dialed: the same framing, behind a status line instead of a
/// request line. Errors are terminal.
#[derive(Debug)]
pub struct ResponseParser {
    framing: Framing,
    status: u16,
}

impl ResponseParser {
    /// A fresh parser enforcing `max_body` on declared body lengths.
    pub fn new(max_body: usize) -> Self {
        Self {
            framing: Framing::new(max_body),
            status: 0,
        }
    }

    /// Consumes a prefix of `input`, like [`RequestParser::advance`]:
    /// `Ok(None)` took every byte and wants more, `Ok(Some)` is a
    /// complete response (the parser has reset for the next one), and
    /// `Err` names what made the bytes unacceptable.
    pub fn advance(
        &mut self,
        input: &[u8],
    ) -> (usize, Result<Option<ParsedResponse>, &'static str>) {
        let status = &mut self.status;
        let (consumed, framed) = self
            .framing
            .advance(input, |line| take_status_line(line, status));
        let out = match framed {
            Framed::NeedMore => Ok(None),
            Framed::Message {
                body,
                keep_alive,
                retry_after,
            } => Ok(Some(ParsedResponse {
                status: self.status,
                body,
                keep_alive,
                retry_after,
            })),
            Framed::Malformed(what) => Err(what),
            Framed::TooLarge => Err("body too large"),
        };
        (consumed, out)
    }
}

/// Reads one response off a blocking `reader` through `parser`: fill,
/// feed, consume what the parser took, until the response is complete.
/// Bytes past it (a pipelined successor) stay in `reader`.
///
/// # Errors
///
/// A transport error as is; `UnexpectedEof` when the peer closes before
/// the response is complete; `InvalidData`, carrying the parser's
/// reason, when the bytes are not an acceptable response (a declared
/// body over the parser's limit included, which is refused before any
/// of it is buffered). Every error leaves `parser` unusable.
pub fn read_response(
    parser: &mut ResponseParser,
    reader: &mut impl BufRead,
) -> io::Result<ParsedResponse> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a complete response",
            ));
        }
        let (consumed, out) = parser.advance(buf);
        reader.consume(consumed);
        match out {
            Ok(Some(response)) => return Ok(response),
            Ok(None) => {}
            Err(what) => return Err(io::Error::new(io::ErrorKind::InvalidData, what)),
        }
    }
}

/// Parses a status line (`HTTP/1.x NNN reason`) into `status`; returns
/// the version's keep-alive default.
fn take_status_line(line: &str, status: &mut u16) -> Result<bool, &'static str> {
    let mut parts = line.split_whitespace();
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err("malformed status line");
    };
    if !version.starts_with("HTTP/1.") {
        return Err("unsupported protocol version");
    }
    match code.parse::<u16>() {
        Ok(n) if code.len() == 3 && (100..600).contains(&n) => *status = n,
        _ => return Err("bad status code"),
    }
    Ok(version == "HTTP/1.1")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a byte stream must parse to, regardless of how it is split.
    #[derive(Debug, PartialEq, Eq)]
    enum Want {
        /// Complete requests as `(method, path, body, keep_alive)`, plus
        /// whether the stream ends mid-request (`NeedMore` at EOF).
        Requests(Vec<(&'static str, &'static str, &'static str, bool)>, bool),
        /// A terminal parse error after zero or more good requests.
        Error(&'static str),
        /// A 413 after zero or more good requests.
        TooLarge,
    }

    const MAX_BODY: usize = 256;

    fn run(input: &[u8], splits: &[usize]) -> Want {
        let mut parser = RequestParser::new(MAX_BODY);
        let mut requests = Vec::new();
        let mut bounds: Vec<usize> = Vec::new();
        bounds.extend_from_slice(splits);
        bounds.push(input.len());
        let mut start = 0usize;
        for &end in &bounds {
            let mut chunk = &input[start..end];
            start = end;
            while !chunk.is_empty() {
                let (consumed, status) = parser.advance(chunk);
                chunk = &chunk[consumed..];
                match status {
                    ParseStatus::NeedMore => {
                        assert!(chunk.is_empty(), "NeedMore must consume the chunk");
                    }
                    ParseStatus::Request(r) => requests.push(r),
                    ParseStatus::Malformed(m) => return Want::Error(m),
                    ParseStatus::TooLarge => return Want::TooLarge,
                }
            }
            // A zero-length body can complete on an empty feed too.
            if chunk.is_empty() {
                let (consumed, status) = parser.advance(&[]);
                assert_eq!(consumed, 0);
                match status {
                    ParseStatus::NeedMore => {}
                    ParseStatus::Request(r) => requests.push(r),
                    ParseStatus::Malformed(m) => return Want::Error(m),
                    ParseStatus::TooLarge => return Want::TooLarge,
                }
            }
        }
        let mid_request = !parser.is_idle();
        Want::Requests(
            requests
                .iter()
                .map(|r| (leak(&r.method), leak(&r.path), leak(&r.body), r.keep_alive))
                .collect(),
            mid_request,
        )
    }

    fn leak(s: &str) -> &'static str {
        Box::leak(s.to_string().into_boxed_str())
    }

    /// Runs `input` through every split discipline: whole, byte-by-byte,
    /// and every single split point. All must agree with `want`.
    fn check(name: &str, input: &[u8], want: &Want) {
        assert_eq!(&run(input, &[]), want, "{name}: unsplit");
        let all_bytes: Vec<usize> = (1..input.len()).collect();
        assert_eq!(&run(input, &all_bytes), want, "{name}: byte-by-byte");
        for split in 1..input.len() {
            assert_eq!(&run(input, &[split]), want, "{name}: split at {split}");
        }
    }

    #[test]
    fn accept_reject_table_is_split_invariant() {
        let cases: Vec<(&str, Vec<u8>, Want)> = vec![
            (
                "get no body",
                b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(),
                Want::Requests(vec![("GET", "/healthz", "", true)], false),
            ),
            (
                "post with body",
                b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nwork".to_vec(),
                Want::Requests(vec![("POST", "/v1/predict", "work", true)], false),
            ),
            (
                "bare lf line endings",
                b"GET /healthz HTTP/1.1\n\n".to_vec(),
                Want::Requests(vec![("GET", "/healthz", "", true)], false),
            ),
            (
                "http 1.0 defaults to close",
                b"GET / HTTP/1.0\r\n\r\n".to_vec(),
                Want::Requests(vec![("GET", "/", "", false)], false),
            ),
            (
                "http 1.0 with keep-alive header",
                b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n".to_vec(),
                Want::Requests(vec![("GET", "/", "", true)], false),
            ),
            (
                "connection close",
                b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
                Want::Requests(vec![("GET", "/", "", false)], false),
            ),
            (
                "extra request-line tokens ignored",
                b"GET / HTTP/1.1 extra junk\r\n\r\n".to_vec(),
                Want::Requests(vec![("GET", "/", "", true)], false),
            ),
            (
                "duplicate content-length last wins",
                b"POST / HTTP/1.1\r\nContent-Length: 9\r\nContent-Length: 2\r\n\r\nhi".to_vec(),
                Want::Requests(vec![("POST", "/", "hi", true)], false),
            ),
            (
                "pipelined pair",
                b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz".to_vec(),
                Want::Requests(
                    vec![("GET", "/a", "", true), ("POST", "/b", "xyz", true)],
                    false,
                ),
            ),
            (
                "pipelined with trailing partial",
                b"GET /a HTTP/1.1\r\n\r\nGET /b HT".to_vec(),
                Want::Requests(vec![("GET", "/a", "", true)], true),
            ),
            (
                "empty request line",
                b"\r\nGET / HTTP/1.1\r\n\r\n".to_vec(),
                Want::Error("empty request line"),
            ),
            (
                "missing version",
                b"GET /\r\n\r\n".to_vec(),
                Want::Error("malformed request line"),
            ),
            (
                "http 2 rejected",
                b"GET / HTTP/2\r\n\r\n".to_vec(),
                Want::Error("unsupported protocol version"),
            ),
            (
                "header without colon",
                b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
                Want::Error("malformed header"),
            ),
            (
                "unparseable content-length",
                b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_vec(),
                Want::Error("bad content-length"),
            ),
            (
                "negative content-length",
                b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n".to_vec(),
                Want::Error("bad content-length"),
            ),
            (
                "chunked rejected",
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
                Want::Error("transfer-encoding not supported"),
            ),
            (
                "non-utf8 request line",
                b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
                Want::Error("non-utf8 line"),
            ),
            (
                "non-utf8 body",
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xc3\x28".to_vec(),
                Want::Error("non-utf8 body"),
            ),
            (
                "oversized declared body",
                format!(
                    "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY + 1
                )
                .into_bytes(),
                Want::TooLarge,
            ),
            (
                "oversized then small declaration still 413",
                format!(
                    "POST / HTTP/1.1\r\nContent-Length: {}\r\nContent-Length: 2\r\n\r\nhi",
                    MAX_BODY + 1
                )
                .into_bytes(),
                Want::TooLarge,
            ),
            (
                "good request then garbage",
                b"GET /a HTTP/1.1\r\n\r\n\r\n".to_vec(),
                Want::Error("empty request line"),
            ),
        ];
        for (name, input, want) in &cases {
            check(name, input, want);
        }
    }

    #[test]
    fn oversized_line_rejected_at_the_bound() {
        // A line of exactly MAX_LINE_BYTES including CRLF passes; one
        // byte more fails — split-invariantly.
        let pad = "x".repeat(MAX_LINE_BYTES - "GET /p HTTP/1.1\r\n".len());
        let ok = format!("GET /p{pad} HTTP/1.1\r\n\r\n");
        let p = &ok[..]; // sanity: line is exactly at the bound
        assert_eq!(p.find("\r\n").unwrap() + 2, MAX_LINE_BYTES);
        let long_path = leak_string(format!("/p{pad}"));
        check(
            "line at the bound",
            ok.as_bytes(),
            &Want::Requests(vec![("GET", long_path, "", true)], false),
        );

        let over = format!("GET /px{pad} HTTP/1.1\r\n\r\n");
        // Too expensive to try every split of an 8 KiB line: the
        // interesting splits are around the bound.
        let mut parser = RequestParser::new(MAX_BODY);
        let (_, status) = parser.advance(over.as_bytes());
        assert_eq!(status, ParseStatus::Malformed("line too long"));
        let mut parser = RequestParser::new(MAX_BODY);
        let bytes = over.as_bytes();
        let mut outcome = None;
        for b in bytes {
            match parser.advance(std::slice::from_ref(b)) {
                (_, ParseStatus::NeedMore) => {}
                (_, s) => {
                    outcome = Some(s);
                    break;
                }
            }
        }
        assert_eq!(outcome, Some(ParseStatus::Malformed("line too long")));

        // An unterminated line keeps erroring once past the bound even
        // with no newline in sight (slow-loris cannot buffer forever).
        let mut parser = RequestParser::new(MAX_BODY);
        let (_, status) = parser.advance(&vec![b'a'; MAX_LINE_BYTES + 1]);
        assert_eq!(status, ParseStatus::Malformed("line too long"));
    }

    fn leak_string(s: String) -> &'static str {
        Box::leak(s.into_boxed_str())
    }

    #[test]
    fn eof_maps_to_the_blocking_parsers_truncation_errors() {
        let cases: Vec<(&str, &[u8], Option<&'static str>)> = vec![
            ("between requests", b"", None),
            ("after a full request", b"GET / HTTP/1.1\r\n\r\n", None),
            ("mid request line", b"GET /he", Some("truncated request")),
            (
                "after request line",
                b"GET / HTTP/1.1\r\n",
                Some("truncated headers"),
            ),
            (
                "mid header line",
                b"GET / HTTP/1.1\r\nHost: s",
                Some("truncated request"),
            ),
            (
                "mid body",
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
                Some("truncated body"),
            ),
        ];
        for (name, input, want) in cases {
            let mut parser = RequestParser::new(MAX_BODY);
            let mut rest = input;
            while !rest.is_empty() {
                let (consumed, status) = parser.advance(rest);
                rest = &rest[consumed..];
                match status {
                    ParseStatus::NeedMore | ParseStatus::Request(_) => {}
                    other => panic!("{name}: unexpected {other:?}"),
                }
            }
            assert_eq!(parser.eof_error(), want, "{name}");
        }
    }

    #[test]
    fn parser_reuses_cleanly_across_many_requests() {
        let mut parser = RequestParser::new(MAX_BODY);
        for i in 0..100 {
            let body = format!("req-{i}");
            let raw = format!(
                "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let (consumed, status) = parser.advance(raw.as_bytes());
            assert_eq!(consumed, raw.len());
            match status {
                ParseStatus::Request(r) => {
                    assert_eq!(r.body, body);
                    assert!(r.keep_alive);
                }
                other => panic!("request {i}: {other:?}"),
            }
            assert!(parser.is_idle());
        }
    }

    /// What a response byte stream must parse to, however it is split.
    #[derive(Debug, PartialEq, Eq)]
    enum WantResponse {
        /// Complete responses as `(status, body, keep_alive)`, plus
        /// whether the stream ends mid-response.
        Responses(Vec<(u16, String, bool)>, bool),
        /// A terminal parse error.
        Error(&'static str),
    }

    fn run_response(input: &[u8], splits: &[usize]) -> WantResponse {
        let mut parser = ResponseParser::new(MAX_BODY);
        let mut responses = Vec::new();
        let mut start = 0usize;
        for &end in splits.iter().chain(std::iter::once(&input.len())) {
            let mut chunk = &input[start..end];
            start = end;
            loop {
                let (consumed, status) = parser.advance(chunk);
                chunk = &chunk[consumed..];
                match status {
                    Ok(None) => {
                        assert!(chunk.is_empty(), "NeedMore must consume the chunk");
                        break;
                    }
                    Ok(Some(r)) => responses.push((r.status, r.body, r.keep_alive)),
                    Err(m) => return WantResponse::Error(m),
                }
                if chunk.is_empty() {
                    break;
                }
            }
        }
        WantResponse::Responses(responses, parser.framing.started)
    }

    /// [`check`] for responses: whole, byte-by-byte, every split point —
    /// and every strict prefix of a stream that parses must still be
    /// waiting for more, never an answer or an error.
    fn check_response(name: &str, input: &[u8], want: &WantResponse) {
        assert_eq!(&run_response(input, &[]), want, "{name}: unsplit");
        let all_bytes: Vec<usize> = (1..input.len()).collect();
        assert_eq!(
            &run_response(input, &all_bytes),
            want,
            "{name}: byte-by-byte"
        );
        for split in 1..input.len() {
            assert_eq!(
                &run_response(input, &[split]),
                want,
                "{name}: split at {split}"
            );
        }
        if matches!(want, WantResponse::Responses(..)) {
            for cut in 1..input.len() {
                assert_eq!(
                    run_response(&input[..cut], &[]),
                    WantResponse::Responses(Vec::new(), true),
                    "{name}: truncated at {cut}"
                );
            }
        }
    }

    #[test]
    fn response_table_is_split_and_truncation_invariant() {
        let ok = |status: u16, body: &str, keep_alive: bool| {
            WantResponse::Responses(vec![(status, body.to_string(), keep_alive)], false)
        };
        let error_body = r#"{"api_version":1,"error":{"code":"invalid_top_k","message":"k"}}"#;
        let cases: Vec<(&str, String, WantResponse)> = vec![
            (
                "200 with a body",
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"epoch\":1}"
                    .into(),
                ok(200, "{\"epoch\":1}", true),
            ),
            (
                "422 error body",
                format!(
                    "HTTP/1.1 422 Unprocessable Entity\r\nContent-Length: {}\r\n\r\n{error_body}",
                    error_body.len()
                ),
                ok(422, error_body, true),
            ),
            (
                "429 with retry-after",
                "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 1\r\n\r\n{}"
                    .into(),
                ok(429, "{}", true),
            ),
            (
                "connection close",
                "HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 4\r\n\r\ndown"
                    .into(),
                ok(503, "down", false),
            ),
            (
                "bad status line",
                "HTTP/1.1\r\n\r\n".into(),
                WantResponse::Error("malformed status line"),
            ),
            (
                "non-numeric status",
                "HTTP/1.1 2OO OK\r\n\r\n".into(),
                WantResponse::Error("bad status code"),
            ),
            (
                "not http",
                "SMTP/1.1 200 OK\r\n\r\n".into(),
                WantResponse::Error("unsupported protocol version"),
            ),
            (
                "bad content-length",
                "HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\n".into(),
                WantResponse::Error("bad content-length"),
            ),
            (
                "transfer-encoding",
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".into(),
                WantResponse::Error("transfer-encoding not supported"),
            ),
            (
                "body past the limit",
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY + 1
                ),
                WantResponse::Error("body too large"),
            ),
        ];
        for (name, input, want) in &cases {
            check_response(name, input.as_bytes(), want);
        }
    }
}
