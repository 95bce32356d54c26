//! HTTP/1.1 message framing (paper Table 1: HTTP is an application-level
//! Mirage library).
//!
//! An incremental parser suited to the stream interface: feed it chunks as
//! they arrive from TCP, and it yields complete messages once the header
//! block and `Content-Length` body are in. Pipelined requests on one
//! connection parse back-to-back.
//!
//! The parsers buffer [`PktBuf`] views in a [`PktQueue`] rather than flat
//! bytes, so feeding a chunk that arrived from the stack is a reference-count
//! bump, not a copy. The only counted payload copy on the receive path is
//! the final gather of the message body out of the buffered views.
//!
//! Each message costs one scan and one parse however many chunks it
//! arrives in: the framer remembers how far it has searched for the blank
//! line that ends the header block, and keeps the parsed head while the
//! body is still arriving.

use mirage_net::{record_copy, PktBuf, PktQueue};

/// Request methods the appliances use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
    /// HEAD.
    Head,
    /// Anything else (rejected by the server with 501).
    Other,
}

impl Method {
    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "HEAD" => Method::Head,
            _ => Method::Other,
        }
    }

    /// Canonical token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Other => "OTHER",
        }
    }
}

/// First value of the header called `name`, compared case-insensitively.
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let (_, value) = headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name))?;
    Some(value)
}

const CONTENT_LENGTH: &str = "content-length";

/// Room for everything an encoder writes beside the path, the header
/// lines and the body: the longest start line and reason phrase, a
/// `content-length` line of up to 20 digits, `connection: close` and the
/// blank line all fit, so an encoder allocates its buffer once.
const ENCODE_SLACK: usize = 96;

/// Bytes the `name: value\r\n` lines of `headers` take.
fn lines_len<'a>(headers: impl Iterator<Item = &'a (String, String)>) -> usize {
    headers.map(|(n, v)| n.len() + v.len() + 4).sum()
}

/// Appends `name: value\r\n`.
fn push_line(out: &mut Vec<u8>, name: &str, value: &[u8]) {
    for part in [name.as_bytes(), b": ", value, b"\r\n"] {
        out.extend_from_slice(part);
    }
}

/// `n` in decimal, written at the end of `digits`.
fn decimal(mut n: usize, digits: &mut [u8; 20]) -> &[u8] {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &digits[at..];
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path (with query string attached).
    pub path: String,
    /// Header pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the connection should stay open afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Splits the path into (path, query).
    pub fn split_query(&self) -> (&str, Option<&str>) {
        match self.path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (self.path.as_str(), None),
        }
    }

    /// Serialises the request (client side) into one buffer. A
    /// `content-length` the caller set is sent as it is; otherwise a
    /// non-empty body gets one.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            self.path.len() + lines_len(self.headers.iter()) + self.body.len() + ENCODE_SLACK,
        );
        let method = self.method.as_str().as_bytes();
        for part in [method, b" ", self.path.as_bytes(), b" HTTP/1.1\r\n"] {
            out.extend_from_slice(part);
        }
        for (n, v) in &self.headers {
            push_line(&mut out, n, v.as_bytes());
        }
        if !self.body.is_empty() && self.header(CONTENT_LENGTH).is_none() {
            push_line(&mut out, CONTENT_LENGTH, decimal(self.body.len(), &mut [0; 20]));
        }
        if !self.keep_alive {
            out.extend_from_slice(b"connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Convenience GET constructor.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    /// Convenience POST constructor.
    pub fn post(path: impl Into<String>, body: Vec<u8>) -> Request {
        Request {
            method: Method::Post,
            path: path.into(),
            headers: Vec::new(),
            body,
            keep_alive: true,
        }
    }
}

/// A response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header pairs (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a body and content type.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            headers: vec![("content-type".into(), content_type.into())],
            body,
        }
    }

    /// An empty response with a status code.
    pub fn status(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Reason phrase for a code.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            _ => "Unknown",
        }
    }

    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Serialises the response into one buffer. The body's length is
    /// written once, as `content-length`; a value the handler set under
    /// that name is not sent.
    pub fn encode(&self) -> Vec<u8> {
        let headers = || {
            self.headers
                .iter()
                .filter(|(n, _)| !n.eq_ignore_ascii_case(CONTENT_LENGTH))
        };
        let mut out = Vec::with_capacity(lines_len(headers()) + self.body.len() + ENCODE_SLACK);
        let mut digits = [0; 20];
        let status = decimal(self.status.into(), &mut digits);
        let reason = Response::reason(self.status).as_bytes();
        for part in [b"HTTP/1.1 ", status, b" ", reason, b"\r\n"] {
            out.extend_from_slice(part);
        }
        for (n, v) in headers() {
            push_line(&mut out, n, v.as_bytes());
        }
        push_line(&mut out, CONTENT_LENGTH, decimal(self.body.len(), &mut [0; 20]));
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Errors from message parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line or a header was malformed.
    Malformed,
    /// Headers or the claimed body length exceed the sanity bounds.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            HttpError::Malformed => "malformed http message",
            HttpError::TooLarge => "message exceeds sanity bounds",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HttpError {}

/// Header-block sanity bound: the start line, the headers and the blank
/// line that ends them.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Body-length sanity bound. A Content-Length above this is a length-field
/// lie, not a message the parser should sit buffering toward forever.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// `\r\n\r\n` as the framer's shift window holds it.
const BLANK_LINE: u32 = u32::from_be_bytes(*b"\r\n\r\n");

/// Validates the claimed Content-Length before any buffering decision rides
/// on it. A value must be digits only (RFC 9110 §8.6) and every
/// `content-length` line must agree (RFC 9112 §6.3); otherwise the framing
/// is ambiguous and the message malformed. Absurd lengths are refused.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut length = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == CONTENT_LENGTH) {
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::Malformed);
        }
        let n: usize = v.parse().map_err(|_| HttpError::Malformed)?;
        if length.is_some_and(|seen| seen != n) {
            return Err(HttpError::Malformed);
        }
        length = Some(n);
    }
    let n = length.unwrap_or(0);
    if n > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(n)
}

/// A message as the framer parses it: the head as soon as its blank line
/// arrives, the body once all of it has.
#[derive(Debug)]
struct Message<T> {
    /// The start line, as the parser's closure parsed it.
    start: T,
    /// Header pairs in arrival order, names lower-cased.
    headers: Vec<(String, String)>,
    /// Where the body begins: the header block plus its blank line.
    body_start: usize,
    content_length: usize,
    /// Empty until the whole body is in.
    body: Vec<u8>,
}

/// The state both parsers keep between `take()` calls, so a message fed in
/// many chunks is searched once and parsed once: how far the buffer has
/// been searched for the blank line that ends the header block, and the
/// parsed head while the body is still arriving.
#[derive(Debug)]
struct Framer<T> {
    buf: PktQueue,
    /// Bytes at the front of `buf` already searched for the blank line:
    /// always whole chunks, as a search stops early only on finding it.
    searched: usize,
    /// How many chunks those bytes are.
    chunks_searched: usize,
    /// The last four bytes searched, the latest in the low byte: a blank
    /// line that straddles two chunks is found without looking back.
    window: u32,
    /// The current message, once its blank line has arrived.
    head: Option<Message<T>>,
}

impl<T> Default for Framer<T> {
    fn default() -> Self {
        Framer {
            buf: PktQueue::new(),
            searched: 0,
            chunks_searched: 0,
            window: 0,
            head: None,
        }
    }
}

impl<T> Framer<T> {
    /// Offset of the first `\r\n\r\n`, searching only the bytes that
    /// arrived since the last call.
    fn find_blank_line(&mut self) -> Option<usize> {
        for chunk in self.buf.chunks_from(self.chunks_searched) {
            for (i, &b) in chunk.iter().enumerate() {
                self.window = self.window << 8 | u32::from(b);
                if self.window == BLANK_LINE {
                    return Some(self.searched + i + 1 - 4);
                }
            }
            self.searched += chunk.len();
            self.chunks_searched += 1;
        }
        None
    }

    /// Parses the `header_end` bytes before the blank line: the start line
    /// with `start`, then the header pairs (names lower-cased).
    fn parse_head(
        &self,
        header_end: usize,
        start: impl FnOnce(&str) -> Result<T, HttpError>,
    ) -> Result<Message<T>, HttpError> {
        // The header block is protocol metadata, not delivered payload:
        // read in place when it lies in one chunk, else gathered uncounted.
        let gathered;
        let block = match self.buf.chunks().next() {
            Some(first) if first.len() >= header_end => &first[..header_end],
            _ => {
                gathered = self.buf.copy_range(0, header_end);
                &gathered[..]
            }
        };
        let text = std::str::from_utf8(block).map_err(|_| HttpError::Malformed)?;
        let mut lines = text.split("\r\n");
        let start = start(lines.next().ok_or(HttpError::Malformed)?)?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(HttpError::Malformed)?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let content_length = content_length(&headers)?;
        Ok(Message {
            start,
            headers,
            body_start: header_end + 4,
            content_length,
            body: Vec::new(),
        })
    }

    /// Takes one complete message off the buffer. `None` while the header
    /// block or the `Content-Length` body is still arriving; `start` runs
    /// once per message, when its blank line arrives.
    fn take(
        &mut self,
        start: impl FnOnce(&str) -> Result<T, HttpError>,
    ) -> Result<Option<Message<T>>, HttpError> {
        if self.head.is_none() {
            let Some(header_end) = self.find_blank_line() else {
                // No blank line yet in `len` bytes: the block, blank line
                // included, is longer than `len` and so past the bound.
                if self.buf.len() >= MAX_HEADER_BYTES {
                    return Err(HttpError::TooLarge);
                }
                return Ok(None);
            };
            if header_end + 4 > MAX_HEADER_BYTES {
                return Err(HttpError::TooLarge);
            }
            self.head = Some(self.parse_head(header_end, start)?);
        }
        let head = self.head.as_ref().expect("parsed above");
        let end = head.body_start + head.content_length;
        if self.buf.len() < end {
            return Ok(None); // body still arriving
        }
        let mut message = self.head.take().expect("parsed above");
        // The single counted copy on the receive path: the body leaves the
        // shared views and becomes the application's owned bytes.
        message.body = self
            .buf
            .copy_range(message.body_start, message.content_length);
        if !message.body.is_empty() {
            record_copy(message.body.len());
        }
        self.buf.advance(end);
        self.searched = 0;
        self.chunks_searched = 0;
        self.window = 0;
        Ok(Some(message))
    }
}

/// An incremental request parser: feed bytes, take complete requests.
#[derive(Debug, Default)]
pub struct RequestParser {
    framer: Framer<(Method, String)>,
}

impl RequestParser {
    /// A fresh parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends newly received bytes. Feeding an owned [`PktBuf`] (as the
    /// server and client do with stream chunks) is copy-free.
    pub fn feed(&mut self, data: impl Into<PktBuf>) {
        self.framer.buf.push(data.into());
    }

    /// Attempts to take one complete request off the buffer.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input; the connection should be closed.
    pub fn take(&mut self) -> Result<Option<Request>, HttpError> {
        let message = self.framer.take(|request_line| {
            let mut parts = request_line.split_whitespace();
            let method = Method::parse(parts.next().ok_or(HttpError::Malformed)?);
            let path = parts.next().ok_or(HttpError::Malformed)?.to_owned();
            let version = parts.next().ok_or(HttpError::Malformed)?;
            if !version.starts_with("HTTP/1.") {
                return Err(HttpError::Malformed);
            }
            Ok((method, path))
        })?;
        Ok(message.map(|m| {
            let ((method, path), headers, body) = (m.start, m.headers, m.body);
            let keep_alive = !headers
                .iter()
                .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
            Request {
                method,
                path,
                headers,
                body,
                keep_alive,
            }
        }))
    }
}

/// An incremental response parser (client side).
#[derive(Debug, Default)]
pub struct ResponseParser {
    framer: Framer<u16>,
}

impl ResponseParser {
    /// A fresh parser.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Appends newly received bytes (copy-free for owned [`PktBuf`] chunks).
    pub fn feed(&mut self, data: impl Into<PktBuf>) {
        self.framer.buf.push(data.into());
    }

    /// Attempts to take one complete response off the buffer.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input.
    pub fn take(&mut self) -> Result<Option<Response>, HttpError> {
        let message = self.framer.take(|status_line| {
            let mut parts = status_line.split_whitespace();
            let version = parts.next().ok_or(HttpError::Malformed)?;
            if !version.starts_with("HTTP/1.") {
                return Err(HttpError::Malformed);
            }
            let status = parts.next().ok_or(HttpError::Malformed)?;
            status.parse::<u16>().map_err(|_| HttpError::Malformed)
        })?;
        Ok(message.map(|m| Response {
            status: m.start,
            headers: m.headers,
            body: m.body,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn request_round_trip() {
        let req = Request::post("/tweet?user=7", b"hello world".to_vec());
        let wire = req.encode();
        let mut parser = RequestParser::new();
        parser.feed(wire);
        let parsed = parser.take().unwrap().unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.path, "/tweet?user=7");
        assert_eq!(parsed.body, b"hello world");
        assert_eq!(parsed.split_query(), ("/tweet", Some("user=7")));
        assert!(parsed.keep_alive);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok("text/html", b"<h1>hi</h1>".to_vec());
        let wire = resp.encode();
        let mut parser = ResponseParser::new();
        parser.feed(wire);
        let parsed = parser.take().unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, b"<h1>hi</h1>");
        assert_eq!(parsed.header("content-type"), Some("text/html"));
    }

    #[test]
    fn incremental_feeding_waits_for_completion() {
        let req = Request::post("/x", vec![b'z'; 100]);
        let wire = req.encode();
        let mut parser = RequestParser::new();
        for chunk in wire.chunks(7) {
            if let Some(done) = parser.take().unwrap() {
                panic!("parsed early: {done:?}");
            }
            parser.feed(chunk.to_vec());
        }
        let parsed = parser.take().unwrap().unwrap();
        assert_eq!(parsed.body.len(), 100);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut wire = Request::get("/a").encode();
        wire.extend(Request::get("/b").encode());
        let mut parser = RequestParser::new();
        parser.feed(wire);
        assert_eq!(parser.take().unwrap().unwrap().path, "/a");
        assert_eq!(parser.take().unwrap().unwrap().path, "/b");
        assert!(parser.take().unwrap().is_none());
    }

    #[test]
    fn connection_close_header_honoured() {
        let mut req = Request::get("/");
        req.keep_alive = false;
        let wire = req.encode();
        let mut parser = RequestParser::new();
        parser.feed(wire);
        assert!(!parser.take().unwrap().unwrap().keep_alive);
    }

    #[test]
    fn malformed_inputs_rejected() {
        let mut parser = RequestParser::new();
        parser.feed(b"NONSENSE\r\n\r\n".to_vec());
        assert_eq!(parser.take(), Err(HttpError::Malformed));
        let mut p2 = RequestParser::new();
        p2.feed(b"GET / SPDY/9\r\n\r\n".to_vec());
        assert_eq!(p2.take(), Err(HttpError::Malformed));
        let mut p3 = RequestParser::new();
        p3.feed(vec![b'x'; MAX_HEADER_BYTES + 1]);
        assert_eq!(p3.take(), Err(HttpError::TooLarge));
    }

    #[test]
    fn bad_start_line_is_rejected_before_the_body_arrives() {
        let mut req = RequestParser::new();
        req.feed(b"GET / SPDY/9\r\ncontent-length: 10\r\n\r\n".to_vec());
        assert_eq!(req.take(), Err(HttpError::Malformed));
        let mut resp = ResponseParser::new();
        resp.feed(b"HTTP/1.1 abc OK\r\ncontent-length: 10\r\n\r\n".to_vec());
        assert_eq!(resp.take(), Err(HttpError::Malformed));
    }

    /// A request whose header block, blank line included, is `len` bytes.
    fn request_with_head_of(len: usize) -> Vec<u8> {
        let mut wire = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        let filler = len - wire.len() - 4;
        wire.resize(wire.len() + filler, b'p');
        wire.extend_from_slice(b"\r\n\r\n");
        wire
    }

    #[test]
    fn a_header_block_past_the_bound_is_refused_even_when_it_arrives_whole() {
        // A thousand headers, 32 KiB of head, in one feed: the blank line
        // is in the buffer, so only the block's own length can refuse it.
        let mut req = Request::get("/");
        for i in 0..1000 {
            req.headers.push((format!("x-h{i:04}"), "v".repeat(22)));
        }
        let wire = req.encode();
        assert!(wire.len() > 2 * MAX_HEADER_BYTES, "{}", wire.len());
        let mut parser = RequestParser::new();
        parser.feed(wire);
        assert_eq!(parser.take(), Err(HttpError::TooLarge));

        // At the bound a block parses and one byte past it does not, fed
        // whole or a byte at a time.
        for (len, want_ok) in [(MAX_HEADER_BYTES, true), (MAX_HEADER_BYTES + 1, false)] {
            let wire = request_with_head_of(len);
            let mut whole = RequestParser::new();
            whole.feed(wire.clone());
            let mut bytes = RequestParser::new();
            let mut outcome = Ok(None);
            for b in wire {
                bytes.feed(vec![b]);
                outcome = bytes.take();
                if !matches!(outcome, Ok(None)) {
                    break;
                }
            }
            for got in [whole.take(), outcome] {
                assert_eq!(got.is_ok(), want_ok, "{len}: {got:?}");
                if !want_ok {
                    assert_eq!(got, Err(HttpError::TooLarge));
                }
            }
        }
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let mut p = RequestParser::new();
        p.feed(
            b"POST /x HTTP/1.1\r\ncontent-length: 3\r\nContent-Length: 10\r\n\r\n0123456789"
                .to_vec(),
        );
        assert_eq!(p.take(), Err(HttpError::Malformed));
        // Repeating the same value frames the message one way only.
        let mut p = RequestParser::new();
        p.feed(b"POST /x HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 3\r\n\r\nabc".to_vec());
        assert_eq!(p.take().unwrap().unwrap().body, b"abc");
    }

    #[test]
    fn a_content_length_with_a_sign_is_malformed() {
        for value in ["+3", "-3", " ", "3 3"] {
            let mut p = RequestParser::new();
            p.feed(format!("POST /x HTTP/1.1\r\ncontent-length: {value}\r\n\r\nabc").into_bytes());
            assert_eq!(p.take(), Err(HttpError::Malformed), "{value:?}");
        }
    }

    #[test]
    fn a_response_carries_its_body_length_once() {
        let mut resp = Response::ok("text/plain", b"hello".to_vec());
        resp.headers.push(("Content-Length".into(), "99".into()));
        let wire = resp.encode();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert_eq!(
            text.to_ascii_lowercase().matches("content-length").count(),
            1,
            "{text}"
        );
        assert!(text.contains("content-length: 5\r\n"), "{text}");
        let mut parser = ResponseParser::new();
        parser.feed(wire);
        assert_eq!(parser.take().unwrap().unwrap().body, b"hello");
    }

    #[test]
    fn encoding_matches_the_formatted_message() {
        let mut req = Request::post("/tweet?k=7", b"body".to_vec());
        req.headers.push(("x-op".into(), "00ff".into()));
        req.keep_alive = false;
        assert_eq!(
            req.encode(),
            b"POST /tweet?k=7 HTTP/1.1\r\nx-op: 00ff\r\ncontent-length: 4\r\nconnection: close\r\n\r\nbody"
        );
        assert_eq!(
            Response::status(404).encode(),
            b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n"
        );
        let longest = Response::status(500).encode();
        assert!(longest.len() <= ENCODE_SLACK, "{}", longest.len());
    }

    #[test]
    fn header_lookup_ignores_case_on_both_sides() {
        let mut req = Request::get("/");
        req.headers.push(("X-Op".into(), "1".into()));
        assert_eq!(req.header("x-op"), Some("1"));
        assert_eq!(req.header("X-OP"), Some("1"));
        assert_eq!(req.header("x-o"), None);
    }

    mirage_testkit::property! {
        /// Any request round-trips through encode/parse, chunked arbitrarily.
        fn prop_request_round_trip(path in mirage_testkit::prop::path(0..25),
                                   body in collection::vec(any::<u8>(), 0..512),
                                   chunk in 1usize..64) {
            let req = Request::post(path.clone(), body.clone());
            let wire = req.encode();
            let mut parser = RequestParser::new();
            let mut result = None;
            for piece in wire.chunks(chunk) {
                parser.feed(piece.to_vec());
            }
            if let Some(r) = parser.take().unwrap() {
                result = Some(r);
            }
            let parsed = result.expect("complete after full feed");
            assert_eq!(parsed.path, path);
            assert_eq!(parsed.body, body);
        }
    }
}
