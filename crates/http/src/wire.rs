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

/// First value of the header called `name` (already lower-case).
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let (_, value) = headers.iter().find(|(n, _)| n == name)?;
    Some(value)
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
        header(&self.headers, &name.to_ascii_lowercase())
    }

    /// Splits the path into (path, query).
    pub fn split_query(&self) -> (&str, Option<&str>) {
        match self.path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (self.path.as_str(), None),
        }
    }

    /// Serialises the request (client side).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method.as_str(), self.path).into_bytes();
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        if !self.body.is_empty() && self.header("content-length").is_none() {
            out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
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

    /// First header value by name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, &name.to_ascii_lowercase())
    }

    /// Serialises the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            Response::reason(self.status)
        )
        .into_bytes();
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
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

/// Header-block sanity bound.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Body-length sanity bound. A Content-Length above this is a length-field
/// lie, not a message the parser should sit buffering toward forever.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Validates a claimed Content-Length before any buffering decision rides
/// on it: unparseable values are malformed, absurd ones are rejected.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let Some(v) = header(headers, "content-length") else {
        return Ok(0);
    };
    let n: usize = v.parse().map_err(|_| HttpError::Malformed)?;
    if n > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(n)
}

/// Offset of the first `\r\n\r\n`, scanned with a rolling window so the
/// delimiter is found even when it straddles chunk boundaries.
fn find_blank_line(buf: &PktQueue) -> Option<usize> {
    let mut window = [0u8; 4];
    let mut seen = 0usize;
    for chunk in buf.chunks() {
        for &b in chunk {
            window.rotate_left(1);
            window[3] = b;
            seen += 1;
            if seen >= 4 && window == *b"\r\n\r\n" {
                return Some(seen - 4);
            }
        }
    }
    None
}

/// Takes one complete message off `buf`: the start line as `start` parsed
/// it, the header pairs (names lower-cased) and the body. `None` while the
/// header block or the `Content-Length` body is still arriving.
fn take_message<T>(
    buf: &mut PktQueue,
    start: impl FnOnce(&str) -> Result<T, HttpError>,
) -> Result<Option<(T, Vec<(String, String)>, Vec<u8>)>, HttpError> {
    let Some(header_end) = find_blank_line(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge);
        }
        return Ok(None);
    };
    // Assembling the header block for parsing is not a counted copy:
    // headers are protocol metadata, not delivered payload.
    let head = buf.copy_range(0, header_end);
    let header_text = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed)?;
    let mut lines = header_text.split("\r\n");
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
    let body_start = header_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None); // body still arriving
    }
    // The single counted copy on the receive path: the body leaves the
    // shared views and becomes the application's owned bytes.
    let body = buf.copy_range(body_start, content_length);
    if !body.is_empty() {
        record_copy(body.len());
    }
    buf.advance(body_start + content_length);
    Ok(Some((start, headers, body)))
}

/// An incremental request parser: feed bytes, take complete requests.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: PktQueue,
}

impl RequestParser {
    /// A fresh parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends newly received bytes. Feeding an owned [`PktBuf`] (as the
    /// server and client do with stream chunks) is copy-free.
    pub fn feed(&mut self, data: impl Into<PktBuf>) {
        self.buf.push(data.into());
    }

    /// Attempts to take one complete request off the buffer.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input; the connection should be closed.
    pub fn take(&mut self) -> Result<Option<Request>, HttpError> {
        let message = take_message(&mut self.buf, |request_line| {
            let mut parts = request_line.split_whitespace();
            let method = Method::parse(parts.next().ok_or(HttpError::Malformed)?);
            let path = parts.next().ok_or(HttpError::Malformed)?.to_owned();
            let version = parts.next().ok_or(HttpError::Malformed)?;
            if !version.starts_with("HTTP/1.") {
                return Err(HttpError::Malformed);
            }
            Ok((method, path))
        })?;
        Ok(message.map(|((method, path), headers, body)| {
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
    buf: PktQueue,
}

impl ResponseParser {
    /// A fresh parser.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Appends newly received bytes (copy-free for owned [`PktBuf`] chunks).
    pub fn feed(&mut self, data: impl Into<PktBuf>) {
        self.buf.push(data.into());
    }

    /// Attempts to take one complete response off the buffer.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input.
    pub fn take(&mut self) -> Result<Option<Response>, HttpError> {
        let message = take_message(&mut self.buf, |status_line| {
            let mut parts = status_line.split_whitespace();
            let version = parts.next().ok_or(HttpError::Malformed)?;
            if !version.starts_with("HTTP/1.") {
                return Err(HttpError::Malformed);
            }
            let status = parts.next().ok_or(HttpError::Malformed)?;
            status.parse::<u16>().map_err(|_| HttpError::Malformed)
        })?;
        Ok(message.map(|(status, headers, body)| Response {
            status,
            headers,
            body,
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
