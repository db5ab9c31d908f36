//! Incremental HTTP/1.1 parsing.
//!
//! RCB-Agent attaches an asynchronous data listener to each accepted socket
//! and must cope with requests arriving in arbitrary chunks (paper §4.1.1,
//! the `nsIStreamListener` machinery). [`RequestParser`] mirrors that: feed
//! it byte slices as they arrive; it yields complete [`Request`]s when the
//! head and `Content-Length`-framed body are fully buffered.

use rcb_util::{RcbError, Result};

use crate::headers::HeaderMap;
use crate::message::{Method, Request, Response, Status};

/// Default maximum accepted head (request-line + headers) size.
pub const MAX_HEAD: usize = 64 * 1024;
/// Default maximum accepted body size (synthetic pages stay far below
/// this).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Why the parser refused the connection's byte stream. The engines
/// consult this after an `Err` from [`RequestParser::next_request`] to
/// pick the right prefab error reply — `431` for an oversized head, `413`
/// for an oversized declared body, `400` for anything malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseReject {
    /// Syntactically invalid input (→ `400`).
    Malformed,
    /// Head exceeded the configured limit before completing (→ `431`).
    HeadTooLarge,
    /// Declared `Content-Length` exceeded the configured limit (→ `413`).
    BodyTooLarge,
}

/// Incremental request parser for one connection.
#[derive(Debug)]
pub struct RequestParser {
    buffer: Vec<u8>,
    max_head: usize,
    max_body: usize,
    reject: Option<ParseReject>,
}

impl Default for RequestParser {
    fn default() -> Self {
        RequestParser::with_limits(MAX_HEAD, MAX_BODY)
    }
}

impl RequestParser {
    /// Creates a parser with an empty buffer and the default limits.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Creates a parser with explicit head/body byte limits (the server's
    /// overload-protection knobs).
    pub fn with_limits(max_head: usize, max_body: usize) -> Self {
        RequestParser {
            buffer: Vec::new(),
            max_head,
            max_body,
            reject: None,
        }
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buffer.extend_from_slice(data);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Why the last [`next_request`](RequestParser::next_request) call
    /// returned `Err`, if it did.
    pub fn reject_reason(&self) -> Option<ParseReject> {
        self.reject
    }

    fn refuse<T>(&mut self, reason: ParseReject, detail: &'static str) -> Result<T> {
        self.reject = Some(reason);
        Err(RcbError::parse("http", detail))
    }

    /// Attempts to extract the next complete request.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(_))` when a
    /// full request was consumed, and `Err(_)` on malformed input (with
    /// [`reject_reason`](RequestParser::reject_reason) set).
    pub fn next_request(&mut self) -> Result<Option<Request>> {
        let Some(head_end) = find_double_crlf(&self.buffer) else {
            if self.buffer.len() > self.max_head {
                return self.refuse(ParseReject::HeadTooLarge, "request head too large");
            }
            return Ok(None);
        };
        if head_end > self.max_head {
            return self.refuse(ParseReject::HeadTooLarge, "request head too large");
        }
        let Ok(head) = std::str::from_utf8(&self.buffer[..head_end]) else {
            return self.refuse(ParseReject::Malformed, "non-UTF-8 request head");
        };
        let (method, target, headers) = match parse_request_head(head) {
            Ok(parts) => parts,
            Err(e) => {
                self.reject = Some(ParseReject::Malformed);
                return Err(e);
            }
        };
        // Absent Content-Length means no body; present-but-invalid is a
        // parse error (→ 400 and close), never treated as 0 — framing by
        // a guessed length is how request smuggling starts.
        let body_len = match headers.content_length() {
            Ok(len) => len.unwrap_or(0),
            Err(e) => {
                self.reject = Some(ParseReject::Malformed);
                return Err(e);
            }
        };
        if body_len > self.max_body {
            return self.refuse(ParseReject::BodyTooLarge, "declared body too large");
        }
        let total = head_end + 4 + body_len;
        if self.buffer.len() < total {
            return Ok(None);
        }
        let body = self.buffer[head_end + 4..total].to_vec();
        self.buffer.drain(..total);
        Ok(Some(Request {
            method,
            target,
            headers,
            body,
        }))
    }
}

/// Parses a complete request from a byte slice (errors if bytes remain).
pub fn parse_request(data: &[u8]) -> Result<Request> {
    let mut p = RequestParser::new();
    p.feed(data);
    match p.next_request()? {
        Some(req) if p.buffered() == 0 => Ok(req),
        Some(_) => Err(RcbError::parse("http", "trailing bytes after request")),
        None => Err(RcbError::parse("http", "incomplete request")),
    }
}

/// Parses a complete response from a byte slice.
pub fn parse_response(data: &[u8]) -> Result<Response> {
    let head_end = find_double_crlf(data)
        .ok_or_else(|| RcbError::parse("http", "incomplete response head"))?;
    let (status, headers) = parse_response_head(&data[..head_end])?;
    let body = &data[head_end + 4..];
    // Chunked transfer-encoding (RFC 2616 §3.6.1): real 2009 origins used
    // it heavily for dynamically generated pages.
    if is_chunked(&headers) {
        let body = decode_chunked(body)?;
        return Ok(Response::from_parts(status, headers, body));
    }
    let body_len = headers.content_length()?.unwrap_or(body.len());
    let body = body
        .get(..body_len)
        .ok_or_else(|| RcbError::parse("http", "truncated response body"))?;
    Ok(Response::from_parts(status, headers, body.to_vec()))
}

/// Parses a response head: the status line and header lines, without the
/// blank line that ends them.
pub(crate) fn parse_response_head(head: &[u8]) -> Result<(Status, HeaderMap)> {
    let head = std::str::from_utf8(head)
        .map_err(|_| RcbError::parse("http", "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| RcbError::parse("http", "missing status line"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts
        .next()
        .ok_or_else(|| RcbError::parse("http", "missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RcbError::parse("http", format!("bad version {version:?}")));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| RcbError::parse("http", "bad status code"))?;
    Ok((Status(code), parse_header_lines(lines)?))
}

/// Whether a response body is chunked (`Transfer-Encoding: chunked`).
pub(crate) fn is_chunked(headers: &HeaderMap) -> bool {
    headers
        .get("transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
}

/// Decodes a chunked body: `size-hex CRLF data CRLF ... 0 CRLF CRLF`.
pub(crate) fn decode_chunked(mut data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len());
    loop {
        let line_end = data
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| RcbError::parse("http", "missing chunk-size line"))?;
        let size_line = std::str::from_utf8(&data[..line_end])
            .map_err(|_| RcbError::parse("http", "non-UTF-8 chunk size"))?;
        // Chunk extensions after ';' are ignored per spec.
        let size_token = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| RcbError::parse("http", format!("bad chunk size {size_token:?}")))?;
        data = &data[line_end + 2..];
        if size == 0 {
            // Trailers (if any) run to the final blank line; accept both
            // an immediate CRLF and trailer fields.
            return Ok(out);
        }
        if data.len() < size + 2 {
            return Err(RcbError::parse("http", "truncated chunk"));
        }
        out.extend_from_slice(&data[..size]);
        if &data[size..size + 2] != b"\r\n" {
            return Err(RcbError::parse("http", "chunk missing terminator"));
        }
        data = &data[size + 2..];
    }
}

fn parse_request_head(head: &str) -> Result<(Method, String, HeaderMap)> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| RcbError::parse("http", "missing request line"))?;
    let mut parts = request_line.split(' ');
    let method = Method::parse(
        parts
            .next()
            .ok_or_else(|| RcbError::parse("http", "missing method"))?,
    )?;
    let target = parts
        .next()
        .ok_or_else(|| RcbError::parse("http", "missing request-target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| RcbError::parse("http", "missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RcbError::parse("http", format!("bad version {version:?}")));
    }
    if parts.next().is_some() {
        return Err(RcbError::parse("http", "malformed request line"));
    }
    if target.is_empty() || (!target.starts_with('/') && target != "*") {
        return Err(RcbError::parse(
            "http",
            format!("bad request-target {target:?}"),
        ));
    }
    let headers = parse_header_lines(lines)?;
    Ok((method, target, headers))
}

pub(crate) fn parse_header_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<HeaderMap> {
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RcbError::parse("http", format!("malformed header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RcbError::parse("http", format!("bad header name {name:?}")));
        }
        headers.append(name, value.trim());
    }
    Ok(headers)
}

pub(crate) fn find_double_crlf(data: &[u8]) -> Option<usize> {
    data.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{serialize_request, serialize_response};

    #[test]
    fn roundtrip_get() {
        let req = Request::get("/a?b=1").with_header("Host", "h");
        let parsed = parse_request(&serialize_request(&req)).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn roundtrip_post_with_body() {
        let req = Request::post("/poll", b"x=1&y=2".to_vec());
        let parsed = parse_request(&serialize_request(&req)).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn roundtrip_response() {
        let resp = Response::xml("<n/>").with_header("X-Custom", "v");
        let parsed = parse_response(&serialize_response(&resp)).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn incremental_feeding_byte_at_a_time() {
        let req = Request::post("/poll?hmac=ff", b"actions".to_vec());
        let wire = serialize_request(&req);
        let mut p = RequestParser::new();
        for (i, b) in wire.iter().enumerate() {
            p.feed(std::slice::from_ref(b));
            let got = p.next_request().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "request complete too early at byte {i}");
            } else {
                assert_eq!(got.unwrap(), req);
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_requests() {
        let a = Request::get("/a");
        let b = Request::post("/b", b"bb".to_vec());
        let mut wire = serialize_request(&a);
        wire.extend_from_slice(&serialize_request(&b));
        let mut p = RequestParser::new();
        p.feed(&wire);
        assert_eq!(p.next_request().unwrap().unwrap(), a);
        assert_eq!(p.next_request().unwrap().unwrap(), b);
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_request(b"GARBAGE\r\n\r\n").is_err());
        assert!(parse_request(b"GET /\r\n\r\n").is_err()); // missing version
        assert!(parse_request(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse_request(b"GET x HTTP/1.1\r\n\r\n").is_err()); // bad target
        assert!(parse_request(b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1 extra\r\n\r\n").is_err());
    }

    #[test]
    fn incomplete_returns_none_or_error() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        assert!(p.next_request().unwrap().is_none());
        // Body shorter than Content-Length → keep waiting.
        let mut p2 = RequestParser::new();
        p2.feed(b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
        assert!(p2.next_request().unwrap().is_none());
        p2.feed(b"cde");
        assert!(p2.next_request().unwrap().is_some());
    }

    #[test]
    fn invalid_content_length_is_a_parse_error_not_zero() {
        // The old behaviour mapped these to body_len = 0, splitting one
        // request into a bogus request plus trailing garbage.
        for bad in [
            &b"POST /p HTTP/1.1\r\nContent-Length: nan\r\n\r\nhello"[..],
            &b"POST /p HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"[..],
            &b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!"[..],
            &b"POST /p HTTP/1.1\r\nContent-Length:\r\n\r\n"[..],
        ] {
            let mut p = RequestParser::new();
            p.feed(bad);
            assert!(
                p.next_request().is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
        // Identical duplicates still frame correctly.
        let mut p = RequestParser::new();
        p.feed(b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(p.next_request().unwrap().unwrap().body, b"hello");
    }

    #[test]
    fn response_with_invalid_content_length_rejected() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: zz\r\n\r\n").is_err());
        assert!(parse_response(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc"
        )
        .is_err());
    }

    #[test]
    fn rejects_oversized_head() {
        let mut p = RequestParser::new();
        p.feed(&vec![b'a'; 70 * 1024]);
        assert!(p.next_request().is_err());
        assert_eq!(p.reject_reason(), Some(ParseReject::HeadTooLarge));
    }

    #[test]
    fn configured_limits_set_distinguishable_reject_reasons() {
        // A complete-but-oversized head trips the limit even though the
        // double-CRLF arrived.
        let mut p = RequestParser::with_limits(64, MAX_BODY);
        p.feed(
            b"GET / HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n",
        );
        assert!(p.next_request().is_err());
        assert_eq!(p.reject_reason(), Some(ParseReject::HeadTooLarge));

        let mut p = RequestParser::with_limits(MAX_HEAD, 8);
        p.feed(b"POST /p HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
        assert!(p.next_request().is_err());
        assert_eq!(p.reject_reason(), Some(ParseReject::BodyTooLarge));

        let mut p = RequestParser::new();
        p.feed(b"GARBAGE\r\n\r\n");
        assert!(p.next_request().is_err());
        assert_eq!(p.reject_reason(), Some(ParseReject::Malformed));

        // A clean parse leaves no reject reason behind.
        let mut p = RequestParser::new();
        p.feed(&serialize_request(&Request::get("/ok")));
        assert!(p.next_request().unwrap().is_some());
        assert_eq!(p.reject_reason(), None);
    }

    #[test]
    fn response_without_content_length_takes_rest() {
        let raw = b"HTTP/1.1 200 OK\r\n\r\nhello";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.body, b"hello");
    }

    #[test]
    fn chunked_response_decodes() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nWiki\r\n6\r\npedia \r\nB\r\nin \r\nchunks\r\n0\r\n\r\n";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.body, b"Wikipedia in \r\nchunks");
    }

    #[test]
    fn chunked_with_extension_and_uppercase_hex() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    A;ext=1\r\n0123456789\r\n0\r\n\r\n";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.body, b"0123456789");
    }

    #[test]
    fn chunked_rejects_malformed() {
        for raw in [
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nxx\r\n0\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab\r\n0\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcdXX0\r\n\r\n"[..],
        ] {
            assert!(parse_response(raw).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected_by_oneshot() {
        let mut wire = serialize_request(&Request::get("/"));
        wire.extend_from_slice(b"junk-after");
        assert!(parse_request(&wire).is_err());
    }
}
