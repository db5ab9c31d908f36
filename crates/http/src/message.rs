//! HTTP request and response types.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use rcb_util::{RcbError, Result};

use crate::headers::HeaderMap;

/// HTTP request methods used by the RCB protocol.
///
/// New-connection and object requests use GET; Ajax polling requests
/// "always use the POST method because we want to directly piggyback action
/// information of a co-browsing participant onto a polling request"
/// (paper §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
    /// HEAD.
    Head,
}

impl Method {
    /// Parses a method token.
    pub fn parse(token: &str) -> Result<Method> {
        match token {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "HEAD" => Ok(Method::Head),
            other => Err(RcbError::parse(
                "http",
                format!("unsupported method {other:?}"),
            )),
        }
    }

    /// The wire token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP status codes used by the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Status(pub u16);

impl Status {
    /// 200 OK.
    pub const OK: Status = Status(200);
    /// 302 Found.
    pub const FOUND: Status = Status(302);
    /// 304 Not Modified.
    pub const NOT_MODIFIED: Status = Status(304);
    /// 400 Bad Request.
    pub const BAD_REQUEST: Status = Status(400);
    /// 401 Unauthorized.
    pub const UNAUTHORIZED: Status = Status(401);
    /// 403 Forbidden.
    pub const FORBIDDEN: Status = Status(403);
    /// 404 Not Found.
    pub const NOT_FOUND: Status = Status(404);
    /// 413 Payload Too Large — a declared body over the server's limit.
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    /// 431 Request Header Fields Too Large — a request head over the
    /// server's limit (including a slowloris head that never completes).
    pub const HEADER_TOO_LARGE: Status = Status(431);
    /// 500 Internal Server Error.
    pub const INTERNAL: Status = Status(500);
    /// 503 Service Unavailable — the load-shed reply; carries Retry-After.
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request-target: absolute path plus optional query (`/poll?hmac=..`).
    pub target: String,
    /// Header fields.
    pub headers: HeaderMap,
    /// Entity body (empty for GET).
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a GET request for `target`.
    pub fn get(target: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            target: target.into(),
            headers: HeaderMap::new(),
            body: Vec::new(),
        }
    }

    /// Builds a POST request with a body; sets `Content-Length` (the paper
    /// notes the snippet must set it correctly before sending, §4.2.1).
    pub fn post(target: impl Into<String>, body: Vec<u8>) -> Request {
        let mut headers = HeaderMap::new();
        headers.set("Content-Length", body.len().to_string());
        Request {
            method: Method::Post,
            target: target.into(),
            headers,
            body,
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// The path component of the target (before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The query component of the target (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Decoded query parameters.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        self.query()
            .map(rcb_url::percent::parse_query)
            .unwrap_or_default()
    }

    /// First query parameter named `name`, decoded as
    /// [`Request::query_pairs`] decodes it. Only that pair is decoded: a
    /// key without escapes is compared as it stands.
    pub fn query_param(&self, name: &str) -> Option<String> {
        use rcb_url::percent::decode_form;
        self.query()?
            .split('&')
            .filter(|pair| !pair.is_empty())
            .find_map(|pair| {
                let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
                let matches = if key.contains(['%', '+']) {
                    decode_form(key) == name
                } else {
                    key == name
                };
                matches.then(|| decode_form(value))
            })
    }

    /// Total serialized size in bytes (the unit the network simulator
    /// charges for): the head as serialized, plus the body, uncopied.
    pub fn wire_len(&self) -> usize {
        crate::serialize::serialize_request_head(self).len() + self.body.len()
    }

    /// Whether the client asked the server to close the connection after
    /// this request (`Connection: close`). Both server backends consult
    /// this before dispatching, so the response is still delivered.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Parses a cookie header into `(name, value)` pairs.
    pub fn cookies(&self) -> Vec<(String, String)> {
        self.headers
            .get("cookie")
            .map(|h| {
                h.split(';')
                    .filter_map(|kv| {
                        let (k, v) = kv.trim().split_once('=')?;
                        Some((k.to_string(), v.to_string()))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A response entity body: either bytes owned by this response, or a
/// reference-counted slice shared with other responses.
///
/// The paper's scalability claim (§5.1.2) rests on generated content being
/// "reusable for multiple participant browsers"; `Shared` makes that reuse
/// literal on the wire — every response for one content generation holds
/// the same `Arc<[u8]>`, and the server writes it to the socket without
/// ever materializing a per-request copy.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response alone.
    Owned(Vec<u8>),
    /// Bytes shared across responses (cloning the body clones a pointer).
    Shared(Arc<[u8]>),
}

impl Body {
    /// An empty owned body.
    pub fn empty() -> Body {
        Body::Owned(Vec::new())
    }

    /// The body bytes, whichever representation holds them.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Bytes that a clone of this body would heap-copy: the full length
    /// for `Owned`, zero for `Shared` (an `Arc` clone is a pointer bump).
    /// Instrumentation hooks use this to count per-request copy cost.
    pub fn copied_len(&self) -> usize {
        match self {
            Body::Owned(v) => v.len(),
            Body::Shared(_) => 0,
        }
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(a: Arc<[u8]>) -> Body {
        Body::Shared(a)
    }
}

impl From<&[u8]> for Body {
    fn from(s: &[u8]) -> Body {
        Body::Owned(s.to_vec())
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Owned(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::Owned(s.as_bytes().to_vec())
    }
}

/// Converting a body into a shared slice is free for `Shared` (the `Arc`
/// moves) and one copy for `Owned` — so storing a downloaded response into
/// a browser cache that keeps `Arc<[u8]>` never double-copies.
impl From<Body> for Arc<[u8]> {
    fn from(b: Body) -> Arc<[u8]> {
        match b {
            Body::Owned(v) => Arc::from(v),
            Body::Shared(a) => a,
        }
    }
}

/// Bodies compare by bytes, not by representation: `Owned` and `Shared`
/// holding the same bytes are equal (they serialize identically).
impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Body {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Header fields.
    pub headers: HeaderMap,
    /// Entity body.
    pub body: Body,
    /// Frozen head: the status line and headers, serialized once — by
    /// [`Response::into_prefab`], or by the server write path for a
    /// response that was never frozen. The body is never part of it, so
    /// a frozen response holds one copy of its body bytes, not two.
    /// Invariant: the bytes match `status` and `headers` exactly —
    /// [`Response::with_header`] drops the frozen head on mutation. Not
    /// part of equality (a parsed copy of a prefab response equals the
    /// original).
    head: Option<Arc<[u8]>>,
}

/// Responses compare by status, headers, and body bytes; the frozen head
/// is a serialization detail and never affects equality.
impl PartialEq for Response {
    fn eq(&self, other: &Self) -> bool {
        self.status == other.status && self.headers == other.headers && self.body == other.body
    }
}

impl Eq for Response {}

impl Response {
    /// Builds a response with a typed body and correct `Content-Length`.
    pub fn with_body(status: Status, content_type: &str, body: impl Into<Body>) -> Response {
        let body = body.into();
        let mut headers = HeaderMap::new();
        headers.set("Content-Type", content_type);
        headers.set("Content-Length", body.len().to_string());
        Response {
            status,
            headers,
            body,
            head: None,
        }
    }

    /// Assembles a response from already-parsed parts (no prefab).
    pub fn from_parts(status: Status, headers: HeaderMap, body: impl Into<Body>) -> Response {
        Response {
            status,
            headers,
            body: body.into(),
            head: None,
        }
    }

    /// A `text/html` 200 response — the initial-page reply (Fig. 2).
    pub fn html(body: impl Into<Body>) -> Response {
        Response::with_body(Status::OK, "text/html; charset=utf-8", body)
    }

    /// An `application/xml` 200 response — the newContent reply (Fig. 2).
    pub fn xml(body: impl Into<Body>) -> Response {
        Response::with_body(Status::OK, "application/xml; charset=utf-8", body)
    }

    /// An empty-content 200 response — "if no new content needs to be sent
    /// back, RCB-Agent sends a response with empty content ... to avoid
    /// hanging requests" (§4.1.1).
    pub fn empty_ok() -> Response {
        Response::with_body(Status::OK, "application/xml; charset=utf-8", Body::empty())
    }

    /// An error response with a plain-text body.
    pub fn error(status: Status, detail: &str) -> Response {
        Response::with_body(status, "text/plain; charset=utf-8", detail.as_bytes())
    }

    /// Adds a header (builder style). Drops any frozen head, since its
    /// bytes no longer match the headers.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.set(name, value);
        self.head = None;
        self
    }

    /// Freezes the response into a prefab: serializes the head once and
    /// turns an owned body into a shared one, so every subsequent send
    /// (and clone) bumps `Arc`s — head, body and the copy-on-write header
    /// fields — instead of assembling a head or copying bytes. Build one
    /// per reusable response (content generation, cached object, static
    /// page, error reply) and serve clones of it.
    pub fn into_prefab(mut self) -> Response {
        self.freeze_head();
        self.body = Body::Shared(Arc::from(std::mem::take(&mut self.body)));
        self
    }

    /// Whether this response was frozen by [`Response::into_prefab`].
    pub fn is_prefab(&self) -> bool {
        self.head.is_some()
    }

    /// The serialized head (status line, headers, blank line): the frozen
    /// bytes, or assembled now for a response that was never frozen.
    pub fn head(&self) -> Cow<'_, [u8]> {
        match &self.head {
            Some(head) => Cow::Borrowed(head),
            None => Cow::Owned(crate::serialize::serialize_response_head(self)),
        }
    }

    /// Serializes the head once, unless it is frozen already. The body is
    /// left as it is: the server write path freezes every head so that
    /// one vectored write sends head and body, and only
    /// [`Response::into_prefab`] also shares the body.
    pub(crate) fn freeze_head(&mut self) {
        if self.head.is_none() {
            self.head = Some(Arc::from(crate::serialize::serialize_response_head(self)));
        }
    }

    /// The `Retry-After` header as delta-seconds, if present and numeric.
    /// The load-shed `503` carries this; clients feed it into their
    /// backoff so a shed storm converges instead of amplifying.
    pub fn retry_after(&self) -> Option<u64> {
        self.headers.get("retry-after")?.trim().parse().ok()
    }

    /// The `Content-Type` without parameters, lower-cased.
    pub fn content_type(&self) -> Option<String> {
        self.headers.get("content-type").map(|v| {
            v.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase()
        })
    }

    /// Total serialized size in bytes: the head plus the body — the body
    /// is never copied.
    pub fn wire_len(&self) -> usize {
        self.head().len() + self.body.len()
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        utf8_lossy(&self.body).into_owned()
    }
}

/// `bytes` as text: borrowed when they are valid UTF-8, converted lossily
/// only when they are not. `str::from_utf8` validates ASCII-heavy bodies
/// several times faster than `String::from_utf8_lossy` does.
pub fn utf8_lossy(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tokens() {
        assert_eq!(Method::parse("GET").unwrap(), Method::Get);
        assert_eq!(Method::parse("POST").unwrap(), Method::Post);
        assert!(Method::parse("DELETE").is_err());
        assert_eq!(Method::Post.to_string(), "POST");
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Status::OK.reason(), "OK");
        assert_eq!(Status::NOT_FOUND.reason(), "Not Found");
        assert!(Status::OK.is_success());
        assert!(!Status::NOT_FOUND.is_success());
    }

    #[test]
    fn request_target_decomposition() {
        let r = Request::get("/poll?hmac=abc&t=5");
        assert_eq!(r.path(), "/poll");
        assert_eq!(r.query(), Some("hmac=abc&t=5"));
        assert_eq!(r.query_param("hmac").as_deref(), Some("abc"));
        assert_eq!(r.query_param("t").as_deref(), Some("5"));
        assert_eq!(r.query_param("missing"), None);
    }

    /// `query_param` decodes one pair; `query_pairs` decodes them all.
    /// Both must find the same first match with the same value.
    #[test]
    fn query_param_matches_the_first_decoded_pair() {
        let targets = [
            "/s/0123456789abcdef/poll?p=17&hmac=00ff",
            "/poll?p=1&p=2&lp=25000&d=1",
            "/poll?%70=encoded&p=plain",
            "/poll?a+b=plus&a%20b=escape&a b=space",
            "/poll?p&p=later&&=empty-key&q=",
            "/poll?k=%2B%2b+%zz%4&k=second",
            "/poll?%C3%A9=%C3%A9&%C3=%FF&+=x",
            "/poll?p=a=b=c&%=%&%%=%%",
            "/poll?",
            "/poll",
        ];
        let names = [
            "p", "lp", "d", "hmac", "k", "q", "a b", "a+b", "", "é", "\u{fffd}", " ", "%", "%%",
            "missing",
        ];
        for target in targets {
            let r = Request::get(target);
            let pairs = r.query_pairs();
            for name in names {
                let reference = pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                assert_eq!(r.query_param(name).as_ref(), reference, "{target} {name:?}");
            }
        }
    }

    #[test]
    fn post_sets_content_length() {
        let r = Request::post("/poll", b"a=1".to_vec());
        assert_eq!(r.headers.content_length().unwrap(), Some(3));
    }

    #[test]
    fn cookies_parse() {
        let r = Request::get("/").with_header("Cookie", "sid=xyz; theme=dark");
        assert_eq!(
            r.cookies(),
            vec![
                ("sid".to_string(), "xyz".to_string()),
                ("theme".to_string(), "dark".to_string())
            ]
        );
        assert!(Request::get("/").cookies().is_empty());
    }

    #[test]
    fn response_constructors() {
        let r = Response::html("<html></html>");
        assert_eq!(r.content_type().as_deref(), Some("text/html"));
        assert_eq!(r.headers.content_length().unwrap(), Some(13));
        let x = Response::xml("<a/>");
        assert_eq!(x.content_type().as_deref(), Some("application/xml"));
        let e = Response::empty_ok();
        assert!(e.body.is_empty());
        assert!(e.status.is_success());
    }

    #[test]
    fn wire_len_is_positive() {
        assert!(Request::get("/").wire_len() > 10);
        assert!(Response::empty_ok().wire_len() > 10);
    }

    #[test]
    fn wire_len_equals_the_serialized_length() {
        use crate::serialize::{serialize_request, serialize_response};
        let body = "<newContent>中 😀</newContent>".repeat(100);
        let plain = Response::xml(body.clone()).with_header("X-RCB-MAC", "ab12");
        let prefab = Response::xml(body.clone()).into_prefab();
        let shared = Response::xml(Arc::<[u8]>::from(body.as_bytes()));
        for resp in [&plain, &prefab, &shared, &Response::empty_ok()] {
            assert_eq!(resp.wire_len(), serialize_response(resp).len());
        }
        for req in [
            Request::get("/cache/k?tok=1"),
            Request::post("/poll?p=3&lp=50&d=1", body.into_bytes()).with_header("X-A", "b"),
        ] {
            assert_eq!(req.wire_len(), serialize_request(&req).len());
        }
    }

    #[test]
    fn a_prefab_frozen_from_an_owned_body_clones_without_copying_it() {
        // The router's 404, the shed 503s and the parser's 431/413 freeze
        // error replies whose bodies start out owned.
        let shed = crate::server::ShedResponder::new(&crate::server::OverloadConfig::default());
        for prefab in [
            Response::error(Status::NOT_FOUND, "unknown session").into_prefab(),
            shed.next(),
        ] {
            assert!(prefab.is_prefab());
            let clone = prefab.clone();
            assert_eq!(clone.body.copied_len(), 0, "body is shared");
            assert_eq!(clone.body.as_ptr(), prefab.body.as_ptr());
        }
    }

    #[test]
    fn text_is_borrowed_when_valid_and_lossy_when_not() {
        assert!(matches!(
            utf8_lossy("café".as_bytes()),
            Cow::Borrowed("café")
        ));
        assert_eq!(utf8_lossy(b"a\xFFb"), "a\u{FFFD}b");
        assert_eq!(Response::xml(&b"x\xC3"[..]).body_str(), "x\u{FFFD}");
    }
}
