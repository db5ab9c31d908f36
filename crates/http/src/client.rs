//! A blocking HTTP client.
//!
//! Plays the role of the participant browser's network layer in the
//! real-socket deployment: connect, send one request, read the
//! `Content-Length`-framed response. The framing logic is shared with the
//! nonblocking world-sim participants through [`try_parse_response`];
//! [`HttpConnection`] is the persistent keep-alive client over a kernel
//! TCP socket.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rcb_util::{DetRng, RcbError, Result};

use crate::message::{Request, Response, Status};
use crate::parse::{
    decode_chunked, find_double_crlf, is_chunked, parse_response, parse_response_head,
};
use crate::serialize::serialize_request;

/// How long a blocking read waits for response bytes before erroring,
/// when the caller doesn't say otherwise. The one knob behind every
/// client entry point (`send_request`, [`HttpConnection::connect`]).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything a client entry point can be configured with, in one
/// struct: the read timeout and an optional shed-retry policy. This is
/// the single configuration surface: every entry point takes it (the
/// `_opts` variants) or its default.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// How long a blocking read waits for response bytes before erroring.
    pub read_timeout: Duration,
    /// When set, `503` sheds are retried with this policy's seeded
    /// jittered backoff ([`HttpConnection::round_trip_opts`] and
    /// [`send_request_opts`]); `None` returns sheds to the caller as-is.
    pub retry: Option<RetryPolicy>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            read_timeout: DEFAULT_READ_TIMEOUT,
            retry: None,
        }
    }
}

impl ClientOptions {
    /// The defaults with an explicit read timeout.
    pub fn with_read_timeout(read_timeout: Duration) -> ClientOptions {
        ClientOptions {
            read_timeout,
            ..ClientOptions::default()
        }
    }

    /// Adds a shed-retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> ClientOptions {
        self.retry = Some(policy);
        self
    }
}

/// Sends a single request to `addr` (`host:port`) on a fresh connection,
/// waiting up to [`DEFAULT_READ_TIMEOUT`] for the response.
pub fn send_request(addr: &str, req: &Request) -> Result<Response> {
    send_request_opts(addr, req, &mut ClientOptions::default())
}

/// [`send_request`] with explicit [`ClientOptions`] (`&mut` because a
/// configured retry policy draws from its seeded RNG).
pub fn send_request_opts(
    addr: &str,
    req: &Request,
    options: &mut ClientOptions,
) -> Result<Response> {
    HttpConnection::connect_opts(addr, options)?.round_trip_opts(req, options)
}

/// Attempts to frame-and-parse one `Content-Length`-framed response from
/// the front of `buf`. Returns `Ok(None)` while the bytes are still
/// incomplete; on success also returns how many bytes the response
/// consumed, so a keep-alive reader can drain its buffer response by
/// response. The framing length comes from the same strict header parse
/// the full response parse uses: a malformed or conflicting
/// Content-Length is a hard error here, not a silent 0 — guessing 0 would
/// return a bodyless response and desync every subsequent round trip on
/// the stream.
pub fn try_parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>> {
    let Some(head_end) = find_double_crlf(buf) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RcbError::parse("http", "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let _status_line = lines.next(); // validated by parse_response
    let headers = crate::parse::parse_header_lines(lines)?;
    let declared = headers.content_length()?.unwrap_or(0);
    let total = head_end + 4 + declared;
    if buf.len() < total {
        return Ok(None);
    }
    parse_response(&buf[..total]).map(|resp| Some((resp, total)))
}

/// The most body bytes [`read_response`] allocates before they arrive:
/// past it, the buffer grows only as the body does, so a hostile
/// Content-Length cannot make the client allocate what was never sent.
const BODY_RESERVE_LIMIT: usize = 1 << 20;

/// Reads one `Content-Length`-framed response from an open stream (any
/// `Read`, e.g. a `TcpStream`).
///
/// The head is searched for only in bytes no earlier read brought, and
/// parsed once. The body then gets one allocation of the declared length
/// (up to [`BODY_RESERVE_LIMIT`]): the bytes that arrived with the head
/// are copied into it, the rest is read straight into it, and it becomes
/// the response body as it is. A malformed or conflicting Content-Length
/// is a hard error, as in [`try_parse_response`].
pub fn read_response<R: Read>(stream: &mut R) -> Result<Response> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if head.is_empty() {
                return Err(RcbError::Io("connection closed before response".into()));
            }
            return parse_response(&head);
        }
        let searched = head.len().saturating_sub(3);
        head.extend_from_slice(&chunk[..n]);
        if let Some(at) = find_double_crlf(&head[searched..]) {
            break searched + at;
        }
    };
    let (status, headers) = parse_response_head(&head[..head_end])?;
    let declared = headers.content_length()?.unwrap_or(0);
    // The bytes after the head came with the read that ended it, so they
    // fit in one chunk, and so in the reservation.
    let early = &head[head_end + 4..];
    let mut body = vec![0u8; declared.min(BODY_RESERVE_LIMIT)];
    let mut filled = early.len().min(declared);
    body[..filled].copy_from_slice(&early[..filled]);
    while filled < declared {
        if filled == body.len() {
            body.resize(declared.min(2 * filled), 0);
        }
        match stream.read(&mut body[filled..])? {
            0 => return Err(RcbError::parse("http", "truncated response body")),
            n => filled += n,
        }
    }
    let body = if is_chunked(&headers) {
        decode_chunked(&body)?
    } else {
        body
    };
    Ok(Response::from_parts(status, headers, body))
}

/// A persistent connection that can issue multiple requests (the snippet's
/// polling loop reuses one connection when the agent allows keep-alive).
pub struct HttpConnection {
    stream: TcpStream,
}

impl HttpConnection {
    /// Connects to `addr` over real TCP with [`DEFAULT_READ_TIMEOUT`].
    pub fn connect(addr: &str) -> Result<HttpConnection> {
        HttpConnection::connect_opts(addr, &ClientOptions::default())
    }

    /// [`HttpConnection::connect`] with explicit [`ClientOptions`].
    pub fn connect_opts(addr: &str, options: &ClientOptions) -> Result<HttpConnection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(options.read_timeout))?;
        Ok(HttpConnection { stream })
    }

    /// Sends `req` and reads the response.
    pub fn round_trip(&mut self, req: &Request) -> Result<Response> {
        self.stream.write_all(&serialize_request(req))?;
        self.stream.flush()?;
        read_response(&mut self.stream)
    }

    /// [`HttpConnection::round_trip`] driven by [`ClientOptions`]: when
    /// the options carry a retry policy, `503` sheds are waited out with
    /// its seeded backoff; otherwise a plain round trip. Transport errors
    /// still surface immediately (this connection may be half-dead; the
    /// caller owns reconnects), but an overloaded server that answers
    /// with the shed prefab is waited out — so a client storm converges
    /// instead of hammering the admission gate in lockstep.
    pub fn round_trip_opts(
        &mut self,
        req: &Request,
        options: &mut ClientOptions,
    ) -> Result<Response> {
        match options.retry.as_mut() {
            Some(policy) => {
                let mut attempt = 0u32;
                loop {
                    let resp = self.round_trip(req)?;
                    if resp.status != Status::SERVICE_UNAVAILABLE || attempt >= policy.max_retries {
                        return Ok(resp);
                    }
                    let delay = policy.delay_for(attempt, resp.retry_after());
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
            None => self.round_trip(req),
        }
    }
}

/// Seeded jittered exponential backoff for shed (`503`) replies.
///
/// Deterministic given its seed: every delay is drawn from the policy's
/// own [`DetRng`], so tests replay byte-identically while distinct
/// clients (distinct seeds) still spread out after a shed storm.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry nominal delay; doubles per attempt.
    pub base: Duration,
    /// Ceiling on the nominal delay (the jitter span, and the whole
    /// delay when the server sent no `Retry-After`).
    pub max_delay: Duration,
    /// Retries before the `503` is returned to the caller as-is.
    pub max_retries: u32,
    rng: DetRng,
}

impl RetryPolicy {
    /// 100 ms base, 6.4 s cap (six doublings), 5 retries — enough for a
    /// shed storm to drain at the default `Retry-After` horizon.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(100),
            max_delay: Duration::from_millis(6400),
            max_retries: 5,
            rng: DetRng::new(seed),
        }
    }

    /// The delay before retry number `attempt` (0-based), around the
    /// nominal `base * 2^attempt` capped at `max_delay`. A server
    /// `Retry-After` is honored as a floor with additive jitter spanning
    /// the nominal delay (never retry *earlier* than the server asked,
    /// and each further shed spreads the cohort wider); otherwise half
    /// jitter (uniform in `[nominal/2, nominal]`) decorrelates clients
    /// shed in the same instant. One draw per call.
    pub fn delay_for(&mut self, attempt: u32, retry_after: Option<u64>) -> Duration {
        let nominal = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let ms = nominal.as_millis() as u64;
        match retry_after {
            Some(secs) => {
                Duration::from_secs(secs) + Duration::from_millis(self.rng.next_below(ms + 1))
            }
            None => Duration::from_millis(ms / 2 + self.rng.next_below(ms / 2 + 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;
    use crate::serialize::serialize_response;
    use crate::server::{handler_fn, Handler, HttpServer, ServerConfig};

    #[test]
    fn persistent_connection_round_trips() {
        let handler: Handler = handler_fn(|req| {
            crate::message::Response::with_body(Status::OK, "text/plain", req.body.clone())
        });
        let mut server =
            HttpServer::bind_with("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let mut conn = HttpConnection::connect(&server.addr().to_string()).unwrap();
        for i in 0..3 {
            let body = format!("ping-{i}").into_bytes();
            let resp = conn
                .round_trip(&Request::post("/echo", body.clone()))
                .unwrap();
            assert_eq!(resp.body, body);
        }
        server.shutdown();
    }

    #[test]
    fn retry_policy_is_seeded_jittered_exponential() {
        let mut a = RetryPolicy::seeded(7);
        let mut b = RetryPolicy::seeded(7);
        let da: Vec<_> = (0..4).map(|i| a.delay_for(i, None)).collect();
        let db: Vec<_> = (0..4).map(|i| b.delay_for(i, None)).collect();
        assert_eq!(da, db, "same seed, same schedule");
        for (i, d) in da.iter().enumerate() {
            let nominal = 100u64 << i;
            let ms = d.as_millis() as u64;
            assert!(
                ms >= nominal / 2 && ms <= nominal,
                "attempt {i}: {ms}ms outside [{}, {nominal}]",
                nominal / 2
            );
        }
        // Retry-After is a floor: never retry earlier than the server
        // asked, jitter only stretches it.
        let d = a.delay_for(0, Some(2));
        assert!(d >= Duration::from_secs(2));
        assert!(d <= Duration::from_secs(2) + Duration::from_millis(100));
        // Under Retry-After the jitter spans the nominal delay of the
        // attempt (800 ms at attempt 3), not one base.
        let draws: Vec<_> = (0..64).map(|_| a.delay_for(3, Some(2))).collect();
        assert!(draws
            .iter()
            .all(|d| (Duration::from_secs(2)..=Duration::from_millis(2800)).contains(d)));
        assert!(draws.iter().any(|d| *d > Duration::from_millis(2100)));
        // The nominal delay stops doubling at the 6.4 s cap.
        for _ in 0..64 {
            let d = a.delay_for(9, None);
            assert!(
                (Duration::from_millis(3200)..=Duration::from_millis(6400)).contains(&d),
                "attempt 9: {d:?} outside [3.2 s, 6.4 s]"
            );
        }
    }

    #[test]
    fn round_trip_opts_waits_out_a_shed_then_succeeds() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut discard = [0u8; 4096];
            let _ = stream.read(&mut discard);
            stream
                .write_all(
                    b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n",
                )
                .unwrap();
            let _ = stream.read(&mut discard);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
        });
        let mut conn = HttpConnection::connect(&addr).unwrap();
        let mut options = ClientOptions::default().retry(RetryPolicy::seeded(9));
        let resp = conn
            .round_trip_opts(&Request::get("/"), &mut options)
            .unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body_str(), "ok");
        server.join().unwrap();
    }

    /// A stream that hands out at most `step` bytes per `read` call.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn read_in_steps(wire: &[u8], step: usize) -> Result<Response> {
        read_response(&mut Trickle { data: wire, step })
    }

    #[test]
    fn read_response_is_the_same_one_byte_at_a_time() {
        // A 74 KB Fig.-4-sized reply, with non-ASCII in the body.
        let body = "<newContent>%3Cp%3E caf\u{e9} \u{1F600}</newContent>".repeat(1_800);
        assert!(body.len() > 74_000);
        let wire = serialize_response(&Response::xml(body).with_header("X-RCB-MAC", "00ff"));
        let whole = read_in_steps(&wire, wire.len()).unwrap();
        let trickled = read_in_steps(&wire, 1).unwrap();
        assert_eq!(trickled, whole);
        assert_eq!(whole, parse_response(&wire).unwrap());
        // The body is read no further than its declared length, so a
        // response right behind it stays in the stream.
        let mut two = wire.clone();
        two.extend_from_slice(&wire);
        let mut stream = Trickle {
            data: &two,
            step: 4096,
        };
        assert_eq!(read_response(&mut stream).unwrap(), whole);
        assert_eq!(read_response(&mut stream).unwrap(), whole);
    }

    #[test]
    fn read_response_grows_past_the_reservation_as_bytes_arrive() {
        let body = vec![b'x'; 2 * BODY_RESERVE_LIMIT + 17];
        let wire = serialize_response(&Response::with_body(Status::OK, "text/plain", body));
        assert_eq!(
            read_in_steps(&wire, 64 * 1024).unwrap(),
            parse_response(&wire).unwrap()
        );
    }

    #[test]
    fn read_response_rejects_short_or_empty_streams() {
        let wire = serialize_response(&Response::xml("<a/>"));
        let err = |wire: &[u8]| read_in_steps(wire, 3).unwrap_err().to_string();
        assert!(err(&wire[..wire.len() - 1]).contains("truncated response body"));
        assert!(err(&wire[..10]).contains("incomplete response head"));
        assert!(err(b"").contains("connection closed before response"));
        assert!(err(b"HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\n").contains("Content-Length"));
        assert!(err(b"HTTX/1.1 200 OK\r\n\r\n").contains("bad version"));
    }

    #[test]
    fn malformed_response_content_length_is_a_parse_error() {
        // A raw listener playing a broken origin: each canned response
        // has a Content-Length the client must reject outright (the old
        // code treated all of these as 0 and returned a bodyless
        // response, desyncing the stream).
        for raw in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: nan\r\n\r\nhello"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!"[..],
        ] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut discard = [0u8; 4096];
                let _ = stream.read(&mut discard);
                stream.write_all(raw).unwrap();
            });
            let err = send_request(&addr, &Request::get("/"));
            assert!(err.is_err(), "{:?}", String::from_utf8_lossy(raw));
            server.join().unwrap();
        }
    }
}
