//! A blocking HTTP client: response framing and a plain keep-alive
//! connection.
//!
//! Plays the role of the participant browser's network layer in the
//! real-socket deployment: connect, send one request, read the
//! `Content-Length`-framed response (`Content-Length` is the only framing;
//! a `Transfer-Encoding` is an error). The framing logic is shared with
//! the nonblocking world-sim participants through [`try_parse_response`];
//! [`HttpConnection`] is the persistent keep-alive client over a kernel
//! TCP socket, with a read timeout its caller may set. What a participant
//! does with a reply — including waiting out a `503` — is the
//! participant protocol's, in `rcb-core`, not this module's.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rcb_util::{RcbError, Result};

use crate::message::{Request, Response};
use crate::parse::{body_length, find_double_crlf, parse_response, parse_response_head};
use crate::serialize::serialize_request;

/// How long a blocking read waits for response bytes before erroring,
/// when the caller doesn't say otherwise ([`send_request`],
/// [`HttpConnection::connect`]).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Sends a single request to `addr` (`host:port`) on a fresh connection,
/// waiting up to [`DEFAULT_READ_TIMEOUT`] for the response.
pub fn send_request(addr: &str, req: &Request) -> Result<Response> {
    HttpConnection::connect(addr)?.round_trip(req)
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
    let (status, headers) = parse_response_head(&buf[..head_end])?;
    // Saturating: a declared length past memory is never complete.
    let total = (head_end + 4).saturating_add(body_length(&headers)?.unwrap_or(0));
    let Some(body) = buf.get(head_end + 4..total) else {
        return Ok(None);
    };
    let resp = Response::from_parts(status, headers, body.to_vec());
    Ok(Some((resp, total)))
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
/// (at most 1 MiB before the bytes arrive): the bytes that arrived with
/// the head are copied into it, the rest is read straight into it, and it
/// becomes the response body as it is. A malformed or conflicting
/// Content-Length is a hard error, as in [`try_parse_response`].
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
    let declared = body_length(&headers)?.unwrap_or(0);
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
        HttpConnection::connect_with_read_timeout(addr, DEFAULT_READ_TIMEOUT)
    }

    /// [`HttpConnection::connect`] with an explicit read timeout.
    pub fn connect_with_read_timeout(addr: &str, read_timeout: Duration) -> Result<HttpConnection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(HttpConnection { stream })
    }

    /// Sends `req` and reads the response.
    pub fn round_trip(&mut self, req: &Request) -> Result<Response> {
        self.stream.write_all(&serialize_request(req))?;
        self.stream.flush()?;
        read_response(&mut self.stream)
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
    fn a_declared_length_past_memory_is_never_complete() {
        // The length comes from the peer: adding the head to it must not
        // overflow (a panic in debug builds, a wrapped frame in release).
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\nab",
            usize::MAX
        );
        assert!(try_parse_response(wire.as_bytes()).unwrap().is_none());
    }

    #[test]
    fn transfer_encoding_is_an_error_on_every_framer() {
        // Nothing in the workspace sends it: Content-Length is the only
        // framing, so a chunked reply is refused, never half-read.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        for err in [
            parse_response(wire).unwrap_err(),
            read_in_steps(wire, 7).unwrap_err(),
            try_parse_response(wire).unwrap_err(),
        ] {
            assert!(err.to_string().contains("Transfer-Encoding"), "{err}");
        }
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
