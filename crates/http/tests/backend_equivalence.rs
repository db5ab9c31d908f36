//! Backend-equivalence suite: the worker-pool, single-loop epoll, and
//! sharded epoll backends must be observationally identical behind the
//! same `Handler`.
//!
//! Every scenario runs the same request corpus against the full backend
//! matrix and asserts **byte-identical** wire output (responses carry no
//! nondeterministic headers, so the full byte stream must match) and
//! identical handler-invocation stats. Scenarios cover the protocol
//! corners where an event-loop rewrite most plausibly diverges:
//! pipelined keep-alive bursts, partial writes forced through tiny socket
//! buffers, malformed requests, `Connection: close`, and mid-request
//! disconnects — plus a sharded-only scenario holding keep-alive
//! connections across every shard and proving responses never interleave
//! across connections.
//!
//! On targets without the epoll shims the suite degrades to exercising
//! the workers backend against itself (the harness still runs; the
//! cross-backend assertions become trivial).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rcb_http::server::{
    handler_fn, Handler, HandlerOutcome, HttpServer, Park, ParkChannel, ParkHub, ServerBackend,
    ServerConfig, EPOLL_SUPPORTED,
};
use rcb_http::{Body, Request, Response, Status};

/// Shard count the matrix pins for the sharded leg: explicit (not auto),
/// so coverage is identical on single-core CI machines and laptops.
const MATRIX_SHARDS: usize = 2;

/// The backends under test on this target.
fn backends() -> Vec<ServerBackend> {
    if EPOLL_SUPPORTED {
        vec![
            ServerBackend::Workers,
            ServerBackend::EpollSharded(1),
            ServerBackend::EpollSharded(MATRIX_SHARDS),
        ]
    } else {
        vec![ServerBackend::Workers]
    }
}

/// Per-run handler instrumentation: the "stats" half of the equivalence
/// contract.
#[derive(Default)]
struct HandlerStats {
    calls: AtomicU64,
    body_bytes_in: AtomicU64,
}

/// A deterministic handler covering the response shapes the real agent
/// serves: small owned bodies, large `Arc`-shared bodies, prefab wire
/// images, and error statuses.
fn corpus_handler(stats: Arc<HandlerStats>, big: Arc<[u8]>) -> Handler {
    let prefab = Response::xml("<prefab>frozen</prefab>").into_prefab();
    handler_fn(move |req: Request| {
        stats.calls.fetch_add(1, Ordering::Relaxed);
        stats
            .body_bytes_in
            .fetch_add(req.body.len() as u64, Ordering::Relaxed);
        match req.path() {
            "/echo" => Response::with_body(
                Status::OK,
                "text/plain",
                format!("{} {} {}", req.method, req.target, req.body.len()).into_bytes(),
            ),
            "/big" => Response::with_body(
                Status::OK,
                "application/octet-stream",
                Body::Shared(Arc::clone(&big)),
            ),
            "/prefab" => prefab.clone(),
            "/missing" => Response::error(Status::NOT_FOUND, "nope"),
            other => Response::error(Status::BAD_REQUEST, other),
        }
    })
}

struct Run {
    server: HttpServer,
    stats: Arc<HandlerStats>,
}

fn start(backend: ServerBackend, workers: usize, big: &Arc<[u8]>) -> Run {
    let stats = Arc::new(HandlerStats::default());
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        corpus_handler(Arc::clone(&stats), Arc::clone(big)),
        ServerConfig {
            backend,
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    Run { server, stats }
}

/// Runs `scenario` once per backend and asserts the returned wire bytes
/// and handler stats agree across all backends.
fn assert_equivalent(
    workers: usize,
    big_len: usize,
    scenario: impl Fn(&str) -> Vec<u8>,
) -> Vec<u8> {
    let big: Arc<[u8]> = (0..big_len).map(|i| (i % 251) as u8).collect();
    let mut reference: Option<(ServerBackend, Vec<u8>, u64, u64)> = None;
    for backend in backends() {
        let mut run = start(backend, workers, &big);
        let wire = scenario(&run.server.addr().to_string());
        let calls = run.stats.calls.load(Ordering::Relaxed);
        let bytes_in = run.stats.body_bytes_in.load(Ordering::Relaxed);
        run.server.shutdown();
        match &reference {
            None => reference = Some((backend, wire, calls, bytes_in)),
            Some((ref_backend, ref_wire, ref_calls, ref_bytes)) => {
                assert_eq!(
                    &wire, ref_wire,
                    "wire bytes diverge: {backend} vs {ref_backend}"
                );
                assert_eq!(
                    calls, *ref_calls,
                    "handler call count diverges: {backend} vs {ref_backend}"
                );
                assert_eq!(
                    bytes_in, *ref_bytes,
                    "handler body-bytes diverge: {backend} vs {ref_backend}"
                );
            }
        }
    }
    reference.expect("at least one backend").1
}

#[test]
fn pipelined_keepalive_corpus_is_byte_identical() {
    let wire = assert_equivalent(4, 1024, |addr| {
        let corpus = [
            Request::get("/echo?case=1"),
            Request::post("/echo", b"alpha-beta".to_vec()),
            Request::get("/prefab"),
            Request::get("/missing"),
            Request::post("/echo", vec![b'x'; 4096]),
            Request::get("/unknown/path"),
        ];
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // One burst: all six requests hit the socket before the first
        // response is read — the pipelining path must answer in order.
        let mut burst = Vec::new();
        for req in &corpus {
            burst.extend_from_slice(&rcb_http::serialize::serialize_request(req));
        }
        stream.write_all(&burst).unwrap();
        // Responses are Content-Length framed: read exactly the corpus's
        // worth, bodies included.
        read_n_frames(&mut stream, corpus.len())
    });
    // Sanity on the shared reference stream: six responses, in order.
    let text = String::from_utf8_lossy(&wire);
    assert_eq!(text.matches("HTTP/1.1").count(), 6);
    assert!(text.contains("GET /echo?case=1 0"));
    assert!(text.contains("POST /echo 10"));
    assert!(text.contains("<prefab>frozen</prefab>"));
    assert!(text.contains("404 Not Found"));
    assert!(text.contains("POST /echo 4096"));
}

#[test]
fn partial_writes_through_tiny_buffers_are_byte_identical() {
    // A 4 MB shared body with the client's receive window shrunk far
    // below it: the server's nonblocking write hits `EWOULDBLOCK`
    // mid-body and must resume from the exact byte (the workers backend
    // blocks in the kernel instead — same bytes either way). The
    // tiny-buffer knob goes through the libc-free `setsockopt` shim.
    // (64 KB, not the 4 KB floor: windows below the delayed-ACK
    // threshold turn loopback into a 40 ms-per-segment crawl without
    // making the partial writes any more partial.)
    const BIG: usize = 4 << 20;
    let wire = assert_equivalent(2, BIG, |addr| {
        let stream = TcpStream::connect(addr).unwrap();
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            use std::os::fd::AsRawFd;
            rcb_util::sys::set_recv_buffer(stream.as_raw_fd(), 64 * 1024).unwrap();
        }
        let mut stream = stream;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/big",
            )))
            .unwrap();
        // Drain slowly in small chunks so the socket stays clogged and
        // the server keeps resuming the same response.
        let mut out = Vec::new();
        let mut chunk = [0u8; 8 * 1024];
        loop {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed mid-body at {} bytes", out.len());
            out.extend_from_slice(&chunk[..n]);
            if out.len() >= BIG {
                // Head parsed below; body length known.
                let head_end = out
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .expect("head complete")
                    + 4;
                if out.len() >= head_end + BIG {
                    break;
                }
            }
        }
        out
    });
    // The body survived the partial-write gauntlet intact.
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let body = &wire[head_end..];
    assert_eq!(body.len(), BIG);
    assert!(body.iter().enumerate().all(|(i, b)| *b == (i % 251) as u8));
}

#[test]
fn malformed_requests_get_identical_400_and_close() {
    for garbage in [
        &b"NONSENSE\r\n\r\n"[..],
        &b"GET / HTTP/2\r\n\r\n"[..],
        &b"GET x HTTP/1.1\r\n\r\n"[..],
        &b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n"[..],
    ] {
        let wire = assert_equivalent(2, 16, |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(garbage).unwrap();
            let mut out = Vec::new();
            stream.read_to_end(&mut out).unwrap(); // server closes after 400
            out
        });
        let text = String::from_utf8_lossy(&wire);
        assert!(
            text.starts_with("HTTP/1.1 400"),
            "expected 400 for {garbage:?}, got {text:?}"
        );
    }
}

#[test]
fn good_then_malformed_pipelined_serves_good_first() {
    // A valid request followed by garbage on the same connection: the
    // valid one is answered, then the 400, then close — in that order on
    // both backends.
    let wire = assert_equivalent(2, 16, |addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut burst = rcb_http::serialize::serialize_request(&Request::get("/echo"));
        burst.extend_from_slice(b"GARBAGE\r\n\r\n");
        stream.write_all(&burst).unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        out
    });
    let text = String::from_utf8_lossy(&wire);
    let ok_at = text.find("HTTP/1.1 200").expect("200 first");
    let bad_at = text.find("HTTP/1.1 400").expect("400 second");
    assert!(ok_at < bad_at);
}

#[test]
fn connection_close_is_honored_identically() {
    let wire = assert_equivalent(2, 16, |addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let req = Request::get("/echo").with_header("Connection", "close");
        stream
            .write_all(&rcb_http::serialize::serialize_request(&req))
            .unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap(); // EOF proves the close
        out
    });
    assert!(String::from_utf8_lossy(&wire).starts_with("HTTP/1.1 200"));
}

#[test]
fn mid_request_disconnect_leaves_identical_stats() {
    // A client abandons a request halfway (head promised 100 body bytes,
    // sent 7); the handler must never see it, and the server keeps
    // serving. The follow-up request proves liveness and contributes the
    // only handler call.
    let wire = assert_equivalent(2, 16, |addr| {
        {
            let mut dying = TcpStream::connect(addr).unwrap();
            dying
                .write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
                .unwrap();
        } // dropped mid-request
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/echo?after=disconnect",
            )))
            .unwrap();
        let resp = rcb_http::client::read_response(&mut stream).unwrap();
        rcb_http::serialize::serialize_response(&resp)
    });
    assert!(String::from_utf8_lossy(&wire).contains("GET /echo?after=disconnect"));
}

#[test]
fn keepalive_interleaved_across_many_connections() {
    // 24 persistent connections, 3 requests each, interleaved round-robin
    // on a 2-thread pool: ordering within a connection must hold on both
    // backends, and every byte stream must agree.
    let wire = assert_equivalent(2, 16, |addr| {
        let mut conns: Vec<TcpStream> = (0..24)
            .map(|_| {
                let s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                s
            })
            .collect();
        let mut out = Vec::new();
        for round in 0..3 {
            for (i, conn) in conns.iter_mut().enumerate() {
                let req = Request::get(format!("/echo?c={i}&r={round}"));
                conn.write_all(&rcb_http::serialize::serialize_request(&req))
                    .unwrap();
                let resp = rcb_http::client::read_response(conn).unwrap();
                out.extend_from_slice(&rcb_http::serialize::serialize_response(&resp));
            }
        }
        out
    });
    assert_eq!(
        String::from_utf8_lossy(&wire)
            .matches("HTTP/1.1 200")
            .count(),
        72
    );
}

#[test]
fn big_responses_across_kept_alive_connection() {
    // Large shared-body responses back to back on one connection: the
    // write cursor must reset cleanly between responses.
    const BIG: usize = 256 << 10;
    let wire = assert_equivalent(2, BIG, |addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            stream
                .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                    "/big",
                )))
                .unwrap();
            let resp = rcb_http::client::read_response(&mut stream).unwrap();
            assert_eq!(resp.body.len(), BIG);
            out.extend_from_slice(&rcb_http::serialize::serialize_response(&resp));
        }
        out
    });
    assert_eq!(wire.len() % 3, 0);
}

#[test]
fn epoll_holds_hundreds_of_connections_on_tiny_pool() {
    // The capability the workers backend cannot offer: 300 simultaneous
    // keep-alive connections on a 2-thread dispatch pool. Epoll-only (on
    // the workers backend 300 idle connections each cost a 2 ms rotation
    // pass, which is the motivation for the event loop, not a bug). Both
    // epoll variants must offer it — sharding may not shrink the ceiling.
    if !EPOLL_SUPPORTED {
        return;
    }
    for backend in [
        ServerBackend::EpollSharded(1),
        ServerBackend::EpollSharded(MATRIX_SHARDS),
    ] {
        let big: Arc<[u8]> = Arc::from(&b"tiny"[..]);
        let mut run = start(backend, 2, &big);
        let addr = run.server.addr().to_string();
        let mut conns: Vec<TcpStream> = (0..300)
            .map(|_| {
                let s = TcpStream::connect(&addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                s
            })
            .collect();
        for round in 0..2 {
            for (i, conn) in conns.iter_mut().enumerate() {
                let req = Request::get(format!("/echo?conn={i}&round={round}"));
                conn.write_all(&rcb_http::serialize::serialize_request(&req))
                    .unwrap();
                let resp = rcb_http::client::read_response(conn).unwrap();
                assert_eq!(
                    resp.body_str(),
                    format!("GET /echo?conn={i}&round={round} 0"),
                    "{backend}"
                );
            }
        }
        assert_eq!(run.stats.calls.load(Ordering::Relaxed), 600, "{backend}");
        run.server.shutdown();
    }
}

#[test]
fn sharded_responses_never_interleave_across_connections() {
    // The cross-shard ordering contract: with connections spread over
    // every shard and requests pipelined on all of them at once, each
    // connection's byte stream must contain exactly its own responses, in
    // its own request order — nothing from a sibling connection on the
    // same shard, nothing from another shard.
    if !EPOLL_SUPPORTED {
        return;
    }
    const SHARDS: usize = 3;
    const CONNS: usize = 6 * SHARDS; // ≥ 4×shards, two per shard per round
    const ROUNDS: usize = 3;
    let big: Arc<[u8]> = (0..512usize).map(|i| (i % 251) as u8).collect();
    let mut run = start(ServerBackend::EpollSharded(SHARDS), 2, &big);
    let addr = run.server.addr().to_string();

    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();

    // Per round: pipeline two tagged requests on *every* connection
    // before reading a single response, so all shards hold in-flight
    // pipelines simultaneously; then drain each connection and check its
    // stream carries exactly its own tags, in order.
    for round in 0..ROUNDS {
        for (i, conn) in conns.iter_mut().enumerate() {
            let mut burst = Vec::new();
            for k in 0..2 {
                let req = Request::get(format!("/echo?c={i}&r={round}&k={k}"));
                burst.extend_from_slice(&rcb_http::serialize::serialize_request(&req));
            }
            conn.write_all(&burst).unwrap();
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let wire = read_n_frames(conn, 2);
            let mut rest = wire.as_slice();
            for k in 0..2 {
                let (resp, used) = rcb_http::client::try_parse_response(rest)
                    .unwrap()
                    .expect("a whole frame");
                rest = &rest[used..];
                assert_eq!(
                    resp.body_str(),
                    format!("GET /echo?c={i}&r={round}&k={k} 0"),
                    "connection {i} received a response that is not its own"
                );
            }
        }
    }

    // Round-robin distribution is deterministic: every shard carries an
    // equal slice of the connections, so the pipelines above really ran
    // on all three loops.
    let stats = run.server.stats();
    assert_eq!(stats.shards, SHARDS);
    assert_eq!(stats.connections_accepted, CONNS as u64);
    assert_eq!(
        stats.connections_per_shard,
        vec![(CONNS / SHARDS) as u64; SHARDS]
    );
    assert_eq!(
        run.stats.calls.load(Ordering::Relaxed),
        (CONNS * ROUNDS * 2) as u64
    );
    run.server.shutdown();
}

/// A handler for the park scenarios: `/wait` parks on key 0 until the
/// run's hub publishes on `channel` (waking to a prefab update) or
/// `max_wait` elapses (falling back to a prefab empty reply,
/// byte-identical to `/empty`); everything else echoes.
fn park_handler(channel: Arc<ParkChannel>, max_wait: Duration) -> Handler {
    let update = Response::xml("<update>fresh</update>").into_prefab();
    let empty = Response::xml("").into_prefab();
    Arc::new(move |req: Request| {
        if req.path() == "/wait" {
            let update = update.clone();
            let empty = empty.clone();
            return HandlerOutcome::Park(Park {
                channel: Arc::clone(&channel),
                wait_key: 0,
                max_wait,
                on_wake: Box::new(move || update),
                on_timeout: Box::new(move || empty),
            });
        }
        if req.path() == "/empty" {
            return empty.clone().into();
        }
        Response::with_body(Status::OK, "text/plain", req.target.into_bytes()).into()
    })
}

/// Reads exactly `n` Content-Length-framed responses off one stream,
/// frame-accurate (a pipelined peer may deliver several responses in one
/// read; `client::read_response` would discard the surplus).
fn read_n_frames(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::new();
    let mut frames = 0;
    let mut consumed = 0;
    let mut chunk = [0u8; 16 * 1024];
    while frames < n {
        while let Some(head_end) = buf[consumed..].windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[consumed..consumed + head_end]).to_string();
            let declared = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse::<usize>().ok())?
                })
                .unwrap_or(0);
            let total = consumed + head_end + 4 + declared;
            if buf.len() < total {
                break;
            }
            consumed = total;
            frames += 1;
            if frames == n {
                buf.truncate(consumed);
                return buf;
            }
        }
        let got = stream.read(&mut chunk).unwrap();
        assert!(got > 0, "server closed mid-stream");
        buf.extend_from_slice(&chunk[..got]);
    }
    buf
}

#[test]
fn parked_poll_wake_is_byte_identical_across_backends() {
    // The parked long-poll contract: `/wait` is held open with no
    // dispatch slot consumed; a publish on the run's hub completes it
    // from the fresh prefab. A second request pipelined *behind* the
    // parked one must still be answered after it (order preserved), and
    // the full two-response byte stream must agree across all backends.
    let mut reference: Option<(ServerBackend, Vec<u8>)> = None;
    for backend in backends() {
        let hub = Arc::new(ParkHub::default());
        let channel = Arc::new(ParkChannel::default());
        let mut server = HttpServer::bind_with(
            "127.0.0.1:0",
            park_handler(Arc::clone(&channel), Duration::from_secs(5)),
            ServerConfig {
                backend,
                workers: 2,
                park_hub: Arc::clone(&hub),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut burst = rcb_http::serialize::serialize_request(&Request::get("/wait"));
            burst.extend_from_slice(&rcb_http::serialize::serialize_request(&Request::get(
                "/echo",
            )));
            stream.write_all(&burst).unwrap();
            read_n_frames(&mut stream, 2)
        });
        std::thread::sleep(Duration::from_millis(120));
        hub.publish(&channel, 1);
        let wire = client.join().unwrap();
        server.shutdown();
        let text = String::from_utf8_lossy(&wire);
        let wake_at = text.find("<update>fresh</update>").expect("woken reply");
        let echo_at = text.find("\r\n\r\n/echo").expect("pipelined reply");
        assert!(
            wake_at < echo_at,
            "{backend}: pipelined response overtook the parked one"
        );
        match &reference {
            None => reference = Some((backend, wire)),
            Some((ref_backend, ref_wire)) => assert_eq!(
                &wire, ref_wire,
                "woken wire bytes diverge: {backend} vs {ref_backend}"
            ),
        }
    }
}

#[test]
fn woken_delta_and_fallback_replies_are_byte_identical_across_backends() {
    use rcb_http::{parse_batch_parts, BATCH_CONTENT_TYPE, BATCH_MEDIA_TYPE};
    use std::io::Write as _;

    // The delta wake path exactly as the agent drives it at this seam:
    // the on_wake closure picks between a prefab multipart batch (delta
    // + inlined object) and the prefab full XML (ring-miss fallback).
    // Both picks must produce identical bytes on every backend, and the
    // fallback must equal the immediate full reply bit for bit.
    let delta_xml = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
        <deltaContent>\n<docTime>2</docTime>\n<fromDocTime>1</fromDocTime>\n\
        <docContent>\n</docContent>\n<userActions></userActions>\n</deltaContent>\n";
    // Binary part data containing \r\n and boundary-resembling bytes:
    // the framing is Content-Length driven, not sentinel-scanning.
    let obj: &[u8] = b"\x89PNG\r\n--rcb-batch\r\nnot-a-boundary\x00\xff";
    let mut batch = Vec::new();
    write!(
        batch,
        "--rcb-batch\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: {}\r\n\r\n",
        delta_xml.len()
    )
    .unwrap();
    batch.extend_from_slice(delta_xml.as_bytes());
    batch.extend_from_slice(b"\r\n");
    write!(
        batch,
        "--rcb-batch\r\nContent-Type: image/png\r\nX-RCB-Url: /cache/7?k=00aabb\r\nContent-Length: {}\r\n\r\n",
        obj.len()
    )
    .unwrap();
    batch.extend_from_slice(obj);
    batch.extend_from_slice(b"\r\n--rcb-batch--\r\n");

    let delta = Response::with_body(Status::OK, BATCH_CONTENT_TYPE, batch).into_prefab();
    let full = Response::xml("<newContent>full</newContent>").into_prefab();

    let make_handler = {
        let delta = delta.clone();
        let full = full.clone();
        move |channel: Arc<ParkChannel>| -> Handler {
            let delta = delta.clone();
            let full = full.clone();
            Arc::new(move |req: Request| {
                if req.path() == "/wake" {
                    let reply = if req.query_param("d").as_deref() == Some("1") {
                        delta.clone()
                    } else {
                        full.clone()
                    };
                    return HandlerOutcome::Park(Park {
                        channel: Arc::clone(&channel),
                        wait_key: 0,
                        max_wait: Duration::from_secs(5),
                        on_wake: Box::new(move || reply),
                        on_timeout: Box::new(|| Response::xml("")),
                    });
                }
                full.clone().into()
            })
        }
    };

    let mut reference: Option<(ServerBackend, Vec<u8>, Vec<u8>)> = None;
    for backend in backends() {
        let hub = Arc::new(ParkHub::default());
        let channel = Arc::new(ParkChannel::default());
        let mut server = HttpServer::bind_with(
            "127.0.0.1:0",
            make_handler(Arc::clone(&channel)),
            ServerConfig {
                backend,
                workers: 2,
                park_hub: Arc::clone(&hub),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let connect = || {
            let s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        };
        let mut delta_conn = connect();
        let mut fallback_conn = connect();
        delta_conn
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/wake?d=1",
            )))
            .unwrap();
        fallback_conn
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/wake",
            )))
            .unwrap();
        std::thread::sleep(Duration::from_millis(120));
        hub.publish(&channel, 1);
        let delta_wire = read_n_frames(&mut delta_conn, 1);
        let fallback_wire = read_n_frames(&mut fallback_conn, 1);
        // The fallback is the full reply's exact bytes, not a near-copy.
        fallback_conn
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/full",
            )))
            .unwrap();
        let immediate_full = read_n_frames(&mut fallback_conn, 1);
        server.shutdown();
        assert_eq!(
            fallback_wire, immediate_full,
            "{backend}: fallback bytes differ from the full reply"
        );
        // The woken delta parses back: multipart content type, both
        // parts intact (binary data with embedded CRLF/boundary bytes
        // survives), minted URL preserved on the object part.
        let resp = rcb_http::parse_response(&delta_wire).unwrap();
        assert_eq!(
            resp.content_type().as_deref(),
            Some(BATCH_MEDIA_TYPE),
            "{backend}"
        );
        let parts = parse_batch_parts(resp.body.as_slice()).unwrap();
        assert_eq!(parts.len(), 2, "{backend}");
        assert_eq!(parts[0].data, delta_xml.as_bytes(), "{backend}");
        assert_eq!(parts[1].data, obj, "{backend}");
        assert_eq!(
            parts[1].url.as_deref(),
            Some("/cache/7?k=00aabb"),
            "{backend}"
        );
        match &reference {
            None => reference = Some((backend, delta_wire, fallback_wire)),
            Some((ref_backend, ref_delta, ref_fallback)) => {
                assert_eq!(
                    &delta_wire, ref_delta,
                    "delta wire bytes diverge: {backend} vs {ref_backend}"
                );
                assert_eq!(
                    &fallback_wire, ref_fallback,
                    "fallback wire bytes diverge: {backend} vs {ref_backend}"
                );
            }
        }
    }
}

#[test]
fn parked_poll_timeout_equals_the_empty_reply_on_every_backend() {
    // An unpublished park runs out its window and must produce the exact
    // bytes of the immediate empty reply — the fallback is the same
    // prefab, not a near-copy.
    let mut reference: Option<(ServerBackend, Vec<u8>)> = None;
    for backend in backends() {
        let mut server = HttpServer::bind_with(
            "127.0.0.1:0",
            park_handler(Arc::default(), Duration::from_millis(150)),
            ServerConfig {
                backend,
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/wait",
            )))
            .unwrap();
        let started = std::time::Instant::now();
        let timed_out = read_n_frames(&mut stream, 1);
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(100),
            "{backend}: park returned after only {waited:?}"
        );
        stream
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/empty",
            )))
            .unwrap();
        let immediate = read_n_frames(&mut stream, 1);
        server.shutdown();
        assert_eq!(
            timed_out, immediate,
            "{backend}: timeout fallback bytes differ from the empty reply"
        );
        match &reference {
            None => reference = Some((backend, timed_out)),
            Some((ref_backend, ref_wire)) => assert_eq!(
                &timed_out, ref_wire,
                "timeout wire bytes diverge: {backend} vs {ref_backend}"
            ),
        }
    }
}

/// `start` with explicit overload limits — the tight-limit scenarios
/// (oversize rejection, admission shed, park cap) run through here.
fn start_with_overload(
    backend: ServerBackend,
    workers: usize,
    big: &Arc<[u8]>,
    overload: rcb_http::server::OverloadConfig,
) -> Run {
    let stats = Arc::new(HandlerStats::default());
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        corpus_handler(Arc::clone(&stats), Arc::clone(big)),
        ServerConfig {
            backend,
            workers,
            overload,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    Run { server, stats }
}

#[test]
fn oversize_rejections_are_byte_identical_across_backends() {
    use rcb_http::server::OverloadConfig;
    // A request head over the limit gets the prefab 431; a declared body
    // over the limit gets the prefab 413. Both close the connection, and
    // the handler never runs. The bytes must agree on every backend.
    let mut reference: Option<(ServerBackend, Vec<u8>, Vec<u8>)> = None;
    for backend in backends() {
        let big: Arc<[u8]> = Arc::from(&b"tiny"[..]);
        let overload = OverloadConfig {
            max_header_bytes: 256,
            max_body_bytes: 256,
            ..OverloadConfig::default()
        };
        let mut run = start_with_overload(backend, 2, &big, overload);
        let addr = run.server.addr().to_string();
        let big_head = {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let head = format!(
                "GET / HTTP/1.1\r\nHost: demo\r\nX-Pad: {}\r\n\r\n",
                "a".repeat(512)
            );
            stream.write_all(head.as_bytes()).unwrap();
            let mut out = Vec::new();
            stream.read_to_end(&mut out).unwrap(); // server closes after 431
            out
        };
        let big_body = {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream
                .write_all(b"POST /echo HTTP/1.1\r\nHost: demo\r\nContent-Length: 100000\r\n\r\n")
                .unwrap();
            let mut out = Vec::new();
            stream.read_to_end(&mut out).unwrap(); // server closes after 413
            out
        };
        assert!(
            String::from_utf8_lossy(&big_head).starts_with("HTTP/1.1 431"),
            "{backend}: {:?}",
            String::from_utf8_lossy(&big_head)
        );
        assert!(
            String::from_utf8_lossy(&big_body).starts_with("HTTP/1.1 413"),
            "{backend}: {:?}",
            String::from_utf8_lossy(&big_body)
        );
        assert_eq!(run.stats.calls.load(Ordering::Relaxed), 0, "{backend}");
        let stats = run.server.stats();
        assert_eq!(stats.oversize_head, 1, "{backend}");
        assert_eq!(stats.oversize_body, 1, "{backend}");
        run.server.shutdown();
        match &reference {
            None => reference = Some((backend, big_head, big_body)),
            Some((ref_backend, ref_head, ref_body)) => {
                assert_eq!(
                    &big_head, ref_head,
                    "431 bytes diverge: {backend} vs {ref_backend}"
                );
                assert_eq!(
                    &big_body, ref_body,
                    "413 bytes diverge: {backend} vs {ref_backend}"
                );
            }
        }
    }
}

#[test]
fn shed_503_with_retry_after_is_byte_identical_across_backends() {
    use rcb_http::server::OverloadConfig;
    // `queue_high_water: 0` sheds every request: the prefab 503 carries a
    // Retry-After drawn from the seeded pool, so with the same seed the
    // first shed's bytes are identical on every backend — and the handler
    // is never invoked (that's what "no dispatch slot consumed" means).
    let mut reference: Option<(ServerBackend, Vec<u8>)> = None;
    for backend in backends() {
        let big: Arc<[u8]> = Arc::from(&b"tiny"[..]);
        let overload = OverloadConfig {
            queue_high_water: 0,
            ..OverloadConfig::default()
        };
        let mut run = start_with_overload(backend, 2, &big, overload);
        let addr = run.server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/echo",
            )))
            .unwrap();
        let wire = read_n_frames(&mut stream, 1);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("HTTP/1.1 503"), "{backend}: {text:?}");
        assert!(text.contains("Retry-After:"), "{backend}: {text:?}");
        assert_eq!(run.stats.calls.load(Ordering::Relaxed), 0, "{backend}");
        assert_eq!(run.server.stats().requests_shed, 1, "{backend}");
        run.server.shutdown();
        match &reference {
            None => reference = Some((backend, wire)),
            Some((ref_backend, ref_wire)) => assert_eq!(
                &wire, ref_wire,
                "503 bytes diverge: {backend} vs {ref_backend}"
            ),
        }
    }
}

#[test]
fn park_cap_degradation_equals_the_empty_poll_prefab() {
    use rcb_http::server::OverloadConfig;
    // `max_parked: 0` declines every park: `/wait` must answer
    // *immediately* with the exact bytes of the `/empty` prefab on every
    // backend — degradation is the timeout path run early, not a new
    // response shape.
    let mut reference: Option<(ServerBackend, Vec<u8>)> = None;
    for backend in backends() {
        let mut server = HttpServer::bind_with(
            "127.0.0.1:0",
            park_handler(Arc::default(), Duration::from_secs(5)),
            ServerConfig {
                backend,
                workers: 2,
                overload: OverloadConfig {
                    max_parked: 0,
                    ..OverloadConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = std::time::Instant::now();
        stream
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/wait",
            )))
            .unwrap();
        let degraded = read_n_frames(&mut stream, 1);
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(2),
            "{backend}: degraded park still waited {waited:?}"
        );
        stream
            .write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/empty",
            )))
            .unwrap();
        let immediate = read_n_frames(&mut stream, 1);
        assert_eq!(
            degraded, immediate,
            "{backend}: degraded park bytes differ from the empty reply"
        );
        assert_eq!(server.stats().parks_shed, 1, "{backend}");
        server.shutdown();
        match &reference {
            None => reference = Some((backend, degraded)),
            Some((ref_backend, ref_wire)) => assert_eq!(
                &degraded, ref_wire,
                "degraded park bytes diverge: {backend} vs {ref_backend}"
            ),
        }
    }
}

#[test]
fn responses_parse_back_to_handler_output() {
    // Round-trip sanity shared by both backends: what the client parses
    // equals what the handler produced (catches framing bugs that
    // byte-diffing two broken backends against each other would miss).
    for backend in backends() {
        let big: Arc<[u8]> = (0..512usize).map(|i| (i % 251) as u8).collect();
        let mut run = start(backend, 2, &big);
        let addr = run.server.addr().to_string();
        let resp = rcb_http::client::send_request(&addr, &Request::post("/echo", b"abc".to_vec()))
            .unwrap();
        assert_eq!(resp.status, Status::OK, "{backend}");
        assert_eq!(resp.body_str(), "POST /echo 3", "{backend}");
        let resp = rcb_http::client::send_request(&addr, &Request::get("/big")).unwrap();
        assert_eq!(resp.body.as_slice(), big.as_ref(), "{backend}");
        run.server.shutdown();
    }
}

/// A fabric link fast enough that virtual time moves only for latency
/// and parks.
fn sim_link() -> rcb_sim::LinkModel {
    rcb_sim::LinkModel::from_spec(rcb_sim::LinkSpec::symmetric(
        100_000_000,
        rcb_util::SimDuration::from_millis(1),
    ))
}

/// Pumps `driver` and advances the world through every fabric event (and,
/// with `through_parks`, every park deadline) until nothing is left.
fn sim_settle(world: &rcb_sim::World, driver: &mut rcb_http::SimDriver, through_parks: bool) {
    loop {
        while driver.pump() {}
        let parks = driver.next_park_deadline().filter(|_| through_parks);
        match world.next_event_time().into_iter().chain(parks).min() {
            Some(t) if t > world.now() => world.advance_to(t),
            _ => break,
        }
    }
    while driver.pump() {}
}

/// Everything the fabric has delivered to `client`, and whether the
/// server closed the connection.
fn sim_read(client: &mut rcb_sim::SimConn) -> (Vec<u8>, bool) {
    let mut wire = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match client.try_read(&mut chunk) {
            Ok(0) => return (wire, true),
            Ok(n) => wire.extend_from_slice(&chunk[..n]),
            Err(e) => return (wire, e.kind() != std::io::ErrorKind::WouldBlock),
        }
    }
}

#[test]
fn long_poll_reply_restarts_the_idle_clock_on_every_engine() {
    use rcb_http::server::OverloadConfig;
    // A long-poll parked three times longer than `idle_timeout`: its reply
    // restarts the idle clock, so a request sent 20 ms after the reply is
    // answered on the same connection instead of finding it reaped as
    // idle since the parked request was read.
    let overload = OverloadConfig {
        idle_timeout: Duration::from_millis(200),
        ..OverloadConfig::default()
    };
    let wait = rcb_http::serialize::serialize_request(&Request::get("/wait"));
    let echo = rcb_http::serialize::serialize_request(&Request::get("/echo"));
    for backend in backends() {
        let mut server = HttpServer::bind_with(
            "127.0.0.1:0",
            park_handler(Arc::default(), Duration::from_millis(600)),
            ServerConfig {
                backend,
                workers: 2,
                overload: overload.clone(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&wait).unwrap();
        let parked = read_n_frames(&mut stream, 1);
        assert!(String::from_utf8_lossy(&parked).starts_with("HTTP/1.1 200"));
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(&echo).unwrap();
        let answered = read_n_frames(&mut stream, 1);
        assert!(
            String::from_utf8_lossy(&answered).ends_with("\r\n\r\n/echo"),
            "{backend}: the follow-up request was not answered"
        );
        assert_eq!(server.stats().idle_timeouts, 0, "{backend}");
        server.shutdown();
    }

    // The pump-mode driver, on virtual time.
    let world = rcb_sim::World::new(13);
    let config = ServerConfig {
        clock: world.clock(),
        overload,
        ..ServerConfig::default()
    };
    let mut driver = rcb_http::SimDriver::new(
        world.bind("host").unwrap(),
        park_handler(Arc::default(), Duration::from_millis(600)),
        &config,
    );
    let mut client = world.connect("client", "host", sim_link()).unwrap();
    client.write_all(&wait).unwrap();
    sim_settle(&world, &mut driver, true);
    let (parked, closed) = sim_read(&mut client);
    assert!(String::from_utf8_lossy(&parked).starts_with("HTTP/1.1 200"));
    assert!(!closed);
    world.advance_to(world.now() + rcb_util::SimDuration::from_millis(20));
    client.write_all(&echo).unwrap();
    sim_settle(&world, &mut driver, false);
    let (answered, closed) = sim_read(&mut client);
    assert!(
        String::from_utf8_lossy(&answered).ends_with("\r\n\r\n/echo"),
        "sim driver: the follow-up request was not answered"
    );
    assert!(!closed, "sim driver: connection reaped");
    assert_eq!(driver.server_stats().idle_timeouts, 0, "sim driver");
}

/// One exchange the sim-driver equivalence test replays through the
/// workers engine over TCP and through `SimDriver` over the fabric.
struct Exchange {
    name: &'static str,
    handler: fn(Arc<ParkChannel>) -> Handler,
    overload: rcb_http::server::OverloadConfig,
    burst: Vec<u8>,
    /// Publish on the handler's channel once the burst has been served
    /// as far as it goes (the parked request then wakes).
    publish: bool,
    /// Responses to read; `None` reads until the server closes.
    frames: Option<usize>,
}

fn workers_exchange(x: &Exchange) -> Vec<u8> {
    let hub = Arc::new(ParkHub::default());
    let channel = Arc::new(ParkChannel::default());
    let mut server = HttpServer::bind_with(
        "127.0.0.1:0",
        (x.handler)(Arc::clone(&channel)),
        ServerConfig {
            backend: ServerBackend::Workers,
            workers: 2,
            park_hub: Arc::clone(&hub),
            overload: x.overload.clone(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&x.burst).unwrap();
    if x.publish {
        std::thread::sleep(Duration::from_millis(120));
        hub.publish(&channel, 1);
    }
    let wire = match x.frames {
        Some(n) => read_n_frames(&mut stream, n),
        None => {
            let mut out = Vec::new();
            stream.read_to_end(&mut out).unwrap();
            out
        }
    };
    server.shutdown();
    wire
}

fn sim_exchange(x: &Exchange) -> (Vec<u8>, bool) {
    let world = rcb_sim::World::new(7);
    let hub = Arc::new(ParkHub::default());
    let channel = Arc::new(ParkChannel::default());
    let config = ServerConfig {
        clock: world.clock(),
        park_hub: Arc::clone(&hub),
        overload: x.overload.clone(),
        ..ServerConfig::default()
    };
    let handler = (x.handler)(Arc::clone(&channel));
    let mut driver = rcb_http::SimDriver::new(world.bind("host").unwrap(), handler, &config);
    let mut client = world.connect("client", "host", sim_link()).unwrap();
    client.write_all(&x.burst).unwrap();
    sim_settle(&world, &mut driver, !x.publish);
    if x.publish {
        hub.publish(&channel, 1);
        sim_settle(&world, &mut driver, true);
    }
    sim_read(&mut client)
}

#[test]
fn sim_driver_wire_bytes_match_the_workers_engine() {
    use rcb_http::server::OverloadConfig;
    // The world sim's pump driver must put the same bytes on the wire as
    // a production engine: every protocol corner of this suite, replayed
    // through `SimDriver` over the fabric on virtual time.
    fn corpus(_: Arc<ParkChannel>) -> Handler {
        let big: Arc<[u8]> = (0..1024usize).map(|i| (i % 251) as u8).collect();
        corpus_handler(Arc::new(HandlerStats::default()), big)
    }
    fn requests(paths: &[&str]) -> Vec<u8> {
        paths
            .iter()
            .flat_map(|p| rcb_http::serialize::serialize_request(&Request::get(*p)))
            .collect()
    }
    let pipelined: Vec<u8> = [
        Request::get("/echo?case=1"),
        Request::post("/echo", b"alpha-beta".to_vec()),
        Request::get("/prefab"),
        Request::get("/missing"),
        Request::post("/echo", vec![b'x'; 4096]),
        Request::get("/unknown/path"),
    ]
    .iter()
    .flat_map(rcb_http::serialize::serialize_request)
    .collect();
    let tight = OverloadConfig {
        max_header_bytes: 256,
        max_body_bytes: 256,
        ..OverloadConfig::default()
    };
    let exchange = |name, handler, overload, burst, publish, frames| Exchange {
        name,
        handler,
        overload,
        burst,
        publish,
        frames,
    };
    let mut cases = vec![exchange(
        "pipelined corpus",
        corpus as fn(Arc<ParkChannel>) -> Handler,
        OverloadConfig::default(),
        pipelined,
        false,
        Some(6),
    )];
    for garbage in [
        &b"NONSENSE\r\n\r\n"[..],
        &b"GET / HTTP/2\r\n\r\n"[..],
        &b"GET x HTTP/1.1\r\n\r\n"[..],
        &b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n"[..],
    ] {
        cases.push(exchange(
            "malformed 400",
            corpus,
            OverloadConfig::default(),
            garbage.to_vec(),
            false,
            None,
        ));
    }
    cases.extend([
        exchange(
            "431",
            corpus,
            tight.clone(),
            format!(
                "GET / HTTP/1.1\r\nHost: demo\r\nX-Pad: {}\r\n\r\n",
                "a".repeat(512)
            )
            .into_bytes(),
            false,
            None,
        ),
        exchange(
            "413",
            corpus,
            tight,
            b"POST /echo HTTP/1.1\r\nHost: demo\r\nContent-Length: 100000\r\n\r\n".to_vec(),
            false,
            None,
        ),
        exchange(
            "503 shed",
            corpus,
            OverloadConfig {
                queue_high_water: 0,
                ..OverloadConfig::default()
            },
            requests(&["/echo"]),
            false,
            Some(1),
        ),
        exchange(
            "park wake",
            |channel| park_handler(channel, Duration::from_secs(5)),
            OverloadConfig::default(),
            requests(&["/wait", "/echo"]),
            true,
            Some(2),
        ),
        exchange(
            "park timeout",
            |channel| park_handler(channel, Duration::from_millis(150)),
            OverloadConfig::default(),
            requests(&["/wait", "/empty"]),
            false,
            Some(2),
        ),
        exchange(
            "park-cap degrade",
            |channel| park_handler(channel, Duration::from_secs(5)),
            OverloadConfig {
                max_parked: 0,
                ..OverloadConfig::default()
            },
            requests(&["/wait", "/empty"]),
            false,
            Some(2),
        ),
    ]);
    for x in &cases {
        let threaded = workers_exchange(x);
        let (simulated, closed) = sim_exchange(x);
        assert!(!threaded.is_empty(), "{}: no reply", x.name);
        assert_eq!(
            String::from_utf8_lossy(&simulated),
            String::from_utf8_lossy(&threaded),
            "{}: sim driver bytes differ from the workers engine",
            x.name
        );
        assert_eq!(simulated, threaded, "{}", x.name);
        assert_eq!(
            closed,
            x.frames.is_none(),
            "{}: sim driver close verdict",
            x.name
        );
    }
}
