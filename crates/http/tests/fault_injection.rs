//! Fault-injection regression suite for the server backends.
//!
//! The resilience paths — listener mute-with-backoff after a transient
//! `accept(2)` error, surviving an `EMFILE` storm, resuming a response
//! after `EWOULDBLOCK` mid-write, dropping a connection cleanly when
//! `epoll_ctl(2)` refuses the registration — cannot be provoked reliably
//! from a real socket. The `rcb_util::fault` lever (armed through this
//! crate's `fault-injection` dev-feature) injects the errnos at the
//! hooked call sites instead, so each path gets a deterministic
//! regression test on every epoll variant (and, for accept, reads and
//! write resumption, the workers backend too).
//!
//! Fault state is process-global, so every test holds [`FAULT_LOCK`] and
//! disarms through a drop guard — a failing assertion cannot leak armed
//! faults into a sibling test.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rcb_http::server::{handler_fn, Handler, HttpServer, ServerBackend, ServerConfig};
use rcb_http::{Body, Request, Response, Status};
use rcb_util::fault;

/// Serializes the tests in this file (fault state is process-global).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the lock for one test and guarantees a disarm on every exit.
struct FaultScope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultScope {
    fn enter() -> FaultScope {
        let guard = FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        fault::clear();
        FaultScope(guard)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// The epoll variants under test (explicit shard count: deterministic on
/// any core count).
fn epoll_backends() -> [ServerBackend; 2] {
    [
        ServerBackend::EpollSharded(1),
        ServerBackend::EpollSharded(2),
    ]
}

fn echo_handler() -> Handler {
    handler_fn(|req: Request| {
        Response::with_body(Status::OK, "text/plain", req.target.into_bytes())
    })
}

fn bind(backend: ServerBackend, workers: usize, handler: Handler) -> HttpServer {
    HttpServer::bind_with(
        "127.0.0.1:0",
        handler,
        ServerConfig {
            backend,
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn get(addr: &str, path: &str) -> Response {
    rcb_http::client::send_request(addr, &Request::get(path)).unwrap()
}

#[test]
fn listener_mutes_with_backoff_and_recovers_on_epoll_variants() {
    // K transient accept errors in a row: the loop must mute the
    // listener, back off (1 ms → 2 ms → 4 ms), retry, and then accept the
    // waiting connection — counting exactly K survived errors and serving
    // normally afterwards.
    let _scope = FaultScope::enter();
    for backend in epoll_backends() {
        let server = bind(backend, 2, echo_handler());
        let addr = server.addr().to_string();
        fault::fail_next(fault::Op::Accept, 3, fault::ECONNABORTED);
        let t0 = Instant::now();
        let resp = get(&addr, "/after-mute");
        assert_eq!(resp.status, Status::OK, "{backend}");
        assert_eq!(resp.body_str(), "/after-mute", "{backend}");
        assert_eq!(
            fault::pending(fault::Op::Accept),
            0,
            "{backend}: all injected accept errors consumed"
        );
        assert_eq!(server.stats().accept_errors, 3, "{backend}");
        // Three mute windows (1+2+4 ms) plus loop ticks — well under the
        // client's 10 s read timeout, and sanity-bounded here.
        assert!(t0.elapsed() < Duration::from_secs(5), "{backend}");
    }
}

#[test]
fn emfile_storm_at_accept_is_survived_by_every_backend() {
    // The classic fd-exhaustion storm: a burst of EMFILE refusals must
    // never kill the accept path — on the epoll variants via the muted
    // listener, on the workers backend via the sleeping backoff loop.
    let _scope = FaultScope::enter();
    for backend in [
        ServerBackend::Workers,
        ServerBackend::EpollSharded(1),
        ServerBackend::EpollSharded(2),
    ] {
        let server = bind(backend, 2, echo_handler());
        let addr = server.addr().to_string();
        fault::fail_next(fault::Op::Accept, 5, fault::EMFILE);
        // Several clients queued behind the storm; all must get through
        // once the "fd table" frees up.
        for i in 0..3 {
            let resp = get(&addr, &format!("/storm{i}"));
            assert_eq!(resp.body_str(), format!("/storm{i}"), "{backend}");
        }
        assert_eq!(fault::pending(fault::Op::Accept), 0, "{backend}");
        assert_eq!(server.stats().accept_errors, 5, "{backend}");
    }
}

#[test]
fn ewouldblock_write_resumption_on_epoll_variants() {
    // Injected EWOULDBLOCK mid-response: the ResponseWriter must park its
    // cursor, the loop must re-arm EPOLLOUT (the workers engine retries
    // its blocking write instead, as after a short `SO_SNDTIMEO` stall),
    // and the response must arrive byte-intact once the (injected)
    // congestion clears — on both a shared-body response and a prefab.
    let _scope = FaultScope::enter();
    const BODY: usize = 256 << 10;
    let big: Arc<[u8]> = (0..BODY).map(|i| (i % 251) as u8).collect();
    let prefab = Response::with_body(
        Status::OK,
        "application/octet-stream",
        Body::Shared(Arc::clone(&big)),
    )
    .into_prefab();
    let handler: Handler = {
        let big = Arc::clone(&big);
        handler_fn(move |req: Request| match req.path() {
            "/big" => Response::with_body(
                Status::OK,
                "application/octet-stream",
                Body::Shared(Arc::clone(&big)),
            ),
            "/prefab" => prefab.clone(),
            other => Response::error(Status::NOT_FOUND, other),
        })
    };
    for backend in [
        ServerBackend::Workers,
        ServerBackend::EpollSharded(1),
        ServerBackend::EpollSharded(2),
    ] {
        let server = bind(backend, 2, Arc::clone(&handler));
        let addr = server.addr().to_string();
        for path in ["/big", "/prefab"] {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            // Arm before the request so the very first write attempt (and
            // the next few resumptions) hit the injected wall.
            fault::fail_next(fault::Op::Write, 4, fault::EAGAIN);
            stream
                .write_all(&rcb_http::serialize::serialize_request(&Request::get(path)))
                .unwrap();
            let resp = rcb_http::client::read_response(&mut stream).unwrap();
            assert_eq!(resp.status, Status::OK, "{backend} {path}");
            assert_eq!(resp.body.len(), BODY, "{backend} {path}");
            assert!(
                resp.body
                    .as_slice()
                    .iter()
                    .enumerate()
                    .all(|(i, b)| *b == (i % 251) as u8),
                "{backend} {path}: body corrupted across resumed writes"
            );
            assert_eq!(
                fault::pending(fault::Op::Write),
                0,
                "{backend} {path}: injected EWOULDBLOCKs were consumed"
            );
        }
    }
}

#[test]
fn scripted_accept_schedule_fails_exact_ordinals() {
    // `fault::script` generalizes the fail-next budget into call-indexed
    // schedules: fail accept calls #1 and #2, let #3 through. On the
    // epoll variants accept runs on readiness (no idle polling), so the
    // ordinals line up with the retry sequence for one waiting client:
    // two muted-and-retried errors, then the served accept.
    let _scope = FaultScope::enter();
    for backend in epoll_backends() {
        let server = bind(backend, 2, echo_handler());
        let addr = server.addr().to_string();
        fault::script(
            fault::Op::Accept,
            &[(1, fault::ECONNABORTED), (2, fault::EMFILE)],
        );
        let resp = get(&addr, "/scripted");
        assert_eq!(resp.body_str(), "/scripted", "{backend}");
        assert_eq!(
            fault::pending(fault::Op::Accept),
            0,
            "{backend}: both scripted ordinals fired"
        );
        assert_eq!(server.stats().accept_errors, 2, "{backend}");
        fault::clear();
        // A script stays armed after its last entry (passthrough): later
        // traffic must be unaffected once cleared.
        let resp = get(&addr, "/after");
        assert_eq!(resp.body_str(), "/after", "{backend}");
    }
}

#[test]
fn seeded_accept_schedule_storms_and_self_disarms() {
    // `fault::seeded` turns the lever probabilistic but reproducible: a
    // Bernoulli storm at accept, capped so it always ends. The workers
    // backend polls its nonblocking listener continuously, so every poll
    // steps the seeded schedule — the cap must be consumed in bounded
    // time, every client must be served through the storm, and the
    // counted accept errors must equal the cap exactly.
    let _scope = FaultScope::enter();
    let server = bind(ServerBackend::Workers, 2, echo_handler());
    let addr = server.addr().to_string();
    const CAP: u64 = 4;
    fault::seeded(fault::Op::Accept, 2009, 0.9, fault::ECONNABORTED, CAP);
    for i in 0..3 {
        let resp = get(&addr, &format!("/seeded{i}"));
        assert_eq!(resp.body_str(), format!("/seeded{i}"));
    }
    // The accept loop keeps polling; the remaining budget drains shortly.
    let t0 = Instant::now();
    while fault::pending(fault::Op::Accept) > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "seeded schedule failed to drain"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().accept_errors, CAP, "cap = injected errors");
    let resp = get(&addr, "/calm");
    assert_eq!(resp.body_str(), "/calm");
}

#[test]
fn injected_read_reset_drops_the_connection_but_not_the_server() {
    // ECONNRESET surfacing from `read(2)` mid-connection: that one
    // connection dies (no response, clean close) on every backend, and
    // the very next client is served as if nothing happened.
    let _scope = FaultScope::enter();
    for backend in [
        ServerBackend::Workers,
        ServerBackend::EpollSharded(1),
        ServerBackend::EpollSharded(2),
    ] {
        let server = bind(backend, 2, echo_handler());
        let addr = server.addr().to_string();
        fault::fail_next(fault::Op::Read, 1, fault::ECONNRESET);
        {
            let mut doomed = TcpStream::connect(&addr).unwrap();
            doomed
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let _ = doomed.write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/doomed",
            )));
            let mut out = Vec::new();
            let read = doomed.read_to_end(&mut out);
            assert!(
                read.is_err() || out.is_empty(),
                "{backend}: reset connection must not be served, got {} bytes",
                out.len()
            );
        }
        assert_eq!(
            fault::pending(fault::Op::Read),
            0,
            "{backend}: the injected reset was consumed"
        );
        let resp = get(&addr, "/alive");
        assert_eq!(resp.body_str(), "/alive", "{backend}: loop survived");
    }
}

#[test]
fn injected_transient_eagain_on_read_is_absorbed() {
    // EWOULDBLOCK from `read(2)` is ordinary backpressure, not an error:
    // the connection must be kept, readiness must re-fire (level-
    // triggered on the epoll variants, the rotation loop on workers),
    // and the request must complete once the injections drain.
    let _scope = FaultScope::enter();
    for backend in [
        ServerBackend::Workers,
        ServerBackend::EpollSharded(1),
        ServerBackend::EpollSharded(2),
    ] {
        let server = bind(backend, 2, echo_handler());
        let addr = server.addr().to_string();
        fault::fail_next(fault::Op::Read, 2, fault::EAGAIN);
        let resp = get(&addr, "/after-eagain");
        assert_eq!(resp.body_str(), "/after-eagain", "{backend}");
        assert_eq!(
            fault::pending(fault::Op::Read),
            0,
            "{backend}: injected EWOULDBLOCKs were consumed"
        );
        fault::clear();
        drop(server);
    }
}

#[test]
fn epoll_ctl_failure_at_register_drops_connection_cleanly() {
    // A refused EPOLL_CTL_ADD at registration costs that one connection
    // (closed, never served) but must not wedge the loop: the next
    // connection registers and is served. Exercised on both variants —
    // on the sharded engine the refused add happens inside the handoff
    // target's loop.
    let _scope = FaultScope::enter();
    for backend in epoll_backends() {
        let server = bind(backend, 2, echo_handler());
        let addr = server.addr().to_string();
        fault::fail_next(fault::Op::EpollCtl, 1, fault::EMFILE);
        {
            let mut doomed = TcpStream::connect(&addr).unwrap();
            doomed
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let _ = doomed.write_all(&rcb_http::serialize::serialize_request(&Request::get(
                "/doomed",
            )));
            // The server dropped the stream at registration: EOF (or a
            // reset) — never a response.
            let mut out = Vec::new();
            let read = doomed.read_to_end(&mut out);
            assert!(
                read.is_err() || out.is_empty(),
                "{backend}: doomed connection must not be served, got {} bytes",
                out.len()
            );
        }
        assert_eq!(fault::pending(fault::Op::EpollCtl), 0, "{backend}");
        let resp = get(&addr, "/alive");
        assert_eq!(resp.body_str(), "/alive", "{backend}: loop survived");
    }
}
