//! A handler's non-blocking entry (`HttpServer::bind_split`): the epoll
//! engine's event loops answer on their own thread what the `TryHandler`
//! answers and hand the rest, untouched, to the dispatch pool; a panic in
//! the entry costs its client a 500-and-close while the loop keeps
//! serving every other connection. The workers engine runs the blocking
//! handler alone.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rcb_http::client::HttpConnection;
use rcb_http::server::{
    handler_fn, HandlerOutcome, HttpServer, ServerBackend, ServerConfig, TryHandler,
    EPOLL_SUPPORTED,
};
use rcb_http::{Request, Response, Status};

/// Answers with the thread that answered and the target it saw.
fn answered_by(req: &Request) -> Response {
    let thread = std::thread::current().name().unwrap_or("?").to_string();
    Response::with_body(
        Status::OK,
        "text/plain",
        format!("{thread} {}", req.target).into_bytes(),
    )
}

/// Binds a server whose blocking handler panics on `/pool-boom` and whose
/// non-blocking entry answers `/loop*`, panics on `/boom`, and hands
/// everything else back.
fn start(backend: ServerBackend) -> HttpServer {
    let handler = handler_fn(|req| {
        assert!(req.target != "/pool-boom", "blocking handler panics");
        answered_by(&req)
    });
    let try_handler: TryHandler = Arc::new(|req: Request| {
        assert!(req.target != "/boom", "non-blocking entry panics");
        if req.target.starts_with("/loop") {
            Ok(HandlerOutcome::Respond(answered_by(&req)))
        } else {
            Err(req)
        }
    });
    let config = ServerConfig {
        backend,
        workers: 1,
        ..ServerConfig::default()
    };
    HttpServer::bind_split("127.0.0.1:0", handler, try_handler, config).unwrap()
}

fn body(conn: &mut HttpConnection, target: &str) -> String {
    let resp = conn.round_trip(&Request::get(target)).unwrap();
    assert_eq!(resp.status, Status::OK);
    resp.body_str()
}

/// Sends one request on a fresh connection and reads until the server
/// closes it.
fn one_shot(addr: &str, target: &str) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).unwrap();
    reply
}

#[test]
fn the_loop_answers_what_the_entry_answers_and_the_pool_the_rest() {
    if !EPOLL_SUPPORTED {
        return;
    }
    let mut server = start(ServerBackend::EpollSharded(1));
    let mut conn = HttpConnection::connect(&server.addr().to_string()).unwrap();
    for _ in 0..3 {
        assert_eq!(body(&mut conn, "/loop?a=1"), "rcb-loop-0 /loop?a=1");
        // Handed back untouched: the pool sees the request as sent.
        assert_eq!(body(&mut conn, "/pool?b=2"), "rcb-pool-0 /pool?b=2");
    }
    server.shutdown();

    // The workers engine never calls the non-blocking entry.
    let mut server = start(ServerBackend::Workers);
    let mut conn = HttpConnection::connect(&server.addr().to_string()).unwrap();
    assert_eq!(body(&mut conn, "/loop"), "rcb-worker /loop");
    assert_eq!(body(&mut conn, "/pool"), "rcb-worker /pool");
    server.shutdown();
}

#[test]
fn a_panic_on_the_loop_answers_500_closes_and_the_loop_lives() {
    if !EPOLL_SUPPORTED {
        return;
    }
    let mut server = start(ServerBackend::EpollSharded(1));
    let addr = server.addr().to_string();
    // A connection opened before the panic keeps being served after it.
    let mut survivor = HttpConnection::connect(&addr).unwrap();
    assert_eq!(body(&mut survivor, "/loop"), "rcb-loop-0 /loop");

    // The panic on the loop answers exactly what a panic on the pool
    // answers, and the server closes the connection after it.
    let on_loop = one_shot(&addr, "/boom");
    let on_pool = one_shot(&addr, "/pool-boom");
    assert!(on_loop.starts_with(b"HTTP/1.1 500"), "{on_loop:?}");
    assert_eq!(on_loop, on_pool);

    for _ in 0..3 {
        assert_eq!(body(&mut survivor, "/loop"), "rcb-loop-0 /loop");
        assert_eq!(body(&mut survivor, "/pool"), "rcb-pool-0 /pool");
    }
    let mut fresh = HttpConnection::connect(&addr).unwrap();
    assert_eq!(body(&mut fresh, "/loop"), "rcb-loop-0 /loop");
    server.shutdown();
}
