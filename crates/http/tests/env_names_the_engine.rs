//! The environment names the engine and nothing else.
//!
//! `ServerConfig::default()` is the code defaults on the engine that
//! `RCB_SERVER_BACKEND` names. No other `RCB_*` variable reaches a
//! server: overload limits and the shard count are config fields, and
//! an auto shard count is the available cores.
//!
//! This binary holds a single test: it sets process environment
//! variables, which no other test thread may race with.

use std::io::{Read, Write};
use std::net::TcpStream;

use rcb_http::server::{
    handler_fn, HttpServer, OverloadConfig, ServerBackend, ServerConfig, EPOLL_SUPPORTED,
};
use rcb_http::{Response, Status};

/// Overload and shard variables set to values no server could work
/// under: no admission room, no park slots, 1 ms guards, a 64-byte head
/// ceiling, no body, three loops.
const HOSTILE: [(&str, &str); 8] = [
    ("RCB_QUEUE_HIGH_WATER", "0"),
    ("RCB_MAX_PARKED", "0"),
    ("RCB_HEADER_TIMEOUT_MS", "1"),
    ("RCB_IDLE_TIMEOUT_MS", "1"),
    ("RCB_WRITE_STALL_MS", "1"),
    ("RCB_MAX_HEADER_BYTES", "64"),
    ("RCB_MAX_BODY_BYTES", "0"),
    ("RCB_SERVER_SHARDS", "3"),
];

#[test]
fn only_the_backend_variable_reaches_a_server() {
    for (name, value) in HOSTILE {
        std::env::set_var(name, value);
    }

    let config = ServerConfig::default();
    assert_eq!(
        format!("{:?}", config.overload),
        format!("{:?}", OverloadConfig::default()),
        "the overload limits are the code defaults"
    );
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let auto = if EPOLL_SUPPORTED {
        ServerBackend::EpollSharded(cores)
    } else {
        ServerBackend::Workers
    };
    assert_eq!(ServerBackend::EpollSharded(0).resolved(), auto);

    let handler = handler_fn(|_| Response::with_body(Status::OK, "text/plain", b"ok".to_vec()));
    let mut server = HttpServer::bind_with("127.0.0.1:0", handler, config).unwrap();
    // A 37-byte head, under even the hostile ceiling: only the admission
    // mark could refuse it.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("HTTP/1.1 200 ") && reply.ends_with("\r\n\r\nok"),
        "{reply}"
    );
    server.shutdown();
}
