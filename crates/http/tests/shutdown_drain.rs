//! Shutdown-drain suite: stopping a server with live connections must be
//! prompt and leak-free.
//!
//! `HttpServer::shutdown` stops every engine thread and joins them in
//! order; on the sharded epoll backend all shards are stopped (flag +
//! waker) **before** the first join, so total drain time is one loop tick,
//! not one per shard. With idle keep-alive connections parked on every
//! shard, shutdown must complete within a bounded time and close every fd
//! the server owned — counted via `/proc/self/fd`, which is why this file
//! is Linux-only (the workers backend is still covered on Linux).
//!
//! fd counting is process-global, so this file keeps everything in a
//! single `#[test]` — a sibling test opening sockets in parallel would
//! make the counts lie.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcb_http::server::{
    Handler, HandlerOutcome, HttpServer, Park, ServerBackend, ServerConfig, EPOLL_SUPPORTED,
};
use rcb_http::{Request, Response, Status};

fn count_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd readable on Linux")
        .count()
}

/// Echoes the target; `/hold*` targets park on a key that is never
/// published, so only shutdown (or the 10 s cap) can complete them.
fn echo_handler() -> Handler {
    Arc::new(|req: Request| {
        if req.target.starts_with("/hold") {
            return HandlerOutcome::Park(Park {
                channel: Arc::default(),
                wait_key: u64::MAX - 1,
                max_wait: Duration::from_secs(10),
                on_wake: Box::new(|| {
                    Response::with_body(Status::OK, "text/plain", b"woken".to_vec())
                }),
                on_timeout: Box::new(|| {
                    Response::with_body(Status::OK, "text/plain", b"bye".to_vec())
                }),
            });
        }
        Response::with_body(Status::OK, "text/plain", req.target.into_bytes()).into()
    })
}

#[test]
fn shutdown_with_idle_keepalive_connections_is_bounded_and_leak_free() {
    let mut backends = vec![ServerBackend::Workers];
    if EPOLL_SUPPORTED {
        backends.push(ServerBackend::EpollSharded(1));
        backends.push(ServerBackend::EpollSharded(3));
    }
    for backend in backends {
        let shards = backend.shard_count();
        let before = count_fds();
        {
            let mut server = HttpServer::bind_with(
                "127.0.0.1:0",
                echo_handler(),
                ServerConfig {
                    backend,
                    workers: 2,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let addr = server.addr().to_string();

            // Keep-alive connections parked on every shard (round-robin
            // puts two per shard), each proven live with one request.
            let mut clients = Vec::new();
            for i in 0..(2 * shards).max(4) {
                let mut conn = rcb_http::client::HttpConnection::connect(&addr).unwrap();
                let resp = conn.round_trip(&Request::get(format!("/park{i}"))).unwrap();
                assert_eq!(resp.body_str(), format!("/park{i}"), "{backend}");
                clients.push(conn);
            }
            if EPOLL_SUPPORTED && matches!(backend, ServerBackend::EpollSharded(_)) {
                let stats = server.stats();
                assert!(
                    stats.connections_per_shard.iter().all(|&c| c > 0),
                    "{backend}: every shard holds a parked connection, got {:?}",
                    stats.connections_per_shard
                );
            }

            // Two long-polls parked mid-request on a key nobody will
            // publish: shutdown must drain them within the same bound,
            // not wait out their 10 s park window.
            let parked: Vec<_> = (0..2)
                .map(|i| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        rcb_http::client::send_request(&addr, &Request::get(format!("/hold{i}")))
                    })
                })
                .collect();
            // Let the park requests reach the engine before stopping it.
            std::thread::sleep(Duration::from_millis(150));

            // Idle clients still open: shutdown must not wait on them.
            let t0 = Instant::now();
            server.shutdown();
            let drained_in = t0.elapsed();
            assert!(
                drained_in < Duration::from_secs(5),
                "{backend}: shutdown took {drained_in:?} with idle keep-alive connections"
            );

            // The parked clients come back promptly — either with the
            // timeout fallback reply (workers drain in place) or a closed
            // connection (event loops drop held slots) — never after the
            // full park window.
            for handle in parked {
                // A connection closed during the drain (Err) is also fine.
                if let Ok(resp) = handle.join().unwrap() {
                    assert_eq!(resp.body_str(), "bye", "{backend}");
                }
            }

            // After shutdown the engine is gone: new connections are
            // refused or die unanswered. (Connect may still succeed
            // briefly if the kernel had the listener queue open; a
            // request must never be answered.)
            if let Ok(mut late) = TcpStream::connect(&addr) {
                use std::io::{Read, Write};
                late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                let _ = late.write_all(&rcb_http::serialize::serialize_request(&Request::get(
                    "/late",
                )));
                let mut out = Vec::new();
                let read = late.read_to_end(&mut out);
                assert!(
                    read.is_err() || out.is_empty(),
                    "{backend}: request answered after shutdown"
                );
            }

            // Shutdown is idempotent (Drop will call it again too).
            server.shutdown();
            drop(clients);
        }
        // Every fd the server and its clients owned is closed: listener,
        // per-shard epoll fds, waker socketpairs, connection sockets.
        let after = count_fds();
        assert_eq!(
            after, before,
            "{backend}: fd leak across server lifecycle ({before} -> {after})"
        );
    }
}
