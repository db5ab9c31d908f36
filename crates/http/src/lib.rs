//! HTTP/1.1 substrate.
//!
//! RCB-Agent *is* an HTTP server living inside the host browser (paper
//! §3.2.2): it accepts TCP connections, classifies GET/POST requests by
//! method and request-URI (Fig. 2), and answers with `text/html`,
//! `application/xml`, or cached-object responses. This crate supplies the
//! message model ([`Request`], [`Response`]), an incremental parser that
//! consumes bytes exactly as they arrive off a socket ([`parse`]), the
//! serializer, one sans-IO connection state machine (`conn`: parse, admit
//! or shed, dispatch, park, write, guard), and three drivers that give it
//! I/O: the blocking workers engine and the event-driven [`epoll`] engine
//! behind the TCP [`server`] facade, and the deterministic pump-mode
//! [`simdrive`] the world sim steps in place of threads — plus the
//! blocking [`client`] used by the real-socket deployment path and the
//! loopback integration tests.
//!
//! Each driver has one transport: the threaded engines and the client
//! serve kernel TCP sockets on the wall clock, and [`simdrive`] alone
//! serves the seeded in-process fabric from `rcb-sim`, on virtual time.

pub mod batch;
pub mod client;
pub(crate) mod conn;
// The one place the platform condition for the epoll backend appears in
// this crate: everywhere else compiles identically against whichever
// `epoll` module is selected (`server::EPOLL_SUPPORTED` mirrors it as a
// runtime-checkable const, and `ServerBackend::effective()` guarantees
// the stub is never reached at runtime).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod epoll;
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
#[path = "epoll_stub.rs"]
pub(crate) mod epoll;
pub mod headers;
pub mod message;
pub mod parse;
pub mod serialize;
pub mod server;
pub mod simdrive;

pub use batch::{
    parse_batch_parts, BatchPart, BATCH_BOUNDARY, BATCH_CONTENT_TYPE, BATCH_MEDIA_TYPE,
};
pub use headers::HeaderMap;
pub use message::{Body, Method, Request, Response, Status};
pub use parse::{parse_request, parse_response, ParseReject, RequestParser};
pub use server::{
    handler_fn, Handler, HandlerOutcome, HttpServer, OverloadConfig, Park, ParkChannel, ParkHub,
    ServerBackend, ServerConfig, ServerStats, TryHandler,
};
pub use simdrive::SimDriver;
