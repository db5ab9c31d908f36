//! Microbenchmarks of the substrate crates on the protocol's hot paths:
//! HTML parsing, innerHTML serialization, Fig.-4 XML write/read, the JS
//! escape pair, HMAC signing, HTTP parsing, the prefab write, and the
//! epoll engine's dispatch handoff.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use rcb_crypto::SessionKey;
use rcb_origin::sites::{generate_homepage, site_by_index};
use rcb_util::DetRng;

fn bench_html(c: &mut Criterion) {
    let mut group = c.benchmark_group("html");
    for (idx, label) in [
        (2usize, "google_6.8k"),
        (7, "wikipedia_51.7k"),
        (13, "amazon_228.5k"),
    ] {
        let spec = site_by_index(idx).unwrap();
        let html = generate_homepage(&spec);
        group.throughput(Throughput::Bytes(html.len() as u64));
        group.bench_with_input(BenchmarkId::new("parse", label), &html, |b, html| {
            b.iter(|| rcb_html::parse_document(html))
        });
        let doc = rcb_html::parse_document(&html);
        group.bench_with_input(BenchmarkId::new("serialize", label), &doc, |b, doc| {
            b.iter(|| rcb_html::serialize::serialize_document(doc))
        });
    }
    group.finish();
}

fn bench_escape(c: &mut Criterion) {
    let spec = site_by_index(7).unwrap();
    let html = generate_homepage(&spec);
    let mut group = c.benchmark_group("jsescape");
    group.throughput(Throughput::Bytes(html.len() as u64));
    group.bench_function("escape_51.7k", |b| {
        b.iter(|| rcb_url::jsescape::escape(&html))
    });
    let escaped = rcb_url::jsescape::escape(&html);
    group.bench_function("unescape_51.7k", |b| {
        b.iter(|| rcb_url::jsescape::unescape(&escaped))
    });
    group.finish();
}

fn bench_xml(c: &mut Criterion) {
    use rcb_xml::{write_new_content, ElementPayload, NewContent, TopLevel};
    let spec = site_by_index(7).unwrap();
    let html = generate_homepage(&spec);
    let doc = rcb_html::parse_document(&html);
    let body = doc.body().unwrap();
    let nc = NewContent {
        doc_time: 1,
        head_children: vec![ElementPayload::new("title", "bench")],
        top: TopLevel::Body(ElementPayload {
            tag: "body".into(),
            attrs: vec![],
            inner_html: rcb_html::inner_html(&doc, body),
        }),
        user_actions: String::new(),
    };
    let mut group = c.benchmark_group("figure4_xml");
    group.bench_function("write_51.7k", |b| b.iter(|| write_new_content(&nc)));
    let xml = write_new_content(&nc);
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("parse_51.7k", |b| {
        b.iter(|| rcb_xml::parse_new_content(&xml).unwrap().unwrap())
    });
    group.finish();
}

fn bench_crypto_http(c: &mut Criterion) {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(1));
    let mut group = c.benchmark_group("protocol");
    // A representative polling request: tiny body, signed URI.
    let body = b"t=1244937600000\ninput|shipping|street|653+5th+Ave".to_vec();
    group.bench_function("sign_poll_request", |b| {
        b.iter(|| {
            let mut req = rcb_http::Request::post("/poll?p=3", body.clone());
            rcb_core::auth::sign_request(&key, &mut req);
            req
        })
    });
    let mut signed = rcb_http::Request::post("/poll?p=3", body);
    rcb_core::auth::sign_request(&key, &mut signed);
    group.bench_function("verify_poll_request", |b| {
        b.iter(|| rcb_core::auth::verify_request(&key, &signed))
    });
    let wire = rcb_http::serialize::serialize_request(&signed);
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("http_parse_poll", |b| {
        b.iter(|| rcb_http::parse_request(&wire).unwrap())
    });
    // The prefab write, the last layer of every reply: the engines'
    // `ResponseWriter` sends a frozen head and a shared body, here into a
    // reused buffer. The empty poll reply, and a body of wikipedia.org's
    // Fig.-4 XML size.
    let mut sink = Vec::new();
    for (label, body) in [
        ("prefab_write_empty_poll", Vec::new()),
        ("prefab_write_74k_xml", vec![b'x'; 74_189]),
    ] {
        let prefab = rcb_http::Response::xml(body).into_prefab();
        group.throughput(Throughput::Bytes(prefab.wire_len() as u64));
        group.bench_function(label, |b| {
            b.iter(|| {
                sink.clear();
                rcb_http::serialize::ResponseWriter::new(prefab.clone())
                    .write_some(&mut sink)
                    .unwrap()
            })
        });
    }
    group.finish();

    let mut sha = c.benchmark_group("sha256");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xABu8; size];
        sha.throughput(Throughput::Bytes(size as u64));
        sha.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| rcb_crypto::Sha256::digest(d))
        });
    }
    sha.finish();
}

/// The dispatch-pool handoff in isolation: one loopback round trip of a
/// tiny request on one event loop (`epoll-sharded:1`), answered by the
/// loop itself through a non-blocking entry, and the same reply from a
/// plain handler, which the loop hands to its dispatch pool (job queue,
/// condvar, completion queue and waker).
fn bench_engine(c: &mut Criterion) {
    use rcb_http::server::{
        handler_fn, HandlerOutcome, HttpServer, ServerBackend, ServerConfig, TryHandler,
        EPOLL_SUPPORTED,
    };
    if !EPOLL_SUPPORTED {
        return;
    }
    let reply = rcb_http::Response::xml(Vec::new()).into_prefab();
    let config = || ServerConfig {
        backend: ServerBackend::EpollSharded(1),
        workers: 1,
        ..ServerConfig::default()
    };
    let handler = {
        let reply = reply.clone();
        handler_fn(move |_| reply.clone())
    };
    let on_loop: TryHandler = Arc::new(move |_| Ok(HandlerOutcome::Respond(reply.clone())));
    let servers = [
        (
            "loop_answered_rtt",
            HttpServer::bind_split("127.0.0.1:0", Arc::clone(&handler), on_loop, config()),
        ),
        (
            "pool_handoff_rtt",
            HttpServer::bind_with("127.0.0.1:0", handler, config()),
        ),
    ];
    let mut group = c.benchmark_group("engine");
    let request = rcb_http::Request::get("/");
    for (label, server) in servers {
        let server = server.expect("bind loopback");
        let mut conn = rcb_http::client::HttpConnection::connect(&server.addr().to_string())
            .expect("connect loopback");
        group.bench_function(label, |b| {
            b.iter(|| conn.round_trip(&request).expect("round trip"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_html, bench_escape, bench_xml, bench_crypto_http, bench_engine
}
criterion_main!(benches);
