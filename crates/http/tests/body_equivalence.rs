//! Body-representation equivalence: `Body::Owned`, `Body::Shared`, and
//! prefabs (a frozen head over a shared body) must be indistinguishable on
//! the wire.
//!
//! The zero-copy read path swaps owned bodies for shared (and frozen)
//! ones; these tests pin the contract that makes the swap safe — every
//! representation of the same bytes serializes identically, survives
//! partial writes, and interleaves freely on one keep-alive connection.

use std::sync::Arc;

use proptest::prelude::*;

use rcb_http::client::HttpConnection;
use rcb_http::message::{Body, Request, Response, Status};
use rcb_http::parse_response;
use rcb_http::serialize::{serialize_response, ResponseWriter, WriteProgress};
use rcb_http::server::{handler_fn, Handler, HttpServer, ServerConfig};

proptest! {
    #[test]
    fn owned_shared_and_prefab_serialize_to_identical_wire_bytes(
        body in proptest::collection::vec(any::<u8>(), 0..2048),
        status_choice in 0usize..4,
        content_type in "[a-z]{1,8}/[a-z]{1,8}"
    ) {
        let status = [Status::OK, Status::FOUND, Status::NOT_FOUND, Status::INTERNAL]
            [status_choice];
        let owned = Response::with_body(status, &content_type, body.clone());
        let shared = Response::with_body(
            status,
            &content_type,
            Body::Shared(Arc::from(body.as_slice())),
        );
        let prefab = shared.clone().into_prefab();

        let wire = serialize_response(&owned);
        prop_assert_eq!(&serialize_response(&shared), &wire);
        prop_assert_eq!(&serialize_response(&prefab), &wire);

        // The servers' streaming writer produces the same bytes for all
        // three.
        for resp in [&owned, &shared, &prefab] {
            let mut sink = Vec::new();
            let mut writer = ResponseWriter::new(resp.clone());
            prop_assert_eq!(writer.write_some(&mut sink).unwrap(), WriteProgress::Done);
            prop_assert_eq!(&sink, &wire);
        }

        // And the wire form parses back to an equal response (equality
        // ignores representation, as it must).
        let parsed = parse_response(&wire).unwrap();
        prop_assert_eq!(&parsed, &owned);
        prop_assert_eq!(&parsed, &shared);
        prop_assert_eq!(&parsed, &prefab);
    }

    #[test]
    fn shared_body_clones_copy_no_bytes(
        body in proptest::collection::vec(any::<u8>(), 1..512)
    ) {
        let shared = Body::Shared(Arc::from(body.as_slice()));
        prop_assert_eq!(shared.copied_len(), 0);
        prop_assert_eq!(Body::Owned(body.clone()).copied_len(), body.len());
        // Cloning a shared body yields the same allocation.
        let Body::Shared(a) = &shared else { unreachable!() };
        let Body::Shared(b) = &shared.clone() else { panic!("clone changed repr") };
        prop_assert!(Arc::ptr_eq(a, b));
    }
}

/// One keep-alive connection, pipelining responses that alternate between
/// owned, shared, and prefab bodies (including an empty one and a large
/// one spanning several socket writes): every reply must arrive intact,
/// framed correctly, and in order.
#[test]
fn keepalive_pipelining_of_mixed_body_representations() {
    let big: Arc<[u8]> = (0..=255u8)
        .cycle()
        .take(192 * 1024)
        .collect::<Vec<u8>>()
        .into();
    let shared: Arc<[u8]> = Arc::from(b"shared-payload".as_slice());
    let prefab_big = Response::with_body(
        Status::OK,
        "application/octet-stream",
        Body::Shared(Arc::clone(&big)),
    )
    .into_prefab();
    let handler: Handler = {
        let shared = Arc::clone(&shared);
        let big = Arc::clone(&big);
        handler_fn(move |req: Request| match req.path() {
            "/owned" => Response::with_body(Status::OK, "text/plain", b"owned-payload".to_vec()),
            "/shared" => {
                Response::with_body(Status::OK, "text/plain", Body::Shared(Arc::clone(&shared)))
            }
            "/big-shared" => Response::with_body(
                Status::OK,
                "application/octet-stream",
                Body::Shared(Arc::clone(&big)),
            ),
            "/big-prefab" => prefab_big.clone(),
            "/empty" => Response::empty_ok(),
            _ => Response::error(Status::NOT_FOUND, "nope"),
        })
    };
    let mut server = HttpServer::bind_with(
        "127.0.0.1:0",
        handler,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = HttpConnection::connect(&server.addr().to_string()).unwrap();

    let sequence: &[(&str, &[u8])] = &[
        ("/owned", b"owned-payload"),
        ("/shared", b"shared-payload"),
        ("/big-shared", &big),
        ("/empty", b""),
        ("/big-prefab", &big),
        ("/shared", b"shared-payload"),
        ("/owned", b"owned-payload"),
        ("/big-prefab", &big),
        ("/empty", b""),
    ];
    for _round in 0..3 {
        for (path, expected) in sequence {
            let resp = conn.round_trip(&Request::get(*path)).unwrap();
            assert_eq!(resp.status, Status::OK, "path {path}");
            assert_eq!(resp.body.as_slice(), *expected, "path {path}");
            assert_eq!(
                resp.headers.content_length().unwrap(),
                Some(expected.len()),
                "path {path}"
            );
        }
    }
    server.shutdown();
}
