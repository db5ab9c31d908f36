//! Security integration tests (paper §3.4).
//!
//! The agent must reject everything that is not authenticated under the
//! session key: unsigned polls, tampered targets, tampered bodies,
//! replayed MACs on different content, and cache-object fetches with
//! forged tokens. Every request goes through a one-session router's
//! handler, the entry every serving engine calls.

use rcb::browser::{Browser, BrowserKind, UserAction};
use rcb::core::agent::AgentConfig;
use rcb::core::auth;
use rcb::core::router::{RouterConfig, SessionHandle, SessionRouter};
use rcb::crypto::SessionKey;
use rcb::http::server::{Handler, HandlerOutcome, ServerConfig};
use rcb::http::{Request, Response, Status};
use rcb::origin::OriginRegistry;
use rcb::sim::link::Pipe;
use rcb::sim::NetProfile;
use rcb::util::{DetRng, SimTime};

fn loaded_host() -> Browser {
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut b = Browser::new(BrowserKind::Firefox);
    b.navigate(
        &rcb::url::Url::parse("http://apple.com/").unwrap(),
        &mut origins,
        &mut pipe,
        &profile,
        SimTime::ZERO,
    )
    .unwrap();
    b
}

/// A one-session router hosting apple.com under `key`: the session and
/// its handler.
fn session(key: SessionKey, config: AgentConfig) -> (SessionHandle, Handler) {
    let router = SessionRouter::new(
        Box::new(|_| None),
        config,
        RouterConfig::default(),
        &ServerConfig::default(),
    );
    let session = router.install_default_session(loaded_host(), key).unwrap();
    (session, router.make_handler())
}

fn agent_with_seed(seed: u64) -> (SessionHandle, Handler) {
    session(
        SessionKey::generate_deterministic(&mut DetRng::new(seed)),
        AgentConfig::default(),
    )
}

/// The reply to `req`; these tests send no long-poll.
fn respond(handler: &Handler, req: Request) -> Response {
    match handler(req) {
        HandlerOutcome::Respond(response) => response,
        HandlerOutcome::Park(_) => panic!("no long-poll here"),
    }
}

#[test]
fn unsigned_poll_is_unauthorized() {
    let (_agent, handler) = agent_with_seed(1);
    let req = Request::post("/poll?p=1", b"t=0".to_vec());
    let resp = respond(&handler, req);
    assert_eq!(resp.status, Status::UNAUTHORIZED);
}

#[test]
fn tampered_action_payload_is_rejected() {
    let (agent, handler) = agent_with_seed(2);
    let mut req = Request::post(
        "/poll?p=1",
        rcb::core::agent::build_poll_body(
            0,
            &[UserAction::Navigate {
                url: "http://apple.com/".into(),
            }],
        ),
    );
    auth::sign_request(agent.key(), &mut req);
    // Attacker swaps the navigation target after signing.
    req.body = rcb::core::agent::build_poll_body(
        0,
        &[UserAction::Navigate {
            url: "http://evil.example/".into(),
        }],
    );
    let response = respond(&handler, req);
    assert_eq!(response.status, Status::UNAUTHORIZED);
    assert_eq!(
        agent.stats().host_effects_dropped,
        0,
        "no effect from forged action"
    );
}

#[test]
fn mac_from_other_session_does_not_transfer() {
    let (agent_a, handler_a) = agent_with_seed(3);
    let (agent_b, _) = agent_with_seed(4);
    // Signed for session B, replayed against session A.
    let mut req = Request::post("/poll?p=1", b"t=0".to_vec());
    auth::sign_request(agent_b.key(), &mut req);
    let resp = respond(&handler_a, req);
    assert_eq!(resp.status, Status::UNAUTHORIZED);
    assert_eq!(agent_a.stats().auth_failures, 1);
}

#[test]
fn object_requests_need_valid_tokens() {
    let (agent, handler) = agent_with_seed(5);
    // Prime the mapping table via a legitimate signed poll.
    let mut poll = Request::post("/poll?p=1", b"t=0".to_vec());
    auth::sign_request(agent.key(), &mut poll);
    let response = respond(&handler, poll);
    let nc = rcb::xml::parse_new_content(&response.body_str())
        .unwrap()
        .expect("first poll has content");
    let rcb::xml::TopLevel::Body(body) = &nc.top else {
        panic!("expected a body page");
    };
    let idx = body
        .inner_html
        .find("/cache/")
        .expect("cache URLs in content");
    let url: String = body.inner_html[idx..].split('"').next().unwrap().into();

    // No token, and an empty token: both malformed requests (400),
    // byte-identical — token *absence* is a 400, a *wrong* token a 401.
    let bare = url.split('?').next().unwrap().to_string();
    let r1 = respond(&handler, Request::get(bare.clone()));
    assert_eq!(r1.status, Status::BAD_REQUEST);
    let r1e = respond(&handler, Request::get(format!("{bare}?k=")));
    assert_eq!(r1e.status, Status::BAD_REQUEST);
    assert_eq!(r1e.body_str(), r1.body_str());

    // Forged token.
    let r2 = respond(&handler, Request::get(format!("{bare}?k=deadbeefdeadbeef")));
    assert_eq!(r2.status, Status::UNAUTHORIZED);

    // Token for a *different* object does not transfer.
    let other_path = "/cache/999999";
    let stolen = auth::object_token(agent.key(), other_path);
    let r3 = respond(&handler, Request::get(format!("{bare}?k={stolen}")));
    assert_eq!(r3.status, Status::UNAUTHORIZED);

    // The genuine URL works.
    let r4 = respond(&handler, Request::get(url));
    assert!(r4.status.is_success());
}

#[test]
fn view_only_policy_blocks_even_signed_actions() {
    use rcb::core::policy::InteractionPolicy;
    let (agent, handler) = session(
        SessionKey::generate_deterministic(&mut DetRng::new(6)),
        AgentConfig {
            interaction_policy: InteractionPolicy::ViewOnly,
            ..AgentConfig::default()
        },
    );
    let mut req = Request::post(
        "/poll?p=1",
        rcb::core::agent::build_poll_body(
            0,
            &[UserAction::Navigate {
                url: "http://cnn.com/".into(),
            }],
        ),
    );
    auth::sign_request(agent.key(), &mut req);
    let response = respond(&handler, req);
    assert!(response.status.is_success(), "viewing still works");
    assert_eq!(
        agent.stats().host_effects_dropped,
        0,
        "but actions are dropped"
    );
}

#[test]
fn keystream_protects_request_payloads() {
    // §3.4: "any important information in a request can also be
    // efficiently encrypted" — verify the primitive composes with the
    // action codec.
    let key = SessionKey::generate_deterministic(&mut DetRng::new(9));
    let secret_form = UserAction::FormInput {
        form: "shipping".into(),
        field: "card".into(),
        value: "4111-1111-1111-1111".into(),
    };
    let plaintext = secret_form.encode().into_bytes();
    let ct = rcb::crypto::keystream::encrypt(key.as_bytes(), 42, &plaintext);
    assert_ne!(ct, plaintext);
    assert!(!String::from_utf8_lossy(&ct).contains("4111"));
    let pt = rcb::crypto::keystream::decrypt(key.as_bytes(), 42, &ct);
    let decoded = UserAction::decode(&String::from_utf8(pt).unwrap()).unwrap();
    assert_eq!(decoded, secret_form);
}

#[test]
fn response_authentication_extension_end_to_end() {
    // §3.4 future work: the agent signs responses; the snippet verifies.
    use rcb::core::snippet::AjaxSnippet;
    use rcb::util::SimDuration;

    let key = SessionKey::generate_deterministic(&mut DetRng::new(20));
    let (agent, handler) = session(
        key.clone(),
        AgentConfig {
            authenticate_responses: true,
            ..AgentConfig::default()
        },
    );
    let mut snippet = AjaxSnippet::new(1, key.clone(), SimDuration::from_secs(1));
    snippet.require_response_auth = true;
    let mut participant = Browser::new(BrowserKind::Firefox);
    let join = respond(&handler, Request::get("/"));
    participant.doc = Some(rcb::html::parse_document(&join.body_str()));

    // Genuine response verifies and applies.
    let poll = snippet.build_poll();
    let response = respond(&handler, poll);
    assert!(response
        .headers
        .get(rcb::core::auth::RESPONSE_MAC_HEADER)
        .is_some());
    assert!(rcb::core::auth::verify_response(&key, &response));
    snippet
        .process_response(&response, &mut participant)
        .unwrap();

    // A tampered body fails closed on the participant side.
    agent.mutate_page(|_| {}).unwrap();
    let poll2 = snippet.build_poll();
    let mut response2 = respond(&handler, poll2);
    let mut tampered = response2.body.to_vec();
    tampered.extend_from_slice(b"<!-- injected -->");
    response2.body = tampered.into();
    let err = snippet
        .process_response(&response2, &mut participant)
        .unwrap_err();
    assert_eq!(err.category(), "auth");

    // Without the agent-side option, a strict snippet refuses unsigned
    // responses.
    let (_plain_agent, plain_handler) = session(key.clone(), AgentConfig::default());
    let mut snippet2 = AjaxSnippet::new(2, key, SimDuration::from_secs(1));
    snippet2.require_response_auth = true;
    let poll3 = snippet2.build_poll();
    let response3 = respond(&plain_handler, poll3);
    assert!(snippet2
        .process_response(&response3, &mut participant)
        .is_err());
}

#[test]
fn agent_never_panics_on_hostile_requests() {
    // Fuzz-style robustness: the agent faces arbitrary method/path/query/
    // body combinations (anything a port-scanning Internet will throw at
    // an open TCP port) and must answer every one without panicking.
    use rcb::http::Method;
    use rcb::util::DetRng;

    let (agent, handler) = agent_with_seed(30);
    let mut rng = DetRng::new(0xF0CCACC1A);
    let paths = [
        "/",
        "/poll",
        "/cache/0",
        "/cache/99999999",
        "/cache/abc",
        "/cache/",
        "//",
        "/%00",
        "/poll/extra",
        "/favicon.ico",
        "/..",
        "/cache/0/../1",
    ];
    let queries = [
        "",
        "?",
        "?hmac=",
        "?hmac=zz",
        "?p=-1",
        "?p=18446744073709551615",
        "?k=",
        "?k=0000000000000000",
        "?a=b&a=b&a=b",
        "?hmac=ff&hmac=ee",
    ];
    let bodies: [&[u8]; 6] = [
        b"",
        b"t=",
        b"t=99999999999999999999",
        b"t=1\nbogus|x|y",
        b"t=1\nnav|%ZZ",
        &[0xFF, 0xFE, 0x00, 0x01, b'\n', b'|', b'|'],
    ];
    let mut served = 0u32;
    for _ in 0..2_000u64 {
        let method = if rng.chance(0.5) {
            Method::Get
        } else {
            Method::Post
        };
        let target = format!("{}{}", rng.choose(&paths), rng.choose(&queries));
        let mut req = rcb::http::Request {
            method,
            target,
            headers: rcb::http::HeaderMap::new(),
            body: rng.choose(&bodies).to_vec(),
        };
        if rng.chance(0.2) {
            // Occasionally a correctly signed request with hostile body.
            auth::sign_request(agent.key(), &mut req);
        }
        let response = respond(&handler, req);
        served += u32::from(response.status.0 > 0);
    }
    assert_eq!(served, 2_000, "every request got some response");
}
