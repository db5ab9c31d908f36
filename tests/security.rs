//! Security integration tests (paper §3.4).
//!
//! The agent must reject everything that is not authenticated under the
//! session key: unsigned polls, tampered targets, tampered bodies,
//! replayed MACs on different content, and cache-object fetches with
//! forged tokens.

use rcb::browser::{Browser, BrowserKind, UserAction};
use rcb::core::agent::{AgentConfig, RcbAgent};
use rcb::core::auth;
use rcb::crypto::SessionKey;
use rcb::http::{Request, Status};
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

fn agent_with_seed(seed: u64) -> RcbAgent {
    RcbAgent::new(
        SessionKey::generate_deterministic(&mut DetRng::new(seed)),
        AgentConfig::default(),
    )
}

#[test]
fn unsigned_poll_is_unauthorized() {
    let mut agent = agent_with_seed(1);
    let mut host = loaded_host();
    let req = Request::post("/poll?p=1", b"t=0".to_vec());
    let resp = agent
        .handle_request(&req, &mut host, SimTime::ZERO)
        .response;
    assert_eq!(resp.status, Status::UNAUTHORIZED);
}

#[test]
fn tampered_action_payload_is_rejected() {
    let mut agent = agent_with_seed(2);
    let mut host = loaded_host();
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
    let outcome = agent.handle_request(&req, &mut host, SimTime::ZERO);
    assert_eq!(outcome.response.status, Status::UNAUTHORIZED);
    assert!(outcome.effects.is_empty(), "no effect from forged action");
}

#[test]
fn mac_from_other_session_does_not_transfer() {
    let mut agent_a = agent_with_seed(3);
    let agent_b = agent_with_seed(4);
    let mut host = loaded_host();
    // Signed for session B, replayed against session A.
    let mut req = Request::post("/poll?p=1", b"t=0".to_vec());
    auth::sign_request(agent_b.key(), &mut req);
    let resp = agent_a
        .handle_request(&req, &mut host, SimTime::ZERO)
        .response;
    assert_eq!(resp.status, Status::UNAUTHORIZED);
    assert_eq!(agent_a.request_stats().auth_failures, 1);
}

#[test]
fn object_requests_need_valid_tokens() {
    let mut agent = agent_with_seed(5);
    let mut host = loaded_host();
    // Prime the mapping table via a legitimate signed poll.
    let mut poll = Request::post("/poll?p=1", b"t=0".to_vec());
    auth::sign_request(agent.key(), &mut poll);
    let outcome = agent.handle_request(&poll, &mut host, SimTime::from_secs(1));
    let nc = rcb::xml::parse_new_content(&outcome.response.body_str())
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
    let r1 = agent
        .handle_request(&Request::get(bare.clone()), &mut host, SimTime::ZERO)
        .response;
    assert_eq!(r1.status, Status::BAD_REQUEST);
    let r1e = agent
        .handle_request(
            &Request::get(format!("{bare}?k=")),
            &mut host,
            SimTime::ZERO,
        )
        .response;
    assert_eq!(r1e.status, Status::BAD_REQUEST);
    assert_eq!(r1e.body_str(), r1.body_str());

    // Forged token.
    let r2 = agent
        .handle_request(
            &Request::get(format!("{bare}?k=deadbeefdeadbeef")),
            &mut host,
            SimTime::ZERO,
        )
        .response;
    assert_eq!(r2.status, Status::UNAUTHORIZED);

    // Token for a *different* object does not transfer.
    let other_path = "/cache/999999";
    let stolen = auth::object_token(agent.key(), other_path);
    let r3 = agent
        .handle_request(
            &Request::get(format!("{bare}?k={stolen}")),
            &mut host,
            SimTime::ZERO,
        )
        .response;
    assert_eq!(r3.status, Status::UNAUTHORIZED);

    // The genuine URL works.
    let r4 = agent
        .handle_request(&Request::get(url), &mut host, SimTime::ZERO)
        .response;
    assert!(r4.status.is_success());
}

#[test]
fn view_only_policy_blocks_even_signed_actions() {
    use rcb::core::policy::InteractionPolicy;
    let mut agent = RcbAgent::new(
        SessionKey::generate_deterministic(&mut DetRng::new(6)),
        AgentConfig {
            interaction_policy: InteractionPolicy::ViewOnly,
            ..AgentConfig::default()
        },
    );
    let mut host = loaded_host();
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
    let outcome = agent.handle_request(&req, &mut host, SimTime::ZERO);
    assert!(outcome.response.status.is_success(), "viewing still works");
    assert!(outcome.effects.is_empty(), "but actions are dropped");
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
    let mut agent = RcbAgent::new(
        key.clone(),
        AgentConfig {
            authenticate_responses: true,
            ..AgentConfig::default()
        },
    );
    let mut host = loaded_host();
    let mut snippet = AjaxSnippet::new(1, key.clone(), SimDuration::from_secs(1));
    snippet.require_response_auth = true;
    let mut participant = Browser::new(BrowserKind::Firefox);
    participant.doc = Some(rcb::html::parse_document(&agent.initial_page()));

    // Genuine response verifies and applies.
    let poll = snippet.build_poll();
    let outcome = agent.handle_request(&poll, &mut host, SimTime::from_secs(1));
    assert!(outcome
        .response
        .headers
        .get(rcb::core::auth::RESPONSE_MAC_HEADER)
        .is_some());
    assert!(rcb::core::auth::verify_response(&key, &outcome.response));
    snippet
        .process_response(&outcome.response, &mut participant)
        .unwrap();

    // A tampered body fails closed on the participant side.
    host.mutate_dom(|_| {}).unwrap();
    let poll2 = snippet.build_poll();
    let mut outcome2 = agent.handle_request(&poll2, &mut host, SimTime::from_secs(2));
    let mut tampered = outcome2.response.body.to_vec();
    tampered.extend_from_slice(b"<!-- injected -->");
    outcome2.response.body = tampered.into();
    let err = snippet
        .process_response(&outcome2.response, &mut participant)
        .unwrap_err();
    assert_eq!(err.category(), "auth");

    // Without the agent-side option, a strict snippet refuses unsigned
    // responses.
    let mut plain_agent = RcbAgent::new(key.clone(), AgentConfig::default());
    let mut snippet2 = AjaxSnippet::new(2, key, SimDuration::from_secs(1));
    snippet2.require_response_auth = true;
    let poll3 = snippet2.build_poll();
    let outcome3 = plain_agent.handle_request(&poll3, &mut host, SimTime::from_secs(3));
    assert!(snippet2
        .process_response(&outcome3.response, &mut participant)
        .is_err());
}

#[test]
fn agent_never_panics_on_hostile_requests() {
    // Fuzz-style robustness: the agent faces arbitrary method/path/query/
    // body combinations (anything a port-scanning Internet will throw at
    // an open TCP port) and must answer every one without panicking.
    use rcb::http::Method;
    use rcb::util::DetRng;

    let mut agent = agent_with_seed(30);
    let mut host = loaded_host();
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
    for i in 0..2_000u64 {
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
        let outcome = agent.handle_request(&req, &mut host, SimTime::from_millis(i));
        served += u32::from(outcome.response.status.0 > 0);
    }
    assert_eq!(served, 2_000, "every request got some response");
}
