//! Cross-crate integration: the full RCB wire protocol, end to end.
//!
//! Every hop goes through real serialization: the snippet's poll is
//! serialized to HTTP bytes and re-parsed before the agent sees it, and
//! the agent's XML response likewise — byte-level fidelity of the whole
//! Fig. 2 → Fig. 5 path. The agent is a one-session router's handler,
//! the entry every serving engine calls.

use rcb::browser::{Browser, BrowserKind, UserAction};
use rcb::core::agent::{AgentConfig, CacheMode};
use rcb::core::router::{RouterConfig, SessionHandle, SessionRouter};
use rcb::core::session::CoBrowsingWorld;
use rcb::core::snippet::{AjaxSnippet, SnippetOutcome};
use rcb::crypto::SessionKey;
use rcb::http::serialize::{serialize_request, serialize_response};
use rcb::http::server::{Handler, HandlerOutcome, ServerConfig};
use rcb::http::{parse_request, parse_response, Request, Response};
use rcb::origin::OriginRegistry;
use rcb::sim::link::Pipe;
use rcb::sim::NetProfile;
use rcb::util::{DetRng, SimDuration, SimTime};

fn loaded_host(site: &str) -> (Browser, OriginRegistry) {
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut b = Browser::new(BrowserKind::Firefox);
    b.navigate(
        &rcb::url::Url::parse(&format!("http://{site}/")).unwrap(),
        &mut origins,
        &mut pipe,
        &profile,
        SimTime::ZERO,
    )
    .unwrap();
    (b, origins)
}

/// A one-session router over `host`: the session and its handler.
fn session(key: SessionKey, config: AgentConfig, host: Browser) -> (SessionHandle, Handler) {
    let router = SessionRouter::new(
        Box::new(|_| None),
        config,
        RouterConfig::default(),
        &ServerConfig::default(),
    );
    let session = router.install_default_session(host, key).unwrap();
    (session, router.make_handler())
}

/// The reply to `req`; these tests send no long-poll.
fn respond(handler: &Handler, req: Request) -> Response {
    match handler(req) {
        HandlerOutcome::Respond(response) => response,
        HandlerOutcome::Park(_) => panic!("no long-poll here"),
    }
}

fn body_text(doc: &rcb::html::Document) -> String {
    doc.text_content(doc.body().unwrap())
}

#[test]
fn poll_survives_wire_serialization_both_ways() {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(5));
    let (host, _) = loaded_host("facebook.com");
    // The host page stays as loaded: no action rides the poll.
    let host_text = body_text(host.doc.as_ref().unwrap());
    let (_agent, handler) = session(key.clone(), AgentConfig::default(), host);
    let mut snippet = AjaxSnippet::new(1, key, SimDuration::from_secs(1));
    let mut participant = Browser::new(BrowserKind::Firefox);
    let join = respond(&handler, Request::get("/"));
    participant.doc = Some(rcb::html::parse_document(&join.body_str()));

    // Snippet → bytes → agent.
    let poll = snippet.build_poll();
    let wire = serialize_request(&poll);
    let reparsed = parse_request(&wire).expect("poll survives the wire");
    assert_eq!(reparsed, poll);
    let response = respond(&handler, reparsed);

    // Agent → bytes → snippet.
    let resp_wire = serialize_response(&response);
    let resp = parse_response(&resp_wire).expect("response survives the wire");
    let result = snippet.process_response(&resp, &mut participant).unwrap();
    let SnippetOutcome::Updated { object_urls, .. } = result else {
        panic!("expected content on first poll");
    };
    assert!(!object_urls.is_empty());

    // The participant body mirrors the host body text.
    let pd = participant.doc.as_ref().unwrap();
    assert_eq!(host_text, pd.text_content(pd.body().unwrap()));
}

#[test]
fn multi_site_browsing_sequence_stays_in_sync() {
    let mut world = CoBrowsingWorld::with_alexa20(NetProfile::lan(), AgentConfig::default(), 11);
    let p = world.add_participant(BrowserKind::Firefox);
    for site in ["google.com", "ebay.com", "cnn.com", "apple.com"] {
        world.host_navigate(&format!("http://{site}/")).unwrap();
        world.sleep(SimDuration::from_secs(1));
        let (sync, _) = world.poll_participant(p).unwrap();
        assert!(sync.is_some(), "navigation to {site} must resync");
        let host_text = world.host_browser(|b| body_text(b.doc.as_ref().unwrap()));
        let pd = world.participants[p].browser.doc.as_ref().unwrap();
        assert_eq!(
            host_text,
            pd.text_content(pd.body().unwrap()),
            "divergence after {site}"
        );
    }
    // The participant browser never navigated away from the agent: its
    // snippet kept every sync (4 pages) without a location change.
    assert_eq!(world.participants[p].snippet.updates_applied, 4);
}

#[test]
fn frameset_page_synchronizes() {
    // Hand-build a frameset page on the host and push it through the
    // whole stack.
    let key = SessionKey::generate_deterministic(&mut DetRng::new(8));
    let mut host = Browser::new(BrowserKind::Firefox);
    host.url = Some(rcb::url::Url::parse("http://frames.example/").unwrap());
    host.doc = Some(rcb::html::parse_document(
        "<html><head><title>framed</title></head>\
         <frameset rows=\"20%,80%\"><frame src=\"/top.html\"><frame src=\"/main.html\">\
         <noframes>please enable frames</noframes></frameset></html>",
    ));
    host.mutate_dom(|_| {}).unwrap();
    let config = AgentConfig {
        cache_mode: CacheMode::NonCache,
        ..AgentConfig::default()
    };
    let (_agent, handler) = session(key.clone(), config, host);

    let mut snippet = AjaxSnippet::new(1, key, SimDuration::from_secs(1));
    let mut participant = Browser::new(BrowserKind::InternetExplorer);
    let join = respond(&handler, Request::get("/"));
    participant.doc = Some(rcb::html::parse_document(&join.body_str()));

    let poll = snippet.build_poll();
    let response = respond(&handler, poll);
    let result = snippet
        .process_response(&response, &mut participant)
        .unwrap();
    assert!(matches!(result, SnippetOutcome::Updated { .. }));
    let pd = participant.doc.as_ref().unwrap();
    assert!(pd.body().is_none(), "initial body replaced by frames");
    let fs = pd.frameset().expect("frameset synchronized");
    assert_eq!(pd.get_attr(fs, "rows"), Some("20%,80%"));
    assert!(pd.text_content(pd.root()).contains("please enable frames"));
}

#[test]
fn participant_actions_round_trip_through_wire_bytes() {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(13));
    let (host, _) = loaded_host("google.com");
    let (agent, handler) = session(key.clone(), AgentConfig::default(), host);
    let mut snippet = AjaxSnippet::new(7, key, SimDuration::from_secs(1));

    snippet.capture_action(UserAction::FormInput {
        form: "q".into(),
        field: "q".into(),
        value: "rust systems — 100% \"quoted\"".into(),
    });
    let wire = serialize_request(&snippet.build_poll());
    let req = parse_request(&wire).unwrap();
    respond(&handler, req);

    let fields = agent.form_fields("q");
    assert!(fields.contains(&(
        "q".to_string(),
        "rust systems — 100% \"quoted\"".to_string()
    )));
}

#[test]
fn ie_and_firefox_participants_render_identically() {
    let mut world = CoBrowsingWorld::with_alexa20(NetProfile::lan(), AgentConfig::default(), 17);
    let ff = world.add_participant(BrowserKind::Firefox);
    let ie = world.add_participant(BrowserKind::InternetExplorer);
    world.host_navigate("http://nytimes.com/").unwrap();
    world.poll_participant(ff).unwrap().0.unwrap();
    world.poll_participant(ie).unwrap().0.unwrap();
    let d1 = world.participants[ff].browser.doc.as_ref().unwrap();
    let d2 = world.participants[ie].browser.doc.as_ref().unwrap();
    assert_eq!(
        rcb::html::inner_html(d1, d1.body().unwrap()),
        rcb::html::inner_html(d2, d2.body().unwrap())
    );
    assert_eq!(
        rcb::html::inner_html(d1, d1.head().unwrap()),
        rcb::html::inner_html(d2, d2.head().unwrap())
    );
}
