//! Session-router edge cases over real sockets: unknown and malformed
//! session ids, the session cap, idle eviction under parked long-polls,
//! and byte-identity of every edge response across all three serving
//! backends and the world sim's pump driver.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rcb_core::router::{fixed_page_factory, RouterConfig, RouterHost, SessionFactory};
use rcb_core::snippet::SnippetOutcome;
use rcb_core::tcp::TcpParticipant;
use rcb_core::worldsim::WorldHost;
use rcb_core::AgentConfig;
use rcb_http::client::try_parse_response;
use rcb_http::serialize::serialize_request;
use rcb_http::server::{OverloadConfig, ServerBackend, ServerConfig, EPOLL_SUPPORTED};
use rcb_http::{Request, Response, Status};
use rcb_sim::{LinkModel, LinkSpec, World};
use rcb_util::SimDuration;

const PAGE_URL: &str = "http://host.example/session";
const PAGE: &str = "<html><head><title>edge</title></head>\
     <body><h1 id=\"headline\">routed</h1></body></html>";

fn backends() -> Vec<ServerBackend> {
    let mut backends = vec![ServerBackend::Workers];
    if EPOLL_SUPPORTED {
        backends.push(ServerBackend::EpollSharded(1));
        backends.push(ServerBackend::EpollSharded(2));
    }
    backends
}

fn factory(sids: &[&str]) -> SessionFactory {
    let sids: HashSet<String> = sids.iter().map(|s| s.to_string()).collect();
    fixed_page_factory(
        PAGE_URL.to_string(),
        PAGE.to_string(),
        sids,
        "edge-secret".to_string(),
    )
}

fn start_router(backend: ServerBackend, router_config: RouterConfig, sids: &[&str]) -> RouterHost {
    RouterHost::start(
        "127.0.0.1:0",
        factory(sids),
        AgentConfig::default(),
        router_config,
        ServerConfig {
            backend,
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// One request on a fresh connection; returns the raw response bytes
/// (exactly as framed on the wire) plus the parsed response.
fn raw_get(addr: &str, path: &str) -> (Vec<u8>, rcb_http::Response) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&serialize_request(&Request::get(path)))
        .unwrap();
    let mut buf = Vec::new();
    loop {
        if let Some((resp, consumed)) = try_parse_response(&buf).unwrap() {
            return (buf[..consumed].to_vec(), resp);
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed before a full response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One request on a fresh fabric connection to a world-sim host, stepped
/// on virtual time until the reply is framed; returns the raw response
/// bytes plus the parsed response, as [`raw_get`] does over a socket.
fn sim_get(world: &World, host: &mut WorldHost, path: &str) -> (Vec<u8>, Response) {
    let link = LinkModel::from_spec(LinkSpec::symmetric(
        100_000_000,
        SimDuration::from_millis(1),
    ));
    let mut conn = world.connect("edge", "host", link).unwrap();
    conn.write_all(&serialize_request(&Request::get(path)))
        .unwrap();
    let mut buf = Vec::new();
    loop {
        while host.pump() {}
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = conn.try_read(&mut chunk) {
            buf.extend_from_slice(&chunk[..n]);
        }
        if let Some((resp, consumed)) = try_parse_response(&buf).unwrap() {
            return (buf[..consumed].to_vec(), resp);
        }
        let next = world.next_event_time().expect("the reply is in flight");
        world.advance_to(next);
    }
}

#[test]
fn unknown_and_malformed_sids_get_the_prefab_404() {
    let mut host = start_router(ServerBackend::Workers, RouterConfig::default(), &["a"]);
    let addr = host.addr().to_string();

    for path in ["/s/nope/", "/s/nope/poll?p=1", "/s/", "/s/a"] {
        let (_, resp) = raw_get(&addr, path);
        assert_eq!(resp.status, Status::NOT_FOUND, "path {path}");
        assert_eq!(resp.body_str(), "unknown session", "path {path}");
    }
    assert_eq!(host.stats().unknown_session_404s, 4);
    assert_eq!(host.stats().sessions_live, 0, "no session was created");
    host.shutdown();
}

#[test]
fn session_cap_sheds_with_retry_after() {
    let mut host = start_router(
        ServerBackend::Workers,
        RouterConfig {
            max_sessions: 1,
            ..RouterConfig::default()
        },
        &["a", "b"],
    );
    let addr = host.addr().to_string();

    let (_, ok) = raw_get(&addr, "/s/a/");
    assert!(ok.status.is_success());

    let (_, shed) = raw_get(&addr, "/s/b/");
    assert_eq!(shed.status, Status::SERVICE_UNAVAILABLE);
    assert!(
        shed.retry_after().is_some(),
        "cap shed must tell clients when to come back"
    );

    // The capped sid was not half-created: the slot still belongs to the
    // one live session, and the counter points at the cap.
    let stats = host.stats();
    assert_eq!(stats.sessions_live, 1);
    assert_eq!(stats.cap_sheds, 1);
    assert!(host.router().session("b").is_none());
    host.shutdown();
}

#[test]
fn evicting_an_idle_session_completes_its_parked_polls() {
    for backend in backends() {
        let mut host = start_router(
            backend,
            RouterConfig {
                // Everything is instantly "idle": eviction is driven
                // explicitly by the evict_idle() calls below.
                idle_evict: Duration::ZERO,
                ..RouterConfig::default()
            },
            &["a"],
        );
        let addr = host.addr().to_string();
        let handle = host.router().create_session("a").unwrap();
        let key = handle.key().clone();

        let mut p =
            TcpParticipant::join_session(&addr, "a", key, 1, &AgentConfig::default()).unwrap();
        // First poll drains the initial content so the next one parks.
        assert!(matches!(p.poll().unwrap(), SnippetOutcome::Updated { .. }));
        p.enable_long_poll(SimDuration::from_secs(5));
        let parked = std::thread::spawn(move || p.poll());

        // Wait until the engine holds the park, then evict the session.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.stats().polls_parked == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{backend:?}: poll never parked"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(host.router().evict_idle(), 1, "{backend:?}");

        // The parked poll resolves immediately with the timeout (empty)
        // reply — no dangling connection, no slot held.
        let outcome = parked.join().expect("parked poll thread").unwrap();
        assert!(
            matches!(outcome, SnippetOutcome::NoNewContent),
            "{backend:?}: evicted park must complete with the empty reply"
        );
        assert_eq!(handle.stats().polls_park_timeouts, 1, "{backend:?}");
        assert!(host.router().session("a").is_none(), "{backend:?}");
        assert_eq!(host.router().session_count(), 0, "{backend:?}");

        // The sid is re-creatable afterwards (the factory still knows
        // it) with a fresh channel of its own, and the next sweep evicts
        // the recreated session — the process keeps serving with nothing
        // leaked.
        let mut again = TcpParticipant::join_session(
            &addr,
            "a",
            handle.key().clone(),
            2,
            &AgentConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            again.poll().unwrap(),
            SnippetOutcome::Updated { .. }
        ));
        assert_eq!(host.router().evict_idle(), 1, "{backend:?}");
        host.shutdown();
    }
}

/// The edge responses — unknown sid, malformed sid, session-cap shed —
/// must be byte-identical across the workers, epoll, and sharded-epoll
/// engines and the world sim's pump driver (same prefabs, same
/// shed draw sequence), and a one-session world — its browser the
/// router's default session, as `TcpHost` installs it — must answer an
/// unknown sid with the same prefab 404.
#[test]
fn edge_responses_are_byte_identical_across_backends() {
    let router_config = || RouterConfig {
        max_sessions: 1,
        ..RouterConfig::default()
    };
    let paths = ["/s/nope/", "/s/", "/s/a", "/s/b/"];
    let mut captures: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
    for backend in backends() {
        let mut host = start_router(backend, router_config(), &["a", "b"]);
        let addr = host.addr().to_string();
        // Occupy the single session slot (response carries wall-clock
        // timestamps, so it is exercised but not compared).
        let (_, ok) = raw_get(&addr, "/s/a/");
        assert!(ok.status.is_success(), "{backend:?}");

        let wires = paths.iter().map(|path| raw_get(&addr, path).0).collect();
        captures.push((format!("{backend:?}"), wires));
        host.shutdown();
    }
    // The socket legs and the sim leg start from the same overload
    // defaults.
    let world = World::new(1);
    let mut host = WorldHost::start(
        &world,
        "host",
        factory(&["a", "b"]),
        AgentConfig::default(),
        router_config(),
        OverloadConfig::default(),
    )
    .unwrap();
    let (_, ok) = sim_get(&world, &mut host, "/s/a/");
    assert!(ok.status.is_success(), "world sim");
    let wires = paths
        .iter()
        .map(|path| sim_get(&world, &mut host, path).0)
        .collect();
    captures.push(("world sim".to_string(), wires));

    let (first_backend, reference) = &captures[0];
    for (backend, wires) in &captures[1..] {
        assert_eq!(
            wires, reference,
            "{backend} edge responses differ from {first_backend}"
        );
    }

    let world = World::new(2);
    let mut host = WorldHost::start(
        &world,
        "host",
        Box::new(|_| None),
        AgentConfig::default(),
        RouterConfig::default(),
        OverloadConfig::default(),
    )
    .unwrap();
    let (browser, key) = factory(&["solo"])("solo").unwrap();
    host.router().install_default_session(browser, key).unwrap();
    // At the cap `/s/nope/` sheds above; the router's prefab 404 is the
    // reply the socket legs gave the malformed `/s/`.
    let (wire, resp) = sim_get(&world, &mut host, "/s/nope/");
    assert_eq!(resp.body_str(), "unknown session");
    assert_eq!(wire, reference[1], "one-session world answering /s/nope/");
}
