//! Overload chaos in the deterministic world sim.
//!
//! Three adversarial scenarios — a slow-writer (slowloris) cohort, a
//! post-heal thundering herd against a tight admission mark, and an
//! oversize-request storm — each run twice from the same seed and
//! asserted byte-identical: the guards and shed paths are part of the
//! replay fingerprint, not best-effort wall-clock behavior.

use std::io::Write;
use std::time::Duration;

use rcb_browser::{Browser, BrowserKind};
use rcb_core::router::RouterConfig;
use rcb_core::worldsim::{ScriptEvent, WorldHost, WorldScenario};
use rcb_core::AgentConfig;
use rcb_crypto::SessionKey;
use rcb_http::client::try_parse_response;
use rcb_http::serialize::serialize_request;
use rcb_http::server::{OverloadConfig, ServerStats};
use rcb_http::Request;
use rcb_sim::{LinkModel, LinkSpec, SimConn, World};
use rcb_util::{DetRng, SimDuration};

const PAGE: &str = "<html><head><title>chaos</title></head>\
    <body><h1 id=\"headline\">steady state</h1></body></html>";

fn link() -> LinkModel {
    LinkModel::from_spec(LinkSpec::symmetric(
        100_000_000,
        SimDuration::from_millis(1),
    ))
}

fn start_host(world: &World, seed: u64, overload: OverloadConfig) -> WorldHost {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(seed));
    let mut browser = Browser::new(BrowserKind::Firefox);
    browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
    browser.doc = Some(rcb_html::parse_document(PAGE));
    browser.mutate_dom(|_| {}).unwrap();
    let host = WorldHost::start(
        world,
        "host",
        Box::new(|_| None),
        AgentConfig::default(),
        RouterConfig::default(),
        overload,
    )
    .unwrap();
    host.router().install_default_session(browser, key).unwrap();
    host
}

/// Pump host and fabric to quiescence (no park deadlines in play here).
fn settle(world: &World, host: &mut WorldHost) {
    loop {
        while host.pump() {}
        match world.next_event_time() {
            Some(t) if t > world.now() => world.advance_to(t),
            Some(_) => break, // due now: one more pump round below
            None => break,
        }
    }
    while host.pump() {}
}

fn read_status(conn: &mut SimConn) -> Option<u16> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        match conn.try_read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    try_parse_response(&buf)
        .ok()
        .flatten()
        .map(|(resp, _)| resp.status.0)
}

/// One slow-writer run: three connections dribble partial request heads
/// and go silent, one healthy client completes its request. The
/// slowloris guard must cut exactly the cohort, on the virtual clock.
fn slow_writer_run(seed: u64) -> (ServerStats, Option<u16>, Vec<String>) {
    let world = World::new(seed);
    let overload = OverloadConfig {
        header_read_timeout: Duration::from_secs(2),
        ..OverloadConfig::default()
    };
    let mut host = start_host(&world, seed, overload);
    let mut slow: Vec<SimConn> = (0..3)
        .map(|i| world.connect(&format!("slow{i}"), "host", link()).unwrap())
        .collect();
    for conn in &mut slow {
        conn.write_all(b"GET / HTTP/1.1\r\nHost: demo").unwrap();
    }
    let mut healthy = world.connect("ok", "host", link()).unwrap();
    healthy
        .write_all(&serialize_request(&Request::get("/")))
        .unwrap();
    settle(&world, &mut host);
    // One more dribbled byte a second in: the slowloris clock must keep
    // counting from the first partial byte, not reset per byte.
    world.advance_to(world.now() + SimDuration::from_secs(1));
    for conn in &mut slow {
        let _ = conn.write_all(b"x");
    }
    settle(&world, &mut host);
    // Silence past the guard deadline cuts the cohort.
    let deadline = host
        .next_guard_deadline()
        .expect("partial heads have a guard deadline");
    world.advance_to(deadline);
    settle(&world, &mut host);
    (
        host.server_stats(),
        read_status(&mut healthy),
        world.trace(),
    )
}

#[test]
fn slow_writer_cohort_is_cut_by_the_header_guard() {
    let (stats, healthy_status, _trace) = slow_writer_run(301);
    assert_eq!(stats.header_timeouts, 3, "exactly the dribbling cohort");
    assert_eq!(stats.idle_timeouts, 0);
    assert_eq!(stats.connections_accepted, 4);
    assert_eq!(healthy_status, Some(200), "healthy client unaffected");
}

#[test]
fn slow_writer_run_replays_byte_identically() {
    assert_eq!(slow_writer_run(302), slow_writer_run(302));
}

/// One oversize-storm run: clients hurl a huge request head and a huge
/// declared body alongside one healthy request; the host answers with
/// the prefab `431`/`413` and closes, never reaching the handler.
fn oversize_run(seed: u64) -> (ServerStats, Vec<Option<u16>>, Vec<String>) {
    let world = World::new(seed);
    let overload = OverloadConfig {
        max_header_bytes: 256,
        max_body_bytes: 256,
        ..OverloadConfig::default()
    };
    let mut host = start_host(&world, seed, overload);
    let mut conns = Vec::new();
    for i in 0..2 {
        let mut conn = world
            .connect(&format!("bighead{i}"), "host", link())
            .unwrap();
        let head = format!(
            "GET / HTTP/1.1\r\nHost: demo\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(512)
        );
        conn.write_all(head.as_bytes()).unwrap();
        conns.push(conn);
    }
    for i in 0..2 {
        let mut conn = world
            .connect(&format!("bigbody{i}"), "host", link())
            .unwrap();
        conn.write_all(b"POST /poll HTTP/1.1\r\nHost: demo\r\nContent-Length: 100000\r\n\r\n")
            .unwrap();
        conns.push(conn);
    }
    let mut healthy = world.connect("ok", "host", link()).unwrap();
    healthy
        .write_all(&serialize_request(&Request::get("/")))
        .unwrap();
    conns.push(healthy);
    settle(&world, &mut host);
    let statuses = conns.iter_mut().map(read_status).collect();
    (host.server_stats(), statuses, world.trace())
}

#[test]
fn oversize_storm_is_refused_with_prefab_rejections() {
    let (stats, statuses, _trace) = oversize_run(303);
    assert_eq!(stats.oversize_head, 2);
    assert_eq!(stats.oversize_body, 2);
    assert_eq!(
        statuses,
        vec![Some(431), Some(431), Some(413), Some(413), Some(200)]
    );
}

#[test]
fn oversize_run_replays_byte_identically() {
    assert_eq!(oversize_run(304), oversize_run(304));
}

/// The post-heal thundering herd: eight participants join in the same
/// quantized tick against an admission mark of two, six are partitioned
/// and healed together, and a host mutation lands after the storm. The
/// shed + seeded-backoff loop must both shed (the mark is real) and
/// converge every participant to the final content (the backoff works).
fn herd_scenario() -> WorldScenario {
    let mut sc = WorldScenario::new(305, "http://demo.local/", PAGE);
    sc.tick = Some(SimDuration::from_millis(100));
    sc.horizon = SimDuration::from_secs(25);
    sc.with_overload(OverloadConfig {
        queue_high_water: 2,
        retry_after_base_secs: 1,
        retry_after_jitter_secs: 2,
        ..OverloadConfig::default()
    });
    for pid in 1..=8 {
        sc.at(SimDuration::ZERO, ScriptEvent::Join { pid });
    }
    sc.at(
        SimDuration::from_secs(4),
        ScriptEvent::Partition {
            pids: (3..=8).collect(),
        },
    );
    sc.at(
        SimDuration::from_secs(7),
        ScriptEvent::Heal {
            pids: (3..=8).collect(),
        },
    );
    sc.at(
        SimDuration::from_secs(10),
        ScriptEvent::HostAppend {
            text: "after the storm".into(),
        },
    );
    sc
}

#[test]
fn thundering_herd_sheds_then_converges() {
    let report = herd_scenario().run().unwrap();
    assert!(
        report.server.requests_shed > 0,
        "the admission mark must actually shed: {:?}",
        report.server
    );
    let shed_total: u64 = report.participants.values().map(|p| p.sheds).sum();
    assert!(shed_total > 0, "participants must have absorbed 503s");
    for (pid, p) in &report.participants {
        assert_eq!(
            p.doc_time, report.host_doc_time,
            "p{pid} must converge to the post-storm content: {p:?}"
        );
    }
}

#[test]
fn thundering_herd_replays_byte_identically() {
    let sc = herd_scenario();
    assert_eq!(sc.run().unwrap(), sc.run().unwrap());
}
