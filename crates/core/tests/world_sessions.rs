//! Multi-session world sim: two routed sessions over one pump driver.
//!
//! The session router's promise is isolation — one tenant's storm is not
//! another tenant's outage. This suite pins that down deterministically:
//! a `storm` session with six fast-polling, constantly-acting
//! participants shares the serving driver with a `quiet` session holding
//! one plain poller and one parked long-poller, and
//!
//! * the quiet session's poll round-trips stay bounded (p99 over virtual
//!   time — exact, not statistical);
//! * content never leaks across sessions (the quiet documents converge
//!   to the quiet mutations and contain nothing of the storm's co-fill
//!   traffic, and vice versa);
//! * parked long-polls wake on their own session's publications only;
//! * the whole run replays byte-identically from the same seed, storm
//!   and all.

use std::collections::{BTreeMap, HashSet};

use rcb_browser::UserAction;
use rcb_core::router::{fixed_page_factory, RouterConfig};
use rcb_core::worldsim::{WorldHost, WorldParticipant};
use rcb_core::AgentConfig;
use rcb_http::server::OverloadConfig;
use rcb_sim::{NetProfile, World};
use rcb_util::{SimDuration, SimTime};

const PAGE_URL: &str = "http://host.example/session";
const PAGE_HTML: &str = "<html><head><title>routed</title></head>\
     <body><h1>Shared doc</h1>\
     <form id=\"f\"><input name=\"q\" value=\"\"/></form>\
     <p id=\"status\">ready</p></body></html>";

/// Virtual-time horizon of a run.
const HORIZON_MS: u64 = 10_000;
/// Fixed stepping quantum (coalesces fabric events per tick, like the
/// scenario runner's quantized mode).
const TICK_MS: u64 = 100;

/// Everything a run reports — `PartialEq`, so the replay test is one
/// assertion over the full outcome including the fabric trace.
#[derive(Debug, PartialEq)]
struct SessionsReport {
    trace: Vec<String>,
    /// Quiet plain-poller round trips, virtual micros, in completion
    /// order.
    quiet_latencies: Vec<u64>,
    /// (polls_completed, updates_applied) for the quiet long-poller.
    quiet_parked: (u64, u64),
    /// Storm polls completed, summed.
    storm_polls: u64,
    /// Requests the router dispatched into session handlers.
    requests_routed: u64,
    /// Final quiet and storm participant documents.
    quiet_doc: String,
    storm_doc: String,
    /// The session surfaced as the parked-polls outlier.
    max_parked_sid: Option<String>,
}

fn run_once(seed: u64) -> SessionsReport {
    let world = World::new(seed);
    let sids: HashSet<String> = ["quiet", "storm"].iter().map(|s| s.to_string()).collect();
    let factory = fixed_page_factory(
        PAGE_URL.to_string(),
        PAGE_HTML.to_string(),
        sids,
        "world-sessions-secret".to_string(),
    );
    let mut host = WorldHost::start(
        &world,
        "host",
        factory,
        AgentConfig::default(),
        RouterConfig {
            session_inflight: 2,
            session_waiters: 8,
            ..RouterConfig::default()
        },
        OverloadConfig::default(),
    )
    .unwrap();
    let quiet = host.router().create_session("quiet").unwrap();
    let storm = host.router().create_session("storm").unwrap();

    let profile = NetProfile::wan();
    let mut participants: BTreeMap<u64, WorldParticipant> = BTreeMap::new();
    // Quiet session: p1 is the latency probe (plain 1 s polls), p2 parks
    // long-polls and must wake only on quiet publications.
    let probe = WorldParticipant::new_in_session(
        &world,
        1,
        quiet.key().clone(),
        "host",
        profile.participant_link(),
        SimDuration::from_secs(1),
        "quiet",
    );
    participants.insert(1, probe);
    let mut parked = WorldParticipant::new_in_session(
        &world,
        2,
        quiet.key().clone(),
        "host",
        profile.participant_link(),
        SimDuration::from_secs(1),
        "quiet",
    );
    parked.snippet.long_poll = Some(SimDuration::from_secs(20));
    participants.insert(2, parked);
    // Storm session: six participants polling every 100 ms and pushing
    // co-fill actions every 500 ms.
    for pid in 11..=16 {
        let p = WorldParticipant::new_in_session(
            &world,
            pid,
            storm.key().clone(),
            "host",
            profile.participant_link(),
            SimDuration::from_millis(100),
            "storm",
        );
        participants.insert(pid, p);
    }

    let horizon = SimTime::ZERO + SimDuration::from_millis(HORIZON_MS);
    loop {
        let now_ms = (world.now() - SimTime::ZERO).as_micros() / 1000;
        if now_ms > 0 && now_ms.is_multiple_of(500) {
            for (i, p) in participants.values_mut().enumerate().skip(2) {
                p.act(UserAction::FormInput {
                    form: "f".into(),
                    field: "q".into(),
                    value: format!("storm-{now_ms}-{i}"),
                });
            }
        }
        if now_ms == 3_000 || now_ms == 6_000 {
            let n = now_ms / 3_000;
            quiet
                .mutate_page(|doc| {
                    let body = doc.body().expect("quiet page has a body");
                    let div = doc.create_element("div");
                    let t = doc.create_text(format!("quiet-update-{n}"));
                    doc.append_child(div, t).expect("fresh div");
                    doc.append_child(body, div).expect("quiet body");
                })
                .unwrap();
        }
        host.pump_to_quiescence(&world, &mut participants).unwrap();
        let next = world.now() + SimDuration::from_millis(TICK_MS);
        if next > horizon {
            break;
        }
        world.advance_to(next);
    }

    let stats = host.router().stats();
    SessionsReport {
        trace: world.trace(),
        quiet_latencies: participants[&1].poll_latencies.clone(),
        quiet_parked: (
            participants[&2].polls_completed,
            participants[&2].snippet.updates_applied,
        ),
        storm_polls: participants
            .range(11..)
            .map(|(_, p)| p.polls_completed)
            .sum(),
        requests_routed: stats.requests_routed,
        quiet_doc: doc_of(&participants[&1]),
        storm_doc: doc_of(&participants[&11]),
        max_parked_sid: stats.max_parked_polls.map(|o| o.sid),
    }
}

fn doc_of(p: &WorldParticipant) -> String {
    p.browser
        .doc
        .as_ref()
        .map(rcb_html::serialize::serialize_document)
        .unwrap_or_default()
}

/// Nearest-rank p99 over a latency sample.
fn p99(mut v: Vec<u64>) -> u64 {
    assert!(!v.is_empty(), "latency probe completed no polls");
    v.sort_unstable();
    let idx = ((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

#[test]
fn storm_session_does_not_starve_quiet_session() {
    let report = run_once(0xc0b_0a5e);

    // The storm really stormed: far more polls than the quiet session
    // ever issues, all dispatched through the shared driver.
    assert!(
        report.storm_polls > 100,
        "storm too small to prove anything: {} polls",
        report.storm_polls
    );
    assert!(report.requests_routed > report.storm_polls);

    // Quiet plain polls stay bounded: link RTT plus transfer, nowhere
    // near the storm's service volume. (Virtual time — exact replay, so
    // this is a hard gate, not a flaky percentile.)
    let p99 = p99(report.quiet_latencies.clone());
    assert!(
        p99 <= 500_000,
        "quiet session p99 poll round-trip {p99} µs exceeds 500 ms"
    );

    // Session isolation: the quiet documents converged to the quiet
    // mutations and carry none of the storm's co-fill values — and the
    // storm document never saw a quiet update.
    assert!(report.quiet_doc.contains("quiet-update-1"));
    assert!(report.quiet_doc.contains("quiet-update-2"));
    assert!(!report.quiet_doc.contains("storm-"));
    assert!(report.storm_doc.contains("storm-"));
    assert!(!report.storm_doc.contains("quiet-update"));

    // The long-poller woke on its own session's publications only: one
    // initial full-content poll plus one wake per quiet mutation. Had
    // storm publications woken it, polls_completed would track the
    // storm's publication rate instead.
    let (polls, updates) = report.quiet_parked;
    assert_eq!(updates, 3, "initial content + two quiet mutations");
    assert!(
        polls <= 4,
        "parked poller completed {polls} polls — woken by foreign publications"
    );

    // The two-tier stats surface the quiet session as the parked-polls
    // outlier (the storm parks nothing).
    assert_eq!(report.max_parked_sid.as_deref(), Some("quiet"));
}

/// The router sheds idle sessions from its own dispatch path: no test or
/// operator ever calls `evict_idle` here — session `idle` goes quiet,
/// session `busy` keeps polling, and the busy traffic alone crosses the
/// sweep interval and evicts the idle tenant (virtual clock, so the
/// idle horizon is exact).
#[test]
fn idle_sessions_are_swept_from_the_dispatch_path() {
    let world = World::new(11);
    let sids: HashSet<String> = ["idle", "busy"].iter().map(|s| s.to_string()).collect();
    let factory = fixed_page_factory(
        PAGE_URL.to_string(),
        PAGE_HTML.to_string(),
        sids,
        "world-sessions-secret".to_string(),
    );
    let mut host = WorldHost::start(
        &world,
        "host",
        factory,
        AgentConfig::default(),
        RouterConfig {
            idle_evict: std::time::Duration::from_secs(2),
            ..RouterConfig::default()
        },
        OverloadConfig::default(),
    )
    .unwrap();
    host.router().create_session("idle").unwrap();
    let busy = host.router().create_session("busy").unwrap();
    assert_eq!(host.router().session_count(), 2);

    let profile = NetProfile::wan();
    let poller = WorldParticipant::new_in_session(
        &world,
        1,
        busy.key().clone(),
        "host",
        profile.participant_link(),
        SimDuration::from_millis(500),
        "busy",
    );
    let mut participants = BTreeMap::from([(1, poller)]);
    let horizon = SimTime::ZERO + SimDuration::from_millis(6_000);
    loop {
        host.pump_to_quiescence(&world, &mut participants).unwrap();
        let next = world.now() + SimDuration::from_millis(TICK_MS);
        if next > horizon {
            break;
        }
        world.advance_to(next);
    }

    assert!(
        host.router().session("idle").is_none(),
        "idle session must be swept without an explicit evict_idle call"
    );
    assert!(
        host.router().session("busy").is_some(),
        "active session must survive the sweep"
    );
    assert_eq!(host.router().stats().sessions_evicted, 1);
    assert!(
        participants[&1].polls_completed > 0,
        "busy traffic actually flowed"
    );
}

#[test]
fn same_seed_replays_byte_identical() {
    let a = run_once(7);
    let b = run_once(7);
    assert_eq!(a, b, "same seed must replay the multi-session run exactly");
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the trace actually carries the fabric's seeded
    // randomness (otherwise the replay test proves nothing).
    let a = run_once(1);
    let b = run_once(2);
    assert_ne!(a.trace, b.trace);
}
