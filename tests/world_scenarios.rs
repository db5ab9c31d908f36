//! Session-lifecycle and topology scenarios (paper §3.3).
//!
//! "Each co-browsing host can support multiple participants, and a
//! participant can join or leave a session at any time. A user can even
//! host a co-browsing session and meanwhile join sessions hosted by other
//! users."

use rcb::browser::{BrowserKind, UserAction};
use rcb::core::agent::{AgentConfig, CacheMode};
use rcb::core::policy::{HostDecision, InteractionPolicy, NavigationPolicy};
use rcb::core::session::CoBrowsingWorld;
use rcb::sim::NetProfile;
use rcb::util::SimDuration;

fn lan_world(seed: u64) -> CoBrowsingWorld {
    CoBrowsingWorld::with_alexa20(NetProfile::lan(), AgentConfig::default(), seed)
}

#[test]
fn late_joiner_catches_up_immediately() {
    let mut world = lan_world(1);
    let early = world.add_participant(BrowserKind::Firefox);
    world.host_navigate("http://ebay.com/").unwrap();
    world.poll_participant(early).unwrap().0.unwrap();
    // Several pages later a second participant joins mid-session.
    world.host_navigate("http://cnn.com/").unwrap();
    world.sleep(SimDuration::from_secs(3));
    let late = world.add_participant(BrowserKind::InternetExplorer);
    let (sync, _) = world.poll_participant(late).unwrap();
    assert!(sync.is_some(), "late joiner gets the current page at once");
    let doc = world.participants[late].browser.doc.as_ref().unwrap();
    assert!(doc.text_content(doc.root()).contains("cnn.com"));
}

#[test]
fn leaver_does_not_disturb_others() {
    let mut world = lan_world(2);
    let a = world.add_participant(BrowserKind::Firefox);
    let b = world.add_participant(BrowserKind::Firefox);
    world.host_navigate("http://msn.com/").unwrap();
    world.poll_participant(a).unwrap().0.unwrap();
    world.poll_participant(b).unwrap().0.unwrap();
    world.remove_participant(0); // a leaves
                                 // b (now index 0) keeps syncing fine.
    world
        .mutate_host_page(|doc| {
            let body = doc.body().unwrap();
            let d = doc.create_element("div");
            doc.append_child(body, d).unwrap();
        })
        .unwrap();
    world.sleep(SimDuration::from_secs(1));
    let (sync, _) = world.poll_participant(0).unwrap();
    assert!(sync.is_some());
    assert_eq!(world.session().participant_count(), 1);
}

#[test]
fn moderated_policy_gates_by_participant_id() {
    let mut world = CoBrowsingWorld::with_alexa20(
        NetProfile::lan(),
        AgentConfig {
            interaction_policy: InteractionPolicy::Moderated([2u64].into_iter().collect()),
            ..AgentConfig::default()
        },
        3,
    );
    let p1 = world.add_participant(BrowserKind::Firefox); // id 1 — not allowed
    let p2 = world.add_participant(BrowserKind::Firefox); // id 2 — allowed
    world.host_navigate("http://google.com/").unwrap();
    world.poll_participant(p1).unwrap();
    world.poll_participant(p2).unwrap();

    world.participant_action(
        p1,
        UserAction::Navigate {
            url: "http://apple.com/".into(),
        },
    );
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(p1).unwrap();
    assert_eq!(
        world.host_url().unwrap().host,
        "google.com",
        "unauthorized participant cannot drive the host"
    );

    world.participant_action(
        p2,
        UserAction::Navigate {
            url: "http://apple.com/".into(),
        },
    );
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(p2).unwrap();
    assert_eq!(
        world.host_url().unwrap().host,
        "apple.com",
        "moderated participant drives the host"
    );
}

#[test]
fn host_confirm_policy_rejects_and_approves() {
    let mut world = CoBrowsingWorld::with_alexa20(
        NetProfile::lan(),
        AgentConfig {
            nav_policy: NavigationPolicy::HostConfirm,
            ..AgentConfig::default()
        },
        4,
    );
    let p = world.add_participant(BrowserKind::Firefox);
    world.host_navigate("http://google.com/").unwrap();
    world.poll_participant(p).unwrap();

    for (url, decision, expected_host) in [
        ("http://ebay.com/", HostDecision::Reject, "google.com"),
        ("http://apple.com/", HostDecision::Approve, "apple.com"),
    ] {
        world.participant_action(p, UserAction::Navigate { url: url.into() });
        world.sleep(SimDuration::from_secs(1));
        world.poll_participant(p).unwrap();
        assert_eq!(world.pending_confirmation.len(), 1);
        if let Some(rcb::core::agent::HostEffect::Navigate(u)) = world.decide_pending(decision) {
            world.host_navigate(&u).unwrap();
        }
        assert_eq!(world.host_url().unwrap().host, expected_host);
    }
}

#[test]
fn a_user_can_host_and_participate_simultaneously() {
    // Two worlds: user X hosts world 1 and participates in world 2 —
    // "using different browser windows or tabs" (§3.3). The state is
    // fully independent per window, which is what the test pins down.
    let mut world1 = lan_world(5);
    let mut world2 = lan_world(6);
    let _x_guest = world2.add_participant(BrowserKind::Firefox);
    let y_guest = world1.add_participant(BrowserKind::Firefox);

    world1.host_navigate("http://ebay.com/").unwrap(); // X hosts ebay
    world2.host_navigate("http://cnn.com/").unwrap(); // Y hosts cnn
    world1.poll_participant(y_guest).unwrap().0.unwrap();
    world2.poll_participant(0).unwrap().0.unwrap();

    let d1 = world1.participants[y_guest].browser.doc.as_ref().unwrap();
    let d2 = world2.participants[0].browser.doc.as_ref().unwrap();
    assert!(d1.text_content(d1.root()).contains("ebay.com"));
    assert!(d2.text_content(d2.root()).contains("cnn.com"));
}

#[test]
fn non_cache_mode_world_end_to_end_on_wan() {
    let mut world = CoBrowsingWorld::with_alexa20(
        NetProfile::wan(),
        AgentConfig {
            cache_mode: CacheMode::NonCache,
            ..AgentConfig::default()
        },
        7,
    );
    let p = world.add_participant(BrowserKind::Firefox);
    world.host_navigate("http://adobe.com/").unwrap();
    let (sync, _) = world.poll_participant(p).unwrap();
    let sync = sync.unwrap();
    assert!(sync.objects > 0);
    // Objects came from the origin over the participant's own link.
    assert!(world.participants[p]
        .browser
        .cache
        .urls()
        .iter()
        .all(|u| u.starts_with("http://adobe.com/")));
    // WAN sync is slower than a LAN sync of the same page, but bounded.
    assert!(sync.m2 > SimDuration::from_millis(100));
    assert!(sync.m2 < SimDuration::from_secs(10));
}

#[test]
fn mixed_cache_modes_across_sequential_sessions() {
    // The mode is an agent configuration; verify both modes work against
    // the same site back to back with independent worlds.
    for (mode, prefix) in [
        (CacheMode::Cache, "/cache/"),
        (CacheMode::NonCache, "http://free.fr/"),
    ] {
        let mut world = CoBrowsingWorld::with_alexa20(
            NetProfile::lan(),
            AgentConfig {
                cache_mode: mode,
                ..AgentConfig::default()
            },
            8,
        );
        let p = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://free.fr/").unwrap();
        world.poll_participant(p).unwrap().0.unwrap();
        let urls = world.participants[p].browser.cache.urls();
        assert!(!urls.is_empty());
        assert!(
            urls.iter().all(|u| u.starts_with(prefix)),
            "mode {mode:?}: unexpected cache keys {urls:?}"
        );
    }
}

#[test]
fn rapid_navigation_only_delivers_latest_content() {
    let mut world = lan_world(9);
    let p = world.add_participant(BrowserKind::Firefox);
    // Host flips through three pages before the participant polls once.
    world.host_navigate("http://google.com/").unwrap();
    world.host_navigate("http://ebay.com/").unwrap();
    world.host_navigate("http://apple.com/").unwrap();
    let (sync, _) = world.poll_participant(p).unwrap();
    assert!(sync.is_some());
    let doc = world.participants[p].browser.doc.as_ref().unwrap();
    let text = doc.text_content(doc.root());
    assert!(
        text.contains("apple.com"),
        "participant sees only the latest page"
    );
    assert_eq!(world.participants[p].snippet.updates_applied, 1);
    // Intermediate pages were never generated for this participant.
    assert_eq!(world.session().stats().polls_with_content, 1);
}

#[test]
fn recorder_captures_and_replays_the_session() {
    use rcb::core::recorder::{SessionEvent, SessionRecorder};
    let mut world = lan_world(10);
    let p = world.add_participant(BrowserKind::Firefox);
    world.host_navigate("http://google.com/").unwrap();
    world.participant_action(
        p,
        UserAction::FormInput {
            form: "q".into(),
            field: "q".into(),
            value: "recorded".into(),
        },
    );
    world.poll_participant(p).unwrap();
    world.remove_participant(p);

    let log = &world.recorder;
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e.event, SessionEvent::Join { pid: 1 })));
    assert!(log.events().iter().any(
        |e| matches!(e.event, SessionEvent::HostNavigate { ref url } if url.contains("google"))
    ));
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e.event, SessionEvent::Sync { pid: 1, .. })));
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e.event, SessionEvent::Leave { pid: 1 })));

    // Text round-trip and replay statistics.
    let text = log.to_text();
    let parsed = SessionRecorder::from_text(&text).unwrap();
    assert_eq!(parsed.events(), log.events());
    let summary = parsed.replay_summary();
    assert_eq!(summary.syncs, 1);
    assert_eq!(summary.actions, 1);
    assert!(summary.mean_sync_lag > rcb::util::SimDuration::ZERO);
}

#[test]
fn host_back_button_resyncs_previous_page() {
    let mut world = lan_world(11);
    let p = world.add_participant(BrowserKind::Firefox);
    world.host_navigate("http://google.com/").unwrap();
    world.poll_participant(p).unwrap().0.unwrap();
    world.host_navigate("http://apple.com/").unwrap();
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(p).unwrap().0.unwrap();

    // Back to google; the participant follows on the next poll.
    assert!(world.host_back().unwrap().is_some());
    assert_eq!(world.host_url().unwrap().host, "google.com");
    world.sleep(SimDuration::from_secs(1));
    let (sync, _) = world.poll_participant(p).unwrap();
    assert!(sync.is_some());
    let doc = world.participants[p].browser.doc.as_ref().unwrap();
    assert!(doc.text_content(doc.root()).contains("google.com"));

    // And forward again.
    assert!(world.host_forward().unwrap().is_some());
    assert_eq!(world.host_url().unwrap().host, "apple.com");
    // No further forward history.
    assert!(world.host_forward().unwrap().is_none());
}
