//! One host, many participants — topology and policy demonstration.
//!
//! Run with: `cargo run --example multi_participant`
//!
//! §3.3: "Each co-browsing host can support multiple participants, and a
//! participant can join or leave a session at any time", with high-level
//! policies deciding who may interact. Shows: mixed browser kinds,
//! generated-content reuse across participants (one M5 generation, N
//! deliveries), view-only policy, and host-confirmed navigation.

use rcb::browser::{BrowserKind, UserAction};
use rcb::core::agent::{AgentConfig, CacheMode};
use rcb::core::policy::{HostDecision, NavigationPolicy};
use rcb::core::session::CoBrowsingWorld;
use rcb::sim::NetProfile;
use rcb::util::SimDuration;

fn main() {
    // Host-confirmed navigation: the instructor inspects requests first.
    let config = AgentConfig {
        cache_mode: CacheMode::Cache,
        nav_policy: NavigationPolicy::HostConfirm,
        ..AgentConfig::default()
    };
    let mut world = CoBrowsingWorld::with_alexa20(NetProfile::lan(), config, 99);

    // Five students join, on different browser families.
    let students: Vec<usize> = (0..5)
        .map(|i| {
            world.add_participant(if i % 2 == 0 {
                BrowserKind::Firefox
            } else {
                BrowserKind::InternetExplorer
            })
        })
        .collect();
    println!("{} participants joined", students.len());

    // The instructor opens the lecture page; everyone follows.
    world.host_navigate("http://wikipedia.org/").unwrap();
    for &s in &students {
        let (sync, _) = world.poll_participant(s).unwrap();
        assert!(sync.is_some());
    }
    println!(
        "all {} participants synchronized; content generated {} time(s) (reused!)",
        students.len(),
        world.session().with_agent_stats(|s| s.generations.get())
    );
    assert_eq!(world.session().with_agent_stats(|s| s.generations.get()), 1);

    // A student asks to navigate; the policy queues it for confirmation.
    world.participant_action(
        students[2],
        UserAction::Navigate {
            url: "http://cnn.com/".into(),
        },
    );
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(students[2]).unwrap();
    assert_eq!(world.pending_confirmation.len(), 1);
    println!("student #3 requested cnn.com — pending host confirmation");

    // The instructor approves; the world executes the navigation.
    let effect = world.decide_pending(HostDecision::Approve).unwrap();
    if let rcb::core::agent::HostEffect::Navigate(url) = effect {
        world.host_navigate(&url).unwrap();
    }
    println!("approved; host now at {}", world.host_url().unwrap());

    // Everyone re-syncs to the new page.
    world.sleep(SimDuration::from_secs(1));
    for &s in &students {
        let (sync, _) = world.poll_participant(s).unwrap();
        assert!(sync.is_some());
    }
    let d0 = world.participants[students[0]]
        .browser
        .doc
        .as_ref()
        .unwrap();
    assert!(d0.text_content(d0.root()).contains("cnn.com"));
    println!("lecture moved to cnn.com for every participant ✓");

    // One student leaves mid-session.
    world.remove_participant(students[4]);
    println!(
        "a student left; {} participants remain connected",
        world.session().participant_count()
    );
}
