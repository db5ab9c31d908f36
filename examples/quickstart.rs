//! Quickstart: host a co-browsing session, join it, synchronize a page.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Walks the paper's nine-step session (§3.1) on a simulated LAN: the
//! host starts RCB-Agent, a participant joins with a regular browser,
//! the host navigates, and the participant's page follows — then a
//! dynamic DOM change on the host side synchronizes too.

use rcb::browser::BrowserKind;
use rcb::core::agent::{AgentConfig, CacheMode};
use rcb::core::session::CoBrowsingWorld;
use rcb::sim::NetProfile;
use rcb::util::SimDuration;

fn main() {
    // Step 1: the host starts RCB-Agent (cache mode, 1 s polling).
    let config = AgentConfig {
        cache_mode: CacheMode::Cache,
        ..AgentConfig::default()
    };
    let mut world = CoBrowsingWorld::with_alexa20(NetProfile::lan(), config, 42);
    println!(
        "RCB session up — key (share out of band): {}",
        world.session().key().to_hex()
    );

    // Step 2: a participant joins by typing the agent URL.
    let alice = world.add_participant(BrowserKind::Firefox);
    println!("participant joined at {}", world.now);

    // Steps 3-4: the host browses a page.
    let load = world.host_navigate("http://wikipedia.org/").unwrap();
    println!(
        "host loaded wikipedia.org: M1 = {} ({} objects, {} moved)",
        load.html_time, load.objects_fetched, load.bytes_moved
    );

    // Steps 5-8: the participant's next poll synchronizes everything.
    let (sync, _) = world.poll_participant(alice).unwrap();
    let sync = sync.expect("first poll carries the page");
    println!(
        "participant synchronized: M2 = {}, objects in {} (cache mode, {} objects)",
        sync.m2, sync.object_time, sync.objects
    );

    // Step 9: dynamic changes keep flowing.
    world
        .mutate_host_page(|doc| {
            let body = doc.body().expect("page has a body");
            let banner = doc.create_element("div");
            doc.set_attr(banner, "id", "banner");
            let text = doc.create_text("— edited live by the host —");
            doc.append_child(banner, text).unwrap();
            doc.append_child(body, banner).unwrap();
        })
        .unwrap();
    world.sleep(SimDuration::from_secs(1));
    let (resync, _) = world.poll_participant(alice).unwrap();
    assert!(resync.is_some(), "dynamic change must resynchronize");
    let doc = world.participants[alice].browser.doc.as_ref().unwrap();
    assert!(doc
        .text_content(doc.root())
        .contains("edited live by the host"));
    println!("dynamic DOM change mirrored to the participant ✓");

    let stats = world.session().stats();
    println!(
        "agent stats: {} generations, {} polls with content, {} empty polls",
        world.session().with_agent_stats(|s| s.generations.get()),
        stats.polls_with_content,
        stats.polls_empty
    );
}
