//! The §5.2.1 scenario: coordinating a meeting spot on a maps site.
//!
//! Run with: `cargo run --example google_maps`
//!
//! Bob hosts, Alice joins; Bob geocodes "653 5th Ave, New York", zooms,
//! pans — each view change is an Ajax update under a constant URL, which
//! is precisely what URL-sharing co-browsing cannot mirror and RCB can.

use rcb::browser::{BrowserKind, UserAction};
use rcb::core::usability::{host_maps_set_viewport, study_world, MAPS_HOST};
use rcb::origin::apps::maps::MapsApp;
use rcb::util::SimDuration;

fn main() {
    let mut world = study_world(7);
    let alice = world.add_participant(BrowserKind::Firefox);

    // Bob searches the Cartier store.
    let spot = MapsApp::geocode("653 5th Ave, New York");
    world
        .host_navigate(&format!(
            "http://{MAPS_HOST}/maps?q=653+5th+Ave%2C+New+York"
        ))
        .unwrap();
    println!(
        "Bob's map centered on viewport ({}, {}) z{}",
        spot.x, spot.y, spot.z
    );

    let (sync, _) = world.poll_participant(alice).unwrap();
    println!(
        "Alice received the map in {} ({} tiles fetched)",
        sync.as_ref().map(|s| s.m2.to_string()).unwrap_or_default(),
        sync.as_ref().map(|s| s.objects).unwrap_or(0)
    );

    // Bob zooms in twice and pans east — the URL never changes.
    let mut vp = spot;
    for (label, next) in [
        ("zoom in", vp.zoom_in()),
        ("zoom in", vp.zoom_in().zoom_in()),
        ("pan east", vp.zoom_in().zoom_in().pan(1, 0)),
    ] {
        vp = next;
        host_maps_set_viewport(&mut world, vp).unwrap();
        world.sleep(SimDuration::from_millis(800));
        let (s, _) = world.poll_participant(alice).unwrap();
        println!(
            "{label}: viewport ({}, {}) z{} mirrored to Alice ({})",
            vp.x,
            vp.y,
            vp.z,
            s.map(|s| s.m2.to_string())
                .unwrap_or_else(|| "no-op".into())
        );
    }

    // Alice waves the pointer at the meeting spot; Bob sees it echoed.
    world.participant_action(alice, UserAction::MouseMove { x: 512, y: 384 });
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(alice).unwrap();
    println!("Alice pointed at the red-roof show-windows — meeting spot agreed ✓");

    // Verify both sides show the same grid.
    let host_status = world.host_browser(|b| {
        let doc = b.doc.as_ref().unwrap();
        doc.text_content(doc.root())
    });
    let alice_doc = world.participants[alice].browser.doc.as_ref().unwrap();
    let alice_status = alice_doc.text_content(alice_doc.root());
    assert!(alice_status.contains(&format!("viewport {} {} z{}", vp.x, vp.y, vp.z)));
    assert!(host_status.contains(&format!("viewport {} {} z{}", vp.x, vp.y, vp.z)));
    println!("final viewports identical on both browsers ✓");
}
