//! The §5.2.2 scenario: online co-shopping with form co-filling.
//!
//! Run with: `cargo run --example co_shopping`
//!
//! Bob hosts a session on a session-protected storefront. Alice browses
//! *through Bob's session* (her actions are piggybacked to the agent and
//! replayed by the host browser), picks a laptop, and co-fills the
//! shipping address form — the paper's Figure 10 moment, where form data
//! typed on Alice's browser appears in the form on Bob's.

use rcb::browser::{BrowserKind, UserAction};
use rcb::core::usability::{study_world, SHOP_HOST};
use rcb::util::SimDuration;

fn main() {
    let mut world = study_world(21);
    let alice = world.add_participant(BrowserKind::InternetExplorer);

    // Bob opens the storefront; Alice's browser follows.
    world
        .host_navigate(&format!("http://{SHOP_HOST}/"))
        .unwrap();
    world.poll_participant(alice).unwrap();
    println!("storefront synchronized to Alice");

    // Alice drives: search, then open a product — through Bob's session.
    world.participant_action(
        alice,
        UserAction::Navigate {
            url: format!("http://{SHOP_HOST}/search?q=macbook"),
        },
    );
    world.poll_participant(alice).unwrap(); // action → host navigates
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(alice).unwrap(); // results → Alice
    println!("Alice searched; host now at {}", world.host_url().unwrap());

    world.participant_action(
        alice,
        UserAction::Navigate {
            url: format!("http://{SHOP_HOST}/product/2"),
        },
    );
    world.poll_participant(alice).unwrap();
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(alice).unwrap();
    println!("Alice picked product 2 — final choice");

    // Bob adds it to the cart and starts checkout (session-protected).
    world
        .host_navigate(&format!("http://{SHOP_HOST}/cart/add?id=2"))
        .unwrap();
    world
        .host_navigate(&format!("http://{SHOP_HOST}/checkout"))
        .unwrap();
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(alice).unwrap();
    println!("checkout form synchronized to Alice");

    // Alice co-fills the shipping form from her browser.
    for (field, value) in [
        ("fullname", "Alice Cousin"),
        ("street", "653 5th Ave"),
        ("city", "New York"),
        ("zip", "10022"),
    ] {
        world.participant_action(
            alice,
            UserAction::FormInput {
                form: "shipping".into(),
                field: field.into(),
                value: value.into(),
            },
        );
    }
    world.sleep(SimDuration::from_secs(2));
    world.poll_participant(alice).unwrap();

    // Figure-10 check: Alice's data is in the form on Bob's browser.
    let fields = world.session().form_fields("shipping");
    println!("shipping form on Bob's browser, filled by Alice:");
    for (name, value) in &fields {
        println!("  {name:>10}: {value}");
    }
    assert!(fields.contains(&("street".into(), "653 5th Ave".into())));

    // Bob submits the form and completes the order.
    world.host_submit_form("shipping").unwrap();
    world.host_submit_form("confirm").unwrap();
    let page = world.host_browser(|b| {
        let doc = b.doc.as_ref().unwrap();
        doc.text_content(doc.root())
    });
    assert!(page.contains("Order placed"));
    println!("order placed through Bob's session ✓");

    // The confirmation page reaches Alice too.
    world.sleep(SimDuration::from_secs(1));
    world.poll_participant(alice).unwrap();
    let alice_doc = world.participants[alice].browser.doc.as_ref().unwrap();
    assert!(alice_doc
        .text_content(alice_doc.root())
        .contains("Order placed"));
    println!("confirmation mirrored to Alice ✓");
}
