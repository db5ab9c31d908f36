//! RCB over real TCP sockets — the deployment path.
//!
//! Run with: `cargo run --example real_tcp`
//!
//! Everything else in the workspace runs on virtual time; this example is
//! the paper's practicality claim made literal: RCB-Agent listening on a
//! real `std::net` port (§3.1 step 1 used port 3000; we take an ephemeral
//! one), a participant connecting with plain HTTP, HMAC-authenticated
//! polls, live DOM updates, and form co-filling — all over the loopback
//! interface.
//!
//! The server backend is runtime-selectable: run with
//! `RCB_SERVER_BACKEND=epoll` to serve the same session from the
//! event-driven epoll loop, or `RCB_SERVER_BACKEND=epoll-sharded` for the
//! sharded engine (one event loop per available core, or `N` with
//! `epoll-sharded:N`; connections distributed round-robin) instead of the
//! default worker pool — the session flow is identical every way.

use rcb::browser::UserAction;
use rcb::core::snippet::SnippetOutcome;
use rcb::core::tcp::{TcpHost, TcpParticipant};

const PAGE: &str = r#"<html><head><title>team dashboard</title></head>
<body>
  <h1 id="headline">deploy checklist</h1>
  <ul id="items"><li>run tests</li><li>tag release</li></ul>
  <form id="signoff" action="/signoff"><input type="text" name="approver" value=""></form>
</body></html>"#;

fn main() {
    // Host side: agent on a real socket, page loaded in the host browser.
    let mut host = TcpHost::start("127.0.0.1:0", "http://dashboard.local/", PAGE).unwrap();
    let addr = host.addr().to_string();
    println!(
        "RCB-Agent listening on {addr} ({} backend{} — set \
         RCB_SERVER_BACKEND=workers|epoll|epoll-sharded)",
        host.backend(),
        match host.backend() {
            rcb::http::ServerBackend::EpollSharded(n) => format!(", {n} event-loop shards"),
            _ => String::new(),
        }
    );
    println!("session key (out-of-band): {}", host.key().to_hex());

    // Participant side: join with the shared key, first poll syncs the page.
    let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
    match alice.poll().unwrap() {
        SnippetOutcome::Updated { doc_time, .. } => {
            println!("alice synchronized (doc_time {doc_time})");
        }
        other => panic!("expected initial sync, got {other:?}"),
    }
    let doc = alice.browser.doc.as_ref().unwrap();
    assert!(doc.text_content(doc.root()).contains("deploy checklist"));

    // Host edits the page live; alice picks it up on the next poll.
    host.mutate_page(|doc| {
        let root = doc.root();
        let items = rcb::html::query::element_by_id(doc, root, "items").unwrap();
        let li = doc.create_element("li");
        let t = doc.create_text("ship it");
        doc.append_child(li, t).unwrap();
        doc.append_child(items, li).unwrap();
    })
    .unwrap();
    alice
        .poll_until_update(20, std::time::Duration::from_millis(25))
        .unwrap();
    let doc = alice.browser.doc.as_ref().unwrap();
    assert!(doc.text_content(doc.root()).contains("ship it"));
    println!("live host edit mirrored to alice ✓");

    // Alice co-fills the sign-off form; the merge lands on the host DOM.
    alice.act(UserAction::FormInput {
        form: "signoff".into(),
        field: "approver".into(),
        value: "alice@example.com".into(),
    });
    alice.poll().unwrap();
    assert_eq!(
        host.form_fields("signoff"),
        vec![("approver".to_string(), "alice@example.com".to_string())]
    );
    println!("alice's form input merged into the host page ✓");

    host.shutdown();
    println!("session closed");
}
