//! A snapshot holds one copy of every body it owns.
//!
//! Dropping a published snapshot may free its XML (the poll reply's
//! body), its delta ring's bodies, and a small head and bookkeeping per
//! frozen response — nothing else. Object bodies belong to the host
//! browser cache and must not be freed with the snapshot, and no body may
//! be held twice.
//!
//! The bytes are counted by a process-wide allocator, so this binary holds
//! a single test: no other test thread allocates or frees during the
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rcb_browser::{Browser, BrowserKind};
use rcb_core::snapshot::DELTA_RING;
use rcb_core::{AgentConfig, CacheMode, ContentSnapshot, RcbAgent};
use rcb_crypto::SessionKey;
use rcb_origin::OriginRegistry;
use rcb_sim::link::Pipe;
use rcb_sim::profiles::NetProfile;
use rcb_url::Url;
use rcb_util::{DetRng, SimTime};

/// Bytes returned to the system allocator so far.
static FREED: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allowance per frozen response (poll reply, object, delta slot): its
/// serialized head, header map, map entry and ring bookkeeping.
const PER_RESPONSE: usize = 2048;
/// Allowance per snapshot: the struct, its maps' tables, key lists and
/// section ranges.
const PER_SNAPSHOT: usize = 8192;

fn loaded_host(site: &str) -> Browser {
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut browser = Browser::new(BrowserKind::Firefox);
    browser
        .navigate(
            &Url::parse(&format!("http://{site}/")).unwrap(),
            &mut origins,
            &mut pipe,
            &profile,
            SimTime::ZERO,
        )
        .unwrap();
    browser
}

fn append_div(host: &mut Browser, text: &str) {
    host.mutate_dom(|doc| {
        let body = doc.body().expect("page has a body");
        let div = doc.create_element("div");
        let t = doc.create_text(text);
        doc.append_child(div, t).unwrap();
        doc.append_child(body, div).unwrap();
    })
    .unwrap();
}

/// Replaces the text of the body's `n`-th non-empty `<p>` text node with
/// as many copies of `letter`: one top-level body child changes.
fn edit_paragraph(host: &mut Browser, n: usize, letter: char) {
    host.mutate_dom(|doc| {
        let body = doc.body().expect("page has a body");
        let texts: Vec<_> = doc
            .descendants(body)
            .into_iter()
            .filter(|&p| doc.is_element(p, "p"))
            .filter_map(|p| doc.children(p).first().copied())
            .filter(|&t| doc.text(t).is_some_and(|s| !s.is_empty()))
            .collect();
        let t = texts[n];
        let text: String = doc.text(t).unwrap().chars().map(|_| letter).collect();
        doc.set_text(t, text).unwrap();
    })
    .unwrap();
}

/// The bytes dropping `snap` frees.
fn freed_by_dropping(snap: std::sync::Arc<ContentSnapshot>) -> usize {
    let before = FREED.load(Ordering::Relaxed);
    drop(snap);
    FREED.load(Ordering::Relaxed) - before
}

#[test]
fn dropping_a_snapshot_frees_at_most_its_xml_its_deltas_and_small_heads() {
    // The case whose bytes beyond XML and deltas use most of its allowance.
    let mut worst = (0.0f64, String::new());
    for spec in rcb_origin::alexa20() {
        for mode in [CacheMode::Cache, CacheMode::NonCache] {
            for edits in 0..=DELTA_RING as u64 {
                let case = format!("{} {mode:?}, {edits} body edits", spec.name);
                let key = SessionKey::generate_deterministic(&mut DetRng::new(21));
                let mut agent = RcbAgent::new(
                    key,
                    AgentConfig {
                        cache_mode: mode,
                        ..AgentConfig::default()
                    },
                );
                let mut host = loaded_host(spec.name);
                let mut chain =
                    vec![ContentSnapshot::build(&mut agent, &host, SimTime::ZERO, None).unwrap()];
                for i in 1..=edits {
                    append_div(&mut host, &format!("edit {i}"));
                    let prev = chain.last().map(|s| &**s);
                    let next =
                        ContentSnapshot::build(&mut agent, &host, SimTime::from_millis(i), prev)
                            .unwrap();
                    chain.push(next);
                }
                let last = chain.pop().unwrap();
                let bases: Vec<u64> = chain.iter().map(|s| s.dom_version).collect();
                drop(chain);
                assert_eq!(last.delta_ring_len(), bases.len(), "{case}");

                let xml = last.xml().len();
                let deltas: usize = bases
                    .iter()
                    .map(|&v| last.delta_response_for(v).expect("base in ring").body.len())
                    .sum();
                let responses = 1 + last.object_count() + last.delta_ring_len();
                let allowance = responses * PER_RESPONSE + PER_SNAPSHOT;
                let bound = xml + deltas + allowance;

                let before = FREED.load(Ordering::Relaxed);
                drop(last);
                let freed = FREED.load(Ordering::Relaxed) - before;
                assert!(
                    freed <= bound,
                    "{case}: dropping the snapshot freed {freed} B, over its bound of \
                     {bound} B (XML {xml} B, delta bodies {deltas} B, {responses} frozen \
                     responses)"
                );
                let overhead = freed.saturating_sub(xml + deltas);
                let share = overhead as f64 / allowance as f64;
                if share > worst.0 {
                    worst = (share, format!("{case}: {overhead} of {allowance} B"));
                }
            }
        }
    }
    eprintln!(
        "most of its allowance beyond the bodies: {} ({:.3})",
        worst.1, worst.0
    );

    // A full ring of single-child body edits: each delta body is one
    // spliced child, so the snapshot holds little beyond its XML.
    let key = SessionKey::generate_deterministic(&mut DetRng::new(21));
    let mut agent = RcbAgent::new(key, AgentConfig::default());
    let mut host = loaded_host("wikipedia.org");
    let mut chain = vec![ContentSnapshot::build(&mut agent, &host, SimTime::ZERO, None).unwrap()];
    for i in 1..=DELTA_RING as u64 {
        edit_paragraph(&mut host, 0, char::from(b'a' + i as u8));
        let prev = chain.last().map(|s| &**s);
        let next =
            ContentSnapshot::build(&mut agent, &host, SimTime::from_millis(i), prev).unwrap();
        chain.push(next);
    }
    let last = chain.pop().unwrap();
    // The agent's newest generation shares the XML: without it, the snapshot
    // holds the last reference, and dropping it frees the XML too. (The
    // host browser stays: its cache owns the object bodies.)
    drop((chain, agent));
    assert_eq!(last.delta_ring_len(), DELTA_RING);
    let xml = last.xml().len();
    let responses = 1 + last.object_count() + last.delta_ring_len();
    let bound = xml + xml / 10 + responses * PER_RESPONSE + PER_SNAPSHOT;
    let freed = freed_by_dropping(last);
    assert!(
        freed <= bound,
        "wikipedia.org, a full ring of one-child edits: dropping the snapshot freed \
         {freed} B, over 1.1 × its XML ({xml} B) + {responses} frozen responses + \
         {PER_SNAPSHOT} B = {bound} B"
    );
    eprintln!("wikipedia.org, a full ring of one-child edits: {freed} B freed, XML {xml} B");
}
