//! Splice deltas converge: a participant that applies every delta it is
//! sent serializes byte-identically to one that applies every full reply.
//!
//! The host is a one-session router, answering through the handler every
//! engine serves, on a virtual clock. Each host change publishes a
//! generation. One participant is a legacy client and polls for the full
//! document each time; the others advertise `d=1` and hold a parked
//! long-poll, woken when they take a generation: the wake reply is the
//! delta from the generation they acked, which ships the body as a splice
//! of its changed children when the participant's parse of both bodies
//! gives their children one for one. The `d=1` participants take every
//! generation, every second and every third, so bases one to three
//! generations back are exercised. `PROPTEST_CASES` sets how many random
//! scripts the property runs.

use std::sync::Arc;

use proptest::prelude::*;
use rcb_browser::{Browser, BrowserKind};
use rcb_core::agent::{AgentConfig, CacheMode};
use rcb_core::router::{RouterConfig, SessionHandle, SessionRouter};
use rcb_core::snippet::{AjaxSnippet, SnippetOutcome};
use rcb_crypto::SessionKey;
use rcb_html::{Document, NodeId};
use rcb_http::server::{Handler, HandlerOutcome, Park, ServerConfig};
use rcb_http::{Request, Response};
use rcb_origin::OriginRegistry;
use rcb_sim::link::Pipe;
use rcb_sim::profiles::NetProfile;
use rcb_url::Url;
use rcb_util::{Clock, DetRng, SimDuration, SimTime, VirtualClock};

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

/// How a poll was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    Full,
    WholeDelta,
    Splice,
}

/// The reply `handler` sends at once.
fn respond(handler: &Handler, req: Request) -> Response {
    match handler(req) {
        HandlerOutcome::Respond(response) => response,
        HandlerOutcome::Park(_) => panic!("a poll that must be answered at once parked"),
    }
}

struct Participant {
    snippet: AjaxSnippet,
    browser: Browser,
    /// The DOM version of the generation it shows.
    acked: u64,
    /// Takes every `every`-th generation.
    every: u64,
    /// Its long-poll, parked on the generation it acked (`d=1` only).
    park: Option<Park>,
}

impl Participant {
    fn join(handler: &Handler, key: &SessionKey, pid: u64, delta: bool, every: u64) -> Participant {
        let mut browser = Browser::new(BrowserKind::Firefox);
        let page = respond(handler, Request::get("/"));
        browser.doc = Some(rcb_html::parse_document(&page.body_str()));
        let mut snippet = AjaxSnippet::new(pid, key.clone(), SimDuration::from_secs(1));
        snippet.delta = delta;
        if delta {
            snippet.long_poll = Some(SimDuration::from_secs(30));
        }
        Participant {
            snippet,
            browser,
            acked: 0,
            every,
            park: None,
        }
    }

    /// Parks a `d=1` participant's long-poll, unless one is parked.
    fn park(&mut self, handler: &Handler) {
        if !self.snippet.delta || self.park.is_some() {
            return;
        }
        match handler(self.snippet.build_poll()) {
            HandlerOutcome::Park(park) => self.park = Some(park),
            HandlerOutcome::Respond(_) => panic!("an up-to-date long-poll parks"),
        }
    }

    /// Applies `response`, a reply of generation `version`; what happened
    /// and what kind of reply it was.
    fn receive(&mut self, response: &Response, version: u64) -> (SnippetOutcome, Reply) {
        let body = response.body_str();
        let reply = if body.contains("<docBodySplice ") {
            Reply::Splice
        } else if body.contains("<deltaContent>") {
            Reply::WholeDelta
        } else {
            Reply::Full
        };
        let outcome = self
            .snippet
            .process_response(response, &mut self.browser)
            .unwrap();
        if matches!(outcome, SnippetOutcome::Updated { .. }) {
            self.acked = version;
        }
        (outcome, reply)
    }

    /// The reply its parked long-poll gets, woken now: the delta from the
    /// generation this participant acked.
    fn woken_delta(&mut self, who: &str) -> Response {
        let park = self
            .park
            .take()
            .unwrap_or_else(|| panic!("{who}: no long-poll parked"));
        (park.on_wake)()
    }

    fn serialized(&self) -> String {
        rcb_html::serialize::serialize_document(self.browser.doc.as_ref().unwrap())
    }
}

/// A session: the host, the handler it serves, its clock, the legacy
/// participant (index 0) and three `d=1` ones taking every 1st, 2nd and
/// 3rd generation.
struct Session {
    host: SessionHandle,
    handler: Handler,
    clock: Arc<VirtualClock>,
    participants: Vec<Participant>,
    generation: u64,
    /// Replies the `d=1` participants got, by kind.
    splices: u64,
    whole_deltas: u64,
}

impl Session {
    /// Loads `site` and brings every participant to the first generation
    /// (a full reply each).
    fn start(site: &str, mode: CacheMode) -> Session {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(7));
        let (engine_clock, clock) = Clock::new_virtual();
        clock.advance_to(SimTime::from_secs(1));
        let server = ServerConfig {
            clock: engine_clock,
            ..ServerConfig::default()
        };
        let config = AgentConfig {
            cache_mode: mode,
            ..AgentConfig::default()
        };
        let router =
            SessionRouter::new(Box::new(|_| None), config, RouterConfig::default(), &server);
        let host = router
            .install_default_session(loaded_host(site), key.clone())
            .unwrap();
        let handler = router.make_handler();
        let mut participants = vec![Participant::join(&handler, &key, 1, false, 1)];
        for (pid, every) in [(2, 1), (3, 2), (4, 3)] {
            participants.push(Participant::join(&handler, &key, pid, true, every));
        }
        for p in &mut participants {
            let reply = respond(&handler, p.snippet.build_poll());
            let (outcome, reply) = p.receive(&reply, host.dom_version());
            assert!(matches!(outcome, SnippetOutcome::Updated { .. }), "{site}");
            assert_eq!(reply, Reply::Full);
        }
        Session {
            host,
            handler,
            clock,
            participants,
            generation: 1,
            splices: 0,
            whole_deltas: 0,
        }
    }

    /// One host change, published as the next generation once every
    /// `d=1` participant has a long-poll parked; the new DOM version.
    fn publish(&mut self, edit: impl FnOnce(&mut Document)) -> u64 {
        for p in &mut self.participants {
            p.park(&self.handler);
        }
        self.generation += 1;
        self.clock.advance_to(SimTime::from_secs(self.generation));
        self.host.mutate_page(edit).unwrap();
        self.host.dom_version()
    }

    /// One host change, then every participant due takes it; each `d=1`
    /// participant must apply a delta and match the legacy one.
    fn step(&mut self, what: &str, edit: impl FnOnce(&mut Document)) {
        let version = self.publish(edit);
        let (legacy, delta_clients) = self.participants.split_first_mut().unwrap();
        let full = respond(&self.handler, legacy.snippet.build_poll());
        let (outcome, reply) = legacy.receive(&full, version);
        assert!(matches!(outcome, SnippetOutcome::Updated { .. }), "{what}");
        assert_eq!(reply, Reply::Full, "{what}");
        let expected = legacy.serialized();
        for p in delta_clients {
            if !self.generation.is_multiple_of(p.every) {
                continue;
            }
            let deltas = p.snippet.deltas_applied;
            let who = format!("{what}: generation {}, every {}", self.generation, p.every);
            let delta = p.woken_delta(&who);
            let (outcome, reply) = p.receive(&delta, version);
            assert!(
                matches!(outcome, SnippetOutcome::Updated { .. }),
                "{who}: {outcome:?} ({reply:?})"
            );
            assert_eq!(p.snippet.deltas_applied, deltas + 1, "{who}: {reply:?}");
            match reply {
                Reply::Splice => self.splices += 1,
                Reply::WholeDelta => self.whole_deltas += 1,
                Reply::Full => panic!("{who}: a full reply from the delta ring"),
            }
            assert!(p.serialized() == expected, "{who}: {reply:?} diverged");
        }
    }
}

/// Random lowercase words, `len` letters and spaces.
fn words(rng: &mut DetRng, len: usize) -> String {
    (0..len)
        .map(|i| match i % 6 {
            5 => ' ',
            _ => char::from(b'a' + rng.next_below(26) as u8),
        })
        .collect()
}

fn div_of(doc: &mut Document, text: &str) -> NodeId {
    let div = doc.create_element("div");
    let t = doc.create_text(text);
    doc.append_child(div, t).unwrap();
    div
}

/// One seeded host edit: a text or attribute edit anywhere in the body,
/// a child inserted, removed, prepended or appended, a head edit, or an
/// edit of the body element's own attributes.
fn random_edit(doc: &mut Document, rng: &mut DetRng) {
    let body = doc.body().expect("page has a body");
    let n = doc.children(body).len();
    match rng.next_below(8) {
        0 => {
            let texts: Vec<NodeId> = doc
                .descendants(body)
                .into_iter()
                .filter(|&t| doc.text(t).is_some_and(|s| !s.trim().is_empty()))
                .collect();
            let t = *rng.choose(&texts);
            let len = 1 + rng.next_below(40) as usize;
            doc.set_text(t, words(rng, len)).unwrap();
        }
        1 => {
            let elements: Vec<NodeId> = doc
                .descendants(body)
                .into_iter()
                .filter(|&e| doc.tag(e).is_some())
                .collect();
            let e = *rng.choose(&elements);
            let value = words(rng, 8);
            doc.set_attr(e, "data-edit", value);
        }
        2 => {
            let at = rng.next_below(n as u64 + 1) as usize;
            let div = div_of(doc, &words(rng, 12));
            doc.splice_children(body, at, 0, vec![div]).unwrap();
        }
        3 if n > 1 => {
            let at = rng.next_below(n as u64) as usize;
            doc.splice_children(body, at, 1, Vec::new()).unwrap();
        }
        3 | 4 => {
            let div = div_of(doc, &words(rng, 12));
            doc.splice_children(body, 0, 0, vec![div]).unwrap();
        }
        5 => {
            let div = div_of(doc, &words(rng, 12));
            doc.append_child(body, div).unwrap();
        }
        6 => {
            let head = doc.head().expect("page has a head");
            let meta = doc.create_element("meta");
            doc.set_attr(meta, "name", words(rng, 6));
            doc.append_child(head, meta).unwrap();
        }
        _ => {
            doc.set_attr(body, "data-gen", words(rng, 6));
        }
    }
}

/// Runs `generations` steps of one to two seeded edits each on `site`.
fn run_script(site: &str, mode: CacheMode, seed: u64, generations: u64) -> Session {
    let mut session = Session::start(site, mode);
    let mut rng = DetRng::new(seed);
    for _ in 0..generations {
        let edits = 1 + rng.next_below(2);
        session.step(&format!("{site} {mode:?} seed {seed}"), |doc| {
            for _ in 0..edits {
                random_edit(doc, &mut rng);
            }
        });
    }
    session
}

#[test]
fn every_table1_page_converges_under_splices() {
    let (mut splices, mut whole) = (0, 0);
    for (i, spec) in rcb_origin::alexa20().iter().enumerate() {
        for mode in [CacheMode::Cache, CacheMode::NonCache] {
            let session = run_script(spec.name, mode, 1000 + i as u64, 6);
            splices += session.splices;
            whole += session.whole_deltas;
        }
    }
    // Most deltas are splices; a body-attribute edit ships whole bodies
    // to every base before it.
    assert!(
        splices > whole && whole > 0,
        "{splices} splices, {whole} whole"
    );
}

proptest! {
    #[test]
    fn splice_deltas_converge(seed in any::<u64>()) {
        let sites = rcb_origin::alexa20();
        let site = sites[(seed % sites.len() as u64) as usize].name;
        let mode = if (seed / 20).is_multiple_of(2) { CacheMode::Cache } else { CacheMode::NonCache };
        run_script(site, mode, seed, 8);
    }
}

#[test]
fn bodies_that_are_not_splice_safe_get_whole_deltas_and_converge() {
    type Build = fn(&mut Document) -> Vec<NodeId>;
    let cases: [(&str, Build); 4] = [
        ("adjacent text nodes", |doc| {
            vec![doc.create_text("one"), doc.create_text("two")]
        }),
        ("a <p> holding a <div>", |doc| {
            let p = doc.create_element("p");
            let div = div_of(doc, "inside");
            doc.append_child(p, div).unwrap();
            vec![p]
        }),
        ("script text holding </script>", |doc| {
            let script = doc.create_element("script");
            let t = doc.create_text("var s = '</script><p>escaped</p>';");
            doc.append_child(script, t).unwrap();
            vec![script]
        }),
        ("a comment holding -->", |doc| {
            vec![doc.create_comment("a --> b")]
        }),
    ];
    for (case, build) in cases {
        let mut session = Session::start("wikipedia.org", CacheMode::Cache);
        let mut inserted = Vec::new();
        session.step(case, |doc| {
            inserted = build(doc);
            let body = doc.body().unwrap();
            doc.splice_children(body, 1, 0, inserted.clone()).unwrap();
        });
        let mut rng = DetRng::new(5);
        session.step(case, |doc| {
            random_edit_of_text(doc, &mut rng);
        });
        // Every delta so far had an unsafe body on one side: whole.
        assert_eq!(session.splices, 0, "{case}");
        session.step(case, |doc| {
            for n in &inserted {
                doc.detach(*n);
            }
        });
        assert_eq!(session.splices, 0, "{case}: the base is still unsafe");
        let whole = session.whole_deltas;
        for _ in 0..2 {
            session.step(case, |doc| {
                random_edit_of_text(doc, &mut rng);
            });
        }
        assert!(session.splices > 0, "{case}: safe again, splices resume");
        assert!(
            session.whole_deltas > whole,
            "{case}: an unsafe base ships whole"
        );
    }
}

/// A text edit of a paragraph.
fn random_edit_of_text(doc: &mut Document, rng: &mut DetRng) {
    let body = doc.body().unwrap();
    let texts: Vec<NodeId> = doc
        .descendants(body)
        .into_iter()
        .filter(|&p| doc.is_element(p, "p"))
        .filter_map(|p| doc.children(p).first().copied())
        .filter(|&t| doc.text(t).is_some_and(|s| !s.is_empty()))
        .collect();
    let t = *rng.choose(&texts);
    doc.set_text(t, words(rng, 30)).unwrap();
}

#[test]
fn a_splice_that_does_not_fit_is_dropped_and_the_next_poll_recovers_in_full() {
    let mut session = Session::start("wikipedia.org", CacheMode::Cache);
    // The participant's body drifts from what the host sent it: one extra
    // child, so it no longer has the children a splice is computed for.
    let drifted = &mut session.participants[1];
    drifted
        .browser
        .mutate_dom(|doc| {
            let body = doc.body().unwrap();
            let extra = div_of(doc, "not from the host");
            doc.append_child(body, extra).unwrap();
        })
        .unwrap();
    let held = drifted.snippet.doc_time;
    let mut rng = DetRng::new(9);
    let version = session.publish(|doc| random_edit_of_text(doc, &mut rng));
    let Session {
        handler,
        participants,
        ..
    } = &mut session;
    let full = respond(handler, participants[0].snippet.build_poll());
    let (outcome, reply) = participants[0].receive(&full, version);
    assert!(matches!(outcome, SnippetOutcome::Updated { .. }));
    assert_eq!(reply, Reply::Full);
    let drifted = &mut participants[1];
    let delta = drifted.woken_delta("drifted");
    assert_eq!(
        drifted.receive(&delta, version),
        (SnippetOutcome::NoNewContent, Reply::Splice)
    );
    assert_eq!(drifted.snippet.doc_time, held, "nothing applied");
    // Its next poll carries the old timestamp, and the request path
    // answers a poll that is behind with the full document at once: the
    // drift is gone.
    let poll = drifted.snippet.build_poll();
    assert!(poll.target.contains("&d=1"), "{}", poll.target);
    let response = respond(handler, poll);
    let (outcome, reply) = drifted.receive(&response, version);
    assert!(matches!(outcome, SnippetOutcome::Updated { .. }));
    assert_eq!(reply, Reply::Full);
    assert_eq!(drifted.serialized(), participants[0].serialized());
    // And it takes splices again from there.
    session.step("after the recovery", |doc| {
        random_edit_of_text(doc, &mut rng)
    });
    assert!(session.splices > 0);
}
