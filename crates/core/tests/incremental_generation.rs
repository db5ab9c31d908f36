//! Incremental content generation equals generation from scratch.
//!
//! A plan clones only the body element and the head and body children
//! changed since the agent's newest generation; every other subtree's
//! escaped bytes and results are copied from that generation, and a
//! snapshot whose objects are its predecessor's shares its object table.
//! Over seeded scripts on all 20 Table-1 pages in both cache modes, every
//! generation must equal `generate_content` of the same host state on the
//! same mapping table (XML, sections, object URLs, cache rewrites, splice
//! safety), every published snapshot's poll reply and delta replies must
//! equal those of a second agent that never keeps a generation, so plans
//! from scratch each time, and every live object the snapshot serves must
//! be the host cache's entry as the plan saw it. No two elements of a
//! generation may share an id: a synthetic id is named after its subtree,
//! and a name collision would hide from the equality checks, whose both
//! sides share it. The scripts edit text and attributes, insert, remove
//! and move body children (some holding id-less clickables), edit the head
//! and the body element, re-point or remove the head's stylesheet and
//! script references, store (new or again) and remove cache entries,
//! record observer resolutions, navigate, replace the document wholesale
//! (by a clone, by a frameset page and back), and plan two generations
//! off one base, as racing merges do. `PROPTEST_CASES` sets how many
//! random scripts the property runs.

use std::sync::Arc;

use proptest::prelude::*;
use rcb_browser::{Browser, BrowserKind, UserAction};
use rcb_cache::{CacheKey, MappingTable};
use rcb_core::agent::{build_poll_body, AgentConfig, CacheMode, RcbAgent};
use rcb_core::content::{generate_content, GeneratedContent};
use rcb_core::router::{RouterConfig, SessionHandle, SessionRouter};
use rcb_core::snapshot::{ContentSnapshot, SnapshotPlan, DELTA_RING};
use rcb_crypto::SessionKey;
use rcb_html::{Document, NodeId};
use rcb_http::server::{Handler, HandlerOutcome, ServerConfig};
use rcb_http::{Request, Response};
use rcb_origin::OriginRegistry;
use rcb_sim::link::Pipe;
use rcb_sim::profiles::NetProfile;
use rcb_url::Url;
use rcb_util::{DetRng, SimTime};
use rcb_xml::{ElementPayload, TopLevel};

const FRAMESET_PAGE: &str = "<html><head><title>framed</title></head>\
    <frameset rows=\"20%,80%\"><frame src=\"/top.html\"><frame src=\"/main.html\">\
    <noframes>please enable <a href=\"/plain.html\">the plain page</a></noframes>\
    </frameset></html>";

fn key() -> SessionKey {
    SessionKey::generate_deterministic(&mut DetRng::new(11))
}

fn agent(mode: CacheMode) -> RcbAgent {
    RcbAgent::new(
        key(),
        AgentConfig {
            cache_mode: mode,
            ..AgentConfig::default()
        },
    )
}

fn wire(response: &Response) -> Vec<u8> {
    rcb_http::serialize::serialize_response(response)
}

/// Every URL a mapping table holds, by key.
fn table(mapping: &MappingTable) -> Vec<Option<String>> {
    (0..mapping.len() as u64)
        .map(|k| mapping.url_for(CacheKey(k)).map(str::to_string))
        .collect()
}

/// A generation planned and not yet finished, with what it must equal.
struct Planned {
    plan: SnapshotPlan,
    reference: SnapshotPlan,
    expected: GeneratedContent,
    /// Each live object's key and the bytes the host cache held for it
    /// when the plan was made.
    objects: Vec<(CacheKey, Arc<[u8]>)>,
}

/// A host, the agent under test, and the reference agent: it never admits
/// a generation, so every one of its plans starts from scratch.
struct Run {
    host: Browser,
    origins: OriginRegistry,
    mode: CacheMode,
    agent: RcbAgent,
    reference: RcbAgent,
    chain: Vec<Arc<ContentSnapshot>>,
    reference_chain: Vec<Arc<ContentSnapshot>>,
    now_ms: u64,
    /// The page a frameset swap put aside, to bring back next.
    set_aside: Option<Document>,
    what: String,
    /// Generations that copied some children and regenerated others.
    mixed: u64,
    ops: [u64; OPS],
}

impl Run {
    fn start(site: &str, mode: CacheMode, seed: u64) -> Run {
        let mut run = Run {
            host: Browser::new(BrowserKind::Firefox),
            origins: OriginRegistry::with_alexa20(),
            mode,
            agent: agent(mode),
            reference: agent(mode),
            chain: Vec::new(),
            reference_chain: Vec::new(),
            now_ms: 0,
            set_aside: None,
            what: format!("{site} {mode:?} seed {seed}"),
            mixed: 0,
            ops: [0; OPS],
        };
        run.navigate(site);
        let first = run.plan();
        run.finish(first);
        run
    }

    fn navigate(&mut self, site: &str) {
        let profile = NetProfile::lan();
        let mut pipe = Pipe::new(profile.host_origin);
        let url = Url::parse(&format!("http://{site}/")).unwrap();
        let start = SimTime::from_millis(self.now_ms);
        self.host
            .navigate(&url, &mut self.origins, &mut pipe, &profile, start)
            .unwrap();
    }

    /// Plans the host's current state on both agents, and generates it
    /// from scratch on the tested agent's mapping table.
    fn plan(&mut self) -> Planned {
        self.now_ms += 1_000;
        let now = SimTime::from_millis(self.now_ms);
        let plan = ContentSnapshot::plan(&mut self.agent, &self.host, now).unwrap();
        let reference = ContentSnapshot::plan(&mut self.reference, &self.host, now).unwrap();
        // The timestamp the plan minted for this version.
        let doc_time = self.agent.current_doc_time(&self.host, now);
        let expected = generate_content(
            &self.host,
            self.mode,
            self.agent.mapping(),
            self.agent.key(),
            "",
            doc_time,
            "",
        )
        .unwrap();
        let mapping = self.agent.mapping().lock().unwrap();
        let view = self.host.cache.view();
        let objects = expected
            .object_urls
            .iter()
            .filter_map(|u| MappingTable::parse_agent_path(u.split('?').next().unwrap()))
            .filter_map(|key| {
                let entry = view.get(mapping.url_for(key)?)?;
                Some((key, Arc::clone(&entry.data)))
            })
            .collect();
        drop(mapping);
        Planned {
            plan,
            reference,
            expected,
            objects,
        }
    }

    /// Finishes a planned generation against the newest snapshot on each
    /// side, admits the tested one, and checks it.
    fn finish(&mut self, planned: Planned) {
        let what = format!("{} generation {}", self.what, self.chain.len());
        let prev = self.chain.last().cloned();
        let (snap, content) = planned.plan.finish(prev.as_deref()).unwrap();
        let content = content.expect("a finish generates");
        self.agent
            .admit_generated(snap.dom_version, self.mode, Arc::clone(&content));
        if content.children_reused > 0 && content.children_regenerated > 0 {
            self.mixed += 1;
        }

        let expected = &planned.expected;
        assert!(*content.xml == *expected.xml, "{what}: XML");
        assert_eq!(content.sections, expected.sections, "{what}: sections");
        assert_eq!(content.object_urls, expected.object_urls, "{what}: objects");
        assert_eq!(content.cache_rewrites, expected.cache_rewrites, "{what}");
        assert_eq!(
            content.body_splice_safe, expected.body_splice_safe,
            "{what}"
        );
        assert_eq!(content.doc_time, expected.doc_time, "{what}: doc time");
        assert_eq!(expected.children_reused, 0, "{what}: from scratch");
        assert_ids_unique(&content.xml, &what);
        for (key, data) in &planned.objects {
            let object = snap.object(*key).expect("a live object is servable");
            assert!(
                object.body.as_slice() == &data[..],
                "{what}: object {key:?}"
            );
        }

        let reference_prev = self.reference_chain.last().cloned();
        let (reference, reference_content) =
            planned.reference.finish(reference_prev.as_deref()).unwrap();
        let reference_content = reference_content.expect("a finish generates");
        assert_eq!(reference_content.children_reused, 0, "{what}: no base");
        assert!(
            *reference_content.xml == *expected.xml,
            "{what}: reference XML"
        );
        assert_eq!(snap.dom_version, reference.dom_version);
        assert!(
            wire(&snap.poll_response()) == wire(&reference.poll_response()),
            "{what}: poll reply"
        );
        let bases = self.chain.iter().rev().take(DELTA_RING + 1);
        for base in bases {
            let (got, want) = (
                snap.delta_response_for(base.dom_version),
                reference.delta_response_for(base.dom_version),
            );
            assert_eq!(got.is_some(), want.is_some(), "{what}: ring slots");
            if let (Some(got), Some(want)) = (got, want) {
                assert!(wire(&got) == wire(&want), "{what}: delta reply");
            }
        }
        self.chain.push(snap);
        self.reference_chain.push(reference);
    }

    /// One generation: `edits` host changes, then plan and finish; or, as
    /// racing merges do, two generations planned off one base, each
    /// after its own changes, finished in order.
    fn step(&mut self, rng: &mut DetRng, racing: bool) {
        self.edits(rng);
        let first = self.plan();
        if racing {
            self.edits(rng);
            let second = self.plan();
            self.finish(first);
            self.finish(second);
        } else {
            self.finish(first);
        }
        // Both agents minted the same keys, in the same order.
        assert_eq!(
            table(&self.agent.mapping().lock().unwrap()),
            table(&self.reference.mapping().lock().unwrap()),
            "{}: mapping tables",
            self.what
        );
    }

    fn edits(&mut self, rng: &mut DetRng) {
        for _ in 0..1 + rng.next_below(2) {
            let op = if self.set_aside.is_some() {
                RESTORE
            } else {
                rng.next_below(OPS as u64 - 1) as usize
            };
            self.ops[op] += 1;
            self.edit(op, rng);
            if op == FRAMESET {
                break; // so the frameset page is generated
            }
        }
        // Cache and observer changes do not move the DOM version on
        // their own; a generation is planned per version.
        self.host.mutate_dom(|_| {}).unwrap();
    }

    fn edit(&mut self, op: usize, rng: &mut DetRng) {
        match op {
            TEXT => self.mutate(|doc| {
                let texts = body_texts(doc);
                if !texts.is_empty() {
                    let t = *rng.choose(&texts);
                    let len = 1 + rng.next_below(30) as usize;
                    doc.set_text(t, words(rng, len)).unwrap();
                }
            }),
            ATTRIBUTE => self.mutate(|doc| {
                let body = doc.body().unwrap();
                let elements: Vec<NodeId> = doc
                    .descendants(body)
                    .into_iter()
                    .filter(|&e| doc.tag(e).is_some())
                    .collect();
                if !elements.is_empty() {
                    let e = *rng.choose(&elements);
                    doc.set_attr(e, "data-edit", words(rng, 6));
                }
            }),
            INSERT | INSERT_CLICKABLE => self.mutate(|doc| {
                let body = doc.body().unwrap();
                let at = rng.next_below(doc.children(body).len() as u64 + 1) as usize;
                let div = div_of(doc, &words(rng, 10));
                if op == INSERT_CLICKABLE {
                    // An anchor and a form field without ids.
                    let a = doc.create_element_with_attrs("a", vec![("href".into(), "/x".into())]);
                    let t = doc.create_text("a link");
                    doc.append_child(a, t).unwrap();
                    let input = doc.create_element("input");
                    doc.append_child(div, a).unwrap();
                    doc.append_child(div, input).unwrap();
                }
                doc.splice_children(body, at, 0, vec![div]).unwrap();
            }),
            REMOVE => self.mutate(|doc| {
                let body = doc.body().unwrap();
                let n = doc.children(body).len() as u64;
                if n > 1 {
                    doc.splice_children(body, rng.next_below(n) as usize, 1, Vec::new())
                        .unwrap();
                }
            }),
            MOVE => self.mutate(|doc| {
                let body = doc.body().unwrap();
                let n = doc.children(body).len() as u64;
                if n > 1 {
                    let child = doc.children(body)[rng.next_below(n) as usize];
                    doc.detach(child);
                    let to = rng.next_below(n) as usize;
                    doc.splice_children(body, to, 0, vec![child]).unwrap();
                }
            }),
            HEAD => self.mutate(|doc| {
                let head = doc.head().unwrap();
                let meta = doc.create_element("meta");
                doc.set_attr(meta, "name", words(rng, 6));
                doc.append_child(head, meta).unwrap();
            }),
            HEAD_OBJECT => {
                // Re-point a stylesheet or script reference to another
                // cached URL, or remove it.
                let mut cached = self.host.cache.urls();
                cached.sort();
                self.mutate(|doc| {
                    let head = doc.head().unwrap();
                    let refs: Vec<(NodeId, &str)> = doc
                        .children(head)
                        .iter()
                        .filter_map(|&n| match doc.tag(n)? {
                            "link" => Some((n, "href")),
                            "script" => doc.get_attr(n, "src").map(|_| (n, "src")),
                            _ => None,
                        })
                        .collect();
                    if refs.is_empty() {
                        return;
                    }
                    let (node, attr) = *rng.choose(&refs);
                    if cached.is_empty() || rng.next_below(3) == 0 {
                        doc.detach(node);
                    } else {
                        doc.set_attr(node, attr, rng.choose(&cached).clone());
                    }
                });
            }
            BODY_ELEMENT => self.mutate(|doc| {
                let body = doc.body().unwrap();
                doc.set_attr(body, "data-gen", words(rng, 6));
            }),
            CACHE_REMOVE => {
                let mut urls = self.host.cache.urls();
                urls.sort();
                if !urls.is_empty() {
                    let url = urls[rng.next_below(urls.len() as u64) as usize].clone();
                    self.host.cache.remove(&url);
                }
            }
            CACHE_STORE if rng.next_below(3) == 0 && !self.host.cache.is_empty() => {
                // A cached object stored again with new bytes: the same
                // objects in a new cache view.
                let mut urls = self.host.cache.urls();
                urls.sort();
                let url = rng.choose(&urls).clone();
                let bytes = rng.next_u64().to_le_bytes().to_vec();
                let stored_at = SimTime::from_millis(self.now_ms);
                self.host.cache.store(&url, "text/css", bytes, stored_at);
            }
            CACHE_STORE => {
                // A referenced object the cache lacks, else a new one.
                let doc = self.host.doc.as_ref().unwrap();
                let page = self.host.url.clone().unwrap();
                let mut missing: Vec<String> =
                    rcb_html::query::collect_supplementary_urls(doc, doc.root())
                        .into_iter()
                        .filter_map(|raw| self.host.observer.resolve(&page, &raw))
                        .filter(|url| !self.host.cache.contains(url))
                        .collect();
                missing.sort();
                let url = match missing.first() {
                    Some(url) => url.clone(),
                    None => format!("http://{}/stored-{}.png", page.host, rng.next_u64()),
                };
                let stored_at = SimTime::from_millis(self.now_ms);
                self.host
                    .cache
                    .store(&url, "image/png", vec![1, 2, 3], stored_at);
            }
            OBSERVER => {
                // Re-resolve a relative reference the page holds.
                let doc = self.host.doc.as_ref().unwrap();
                let page = self.host.url.clone().unwrap();
                let relative: Vec<String> = rcb_html::query::all_elements(doc, doc.root())
                    .into_iter()
                    .filter_map(|n| rcb_html::query::url_ref(doc, n).map(|(_, raw)| raw))
                    .filter(|raw| !Url::is_absolute(raw) && !raw.starts_with('#'))
                    .map(str::to_string)
                    .collect();
                if !relative.is_empty() {
                    let raw = rng.choose(&relative).clone();
                    let to = Url::parse(&format!("http://cdn.example/{}", rng.next_u64())).unwrap();
                    self.host.observer.record(&page, &raw, &to);
                }
            }
            NAVIGATE => {
                let sites = rcb_origin::alexa20();
                let site = rng.choose(&sites).name;
                self.navigate(site);
            }
            CLONE_DOCUMENT => {
                let copy = self.host.doc.as_ref().unwrap().clone();
                self.host.doc = Some(copy);
            }
            FRAMESET => {
                let frames = rcb_html::parse_document(FRAMESET_PAGE);
                self.set_aside = self.host.doc.replace(frames);
            }
            RESTORE => self.host.doc = self.set_aside.take(),
            _ => unreachable!(),
        }
    }

    fn mutate(&mut self, f: impl FnOnce(&mut Document)) {
        self.host.mutate_dom(f).unwrap();
    }
}

const TEXT: usize = 0;
const ATTRIBUTE: usize = 1;
const INSERT: usize = 2;
const INSERT_CLICKABLE: usize = 3;
const REMOVE: usize = 4;
const MOVE: usize = 5;
const HEAD: usize = 6;
const BODY_ELEMENT: usize = 7;
const CACHE_REMOVE: usize = 8;
const CACHE_STORE: usize = 9;
const OBSERVER: usize = 10;
const NAVIGATE: usize = 11;
const CLONE_DOCUMENT: usize = 12;
const FRAMESET: usize = 13;
const HEAD_OBJECT: usize = 14;
/// Brings back the page a frameset swap set aside (never drawn).
const RESTORE: usize = 15;
const OPS: usize = 16;

/// The non-blank text nodes below the body.
fn body_texts(doc: &Document) -> Vec<NodeId> {
    let body = doc.body().unwrap();
    doc.descendants(body)
        .into_iter()
        .filter(|&t| doc.text(t).is_some_and(|s| !s.trim().is_empty()))
        .collect()
}

/// Fails when two elements of the Fig.-4 document `xml` share an id:
/// the head's and the top-level payloads' own, and those of every
/// element their innerHTML parses to.
fn assert_ids_unique(xml: &str, what: &str) {
    let nc = rcb_xml::parse_new_content(xml).unwrap().unwrap();
    let mut payloads: Vec<&ElementPayload> = nc.head_children.iter().collect();
    match &nc.top {
        TopLevel::Body(body) => payloads.push(body),
        TopLevel::Frames { frameset, noframes } => {
            payloads.push(frameset);
            payloads.extend(noframes);
        }
    }
    let mut doc = Document::new();
    let mut ids = std::collections::HashSet::new();
    for payload in payloads {
        let element = doc.create_element_with_attrs(&payload.tag, payload.attrs.clone());
        rcb_html::parse_fragment_into(&mut doc, element, &payload.inner_html);
        for node in doc.descendants(element).into_iter().chain([element]) {
            if let Some(id) = doc.get_attr(node, "id") {
                assert!(
                    ids.insert(id.to_string()),
                    "{what}: two elements are {id:?}"
                );
            }
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

/// `generations` seeded steps on `site`, about one in four racing.
fn run_script(site: &str, mode: CacheMode, seed: u64, generations: u64) -> Run {
    let mut run = Run::start(site, mode, seed);
    let mut rng = DetRng::new(seed);
    for _ in 0..generations {
        let racing = rng.next_below(4) == 0;
        run.step(&mut rng, racing);
    }
    run
}

#[test]
fn every_table1_page_generates_incrementally_as_from_scratch() {
    let (mut mixed, mut generations) = (0, 0);
    let mut ops = [0; OPS];
    for (i, spec) in rcb_origin::alexa20().iter().enumerate() {
        for mode in [CacheMode::Cache, CacheMode::NonCache] {
            let run = run_script(spec.name, mode, 2000 + i as u64, 12);
            mixed += run.mixed;
            generations += run.chain.len();
            for (total, n) in ops.iter_mut().zip(run.ops) {
                *total += n;
            }
        }
    }
    assert!(ops.iter().all(|&n| n > 0), "every edit ran: {ops:?}");
    // Both paths ran side by side in many generations.
    assert!(
        5 * mixed > generations as u64,
        "{mixed} of {generations} mixed"
    );
}

proptest! {
    #[test]
    fn incremental_generation_equals_from_scratch(seed in any::<u64>()) {
        let sites = rcb_origin::alexa20();
        let site = sites[(seed % sites.len() as u64) as usize].name;
        let mode = if (seed / 20).is_multiple_of(2) { CacheMode::Cache } else { CacheMode::NonCache };
        run_script(site, mode, seed, 10);
    }
}

/// The reply `handler` sends at once.
fn respond(handler: &Handler, req: Request) -> Response {
    match handler(req) {
        HandlerOutcome::Respond(response) => response,
        HandlerOutcome::Park(_) => panic!("a poll without lp= parked"),
    }
}

/// A one-session router hosting `site`.
fn session(site: &str) -> (SessionHandle, Handler) {
    let router = SessionRouter::new(
        Box::new(|_| None),
        AgentConfig::default(),
        RouterConfig::default(),
        &ServerConfig::default(),
    );
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut host = Browser::new(BrowserKind::Firefox);
    let url = Url::parse(&format!("http://{site}/")).unwrap();
    host.navigate(&url, &mut origins, &mut pipe, &profile, SimTime::ZERO)
        .unwrap();
    let session = router.install_default_session(host, key()).unwrap();
    (session, router.make_handler())
}

/// `(generations, children reused, children regenerated, M5 samples)`.
fn counts(session: &SessionHandle) -> [u64; 4] {
    session.with_agent_stats(|s| {
        [
            s.generations.get(),
            s.children_reused.get(),
            s.children_regenerated.get(),
            s.m5.len() as u64,
        ]
    })
}

#[test]
fn an_edit_regenerates_only_the_children_it_touched() {
    // One paragraph edit of wikipedia.org: one of its 219 children.
    let (wiki, _) = session("wikipedia.org");
    assert_eq!(counts(&wiki), [1, 0, 219, 1], "the first generation");
    wiki.mutate_page(|doc| {
        let t = body_texts(doc)
            .into_iter()
            .find(|&t| doc.parent(t).is_some_and(|p| doc.is_element(p, "p")))
            .expect("a paragraph");
        doc.set_text(t, "an edited paragraph").unwrap();
    })
    .unwrap();
    assert_eq!(counts(&wiki), [2, 218, 220, 2]);
    // An id-less anchor inserted near the front: one new child of 220, and
    // no later child's synthetic ids move.
    wiki.mutate_page(|doc| {
        let body = doc.body().unwrap();
        let p = doc.create_element("p");
        let a = doc.create_element_with_attrs("a", vec![("href".into(), "/x".into())]);
        doc.append_child(p, a).unwrap();
        doc.splice_children(body, 1, 0, vec![p]).unwrap();
    })
    .unwrap();
    assert_eq!(counts(&wiki), [3, 437, 221, 3]);

    // A co-filled form field on google.com: a merge changes one of 26.
    let (google, handler) = session("google.com");
    assert_eq!(counts(&google), [1, 0, 26, 1]);
    let fill = UserAction::FormInput {
        form: "q".into(),
        field: "q".into(),
        value: "macbook air".into(),
    };
    let mut poll = Request::post("/poll?p=1", build_poll_body(0, &[fill]));
    rcb_core::auth::sign_request(&key(), &mut poll);
    respond(&handler, poll);
    assert_eq!(counts(&google), [2, 25, 27, 2]);
}
