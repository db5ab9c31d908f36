//! End-to-end pipeline bench: one complete poll round (agent request
//! handling + snippet application), the unit of work behind every
//! synchronization in Figures 6–8; the snapshot build that publishes
//! each host change on the concurrent path; and the participant's apply
//! of one change's delta.
//!
//! The `generation` group times one paragraph edit's `plan` + `finish`
//! against the previous generation, back to back and after 16 ms idle.
//! The `snippet_apply` group times the
//! participant's apply of one paragraph edit's delta, as a whole body and
//! as a body splice.
//!
//! A poll round runs the request path production serves: a one-session
//! router's handler, the entry every engine calls, answering with the
//! published snapshot's (or the session's) prefab.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use rcb_browser::{Browser, BrowserKind};
use rcb_core::agent::{AgentConfig, CacheMode, RcbAgent};
use rcb_core::router::{RouterConfig, SessionRouter};
use rcb_core::snapshot::{ContentSnapshot, DELTA_RING};
use rcb_core::snippet::{AjaxSnippet, SnippetOutcome};
use rcb_crypto::SessionKey;
use rcb_html::Document;
use rcb_http::server::{Handler, HandlerOutcome, ServerConfig};
use rcb_http::{Request, Response};
use rcb_origin::OriginRegistry;
use rcb_sim::link::Pipe;
use rcb_sim::profiles::NetProfile;
use rcb_util::{DetRng, SimDuration, SimTime};
use rcb_xml::{DeltaContent, DeltaTop};

fn loaded_host(site: &str) -> Browser {
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut b = Browser::new(BrowserKind::Firefox);
    b.navigate(
        &rcb_url::Url::parse(&format!("http://{site}/")).unwrap(),
        &mut origins,
        &mut pipe,
        &profile,
        SimTime::ZERO,
    )
    .unwrap();
    b
}

/// The handler of a one-session router hosting `host` under `key`.
fn one_session(host: Browser, key: SessionKey, config: AgentConfig) -> Handler {
    let router = SessionRouter::new(
        Box::new(|_| None),
        config,
        RouterConfig::default(),
        &ServerConfig::default(),
    );
    router.install_default_session(host, key).unwrap();
    router.make_handler()
}

/// The reply `handler` sends `req`; these polls never park.
fn respond(handler: &Handler, req: Request) -> Response {
    match handler(req) {
        HandlerOutcome::Respond(response) => response,
        HandlerOutcome::Park(_) => panic!("a poll without lp= parked"),
    }
}

/// A participant that joined through `handler`: the page of its `GET /`.
fn joined(handler: &Handler) -> Browser {
    let mut participant = Browser::new(BrowserKind::Firefox);
    let page = respond(handler, Request::get("/"));
    participant.doc = Some(rcb_html::parse_document(&page.body_str()));
    participant
}

fn bench_poll_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("poll_round");
    for site in ["google.com", "cnn.com"] {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(1));
        group.bench_function(BenchmarkId::new("full_sync", site), |b| {
            b.iter_batched(
                || loaded_host(site),
                |host| {
                    // A fresh session each iteration, so the poll gets
                    // a freshly built snapshot (the expensive path):
                    // content generation plus the frozen XML prefab the
                    // reply clones. The session and the participant are
                    // returned, so their teardown is not timed.
                    let config = AgentConfig {
                        cache_mode: CacheMode::NonCache,
                        ..AgentConfig::default()
                    };
                    let handler = one_session(host, key.clone(), config);
                    let mut snippet = AjaxSnippet::new(1, key.clone(), SimDuration::from_secs(1));
                    let mut participant = joined(&handler);
                    let reply = respond(&handler, snippet.build_poll());
                    let outcome = snippet.process_response(&reply, &mut participant);
                    (outcome.unwrap(), handler, participant)
                },
                BatchSize::LargeInput,
            )
        });

        // The steady-state path: no content change, so the snapshot is
        // reused and the reply is the session's empty-poll prefab.
        let key2 = SessionKey::generate_deterministic(&mut DetRng::new(2));
        let handler = one_session(loaded_host(site), key2.clone(), AgentConfig::default());
        let mut snippet = AjaxSnippet::new(1, key2, SimDuration::from_secs(1));
        let mut participant = joined(&handler);
        let first = respond(&handler, snippet.build_poll());
        snippet.process_response(&first, &mut participant).unwrap();
        group.bench_function(BenchmarkId::new("idle_poll", site), |b| {
            b.iter(|| {
                let reply = respond(&handler, snippet.build_poll());
                assert!(reply.body.is_empty());
                reply
            })
        });
    }
    group.finish();
}

/// Replaces the text of the `n`-th body paragraph (cycling) with fresh
/// letters of the same length, so the page size stays constant.
fn edit_paragraph(host: &mut Browser, n: usize) {
    host.mutate_dom(|doc| {
        let body = doc.body().expect("page has a body");
        let texts: Vec<_> = doc
            .descendants(body)
            .into_iter()
            .filter(|&p| doc.is_element(p, "p"))
            .filter_map(|p| doc.children(p).first().copied())
            .filter(|&t| doc.text(t).is_some_and(|s| !s.is_empty()))
            .collect();
        let t = texts[n % texts.len()];
        let letter = char::from(b'a' + (n % 26) as u8);
        let text: String = doc.text(t).unwrap().chars().map(|_| letter).collect();
        doc.set_text(t, text).unwrap();
    })
    .unwrap();
}

/// `SnapshotPlan::finish` after one paragraph edit of wikipedia.org, the
/// work `TcpHost::mutate_page` does before waking parked polls: content
/// generation, the full-XML prefab, and one delta per base of a full
/// ring. The plan (the part under the host mutex) is set up untimed.
fn bench_snapshot_finish(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_finish");
    let key = SessionKey::generate_deterministic(&mut DetRng::new(3));
    let mut agent = RcbAgent::new(key, AgentConfig::default());
    let mut host = loaded_host("wikipedia.org");
    let mut prev = ContentSnapshot::build(&mut agent, &host, SimTime::ZERO, None).unwrap();
    for n in 1..=DELTA_RING {
        edit_paragraph(&mut host, n);
        let now = SimTime::from_millis(n as u64);
        prev = ContentSnapshot::build(&mut agent, &host, now, Some(&prev)).unwrap();
    }
    assert_eq!(prev.delta_ring_len(), DELTA_RING);
    edit_paragraph(&mut host, 0);
    group.bench_function(BenchmarkId::new("paragraph_edit", "wikipedia.org"), |b| {
        b.iter_batched(
            || ContentSnapshot::plan(&mut agent, &host, SimTime::from_secs(1)).unwrap(),
            |plan| plan.finish(Some(&prev)).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The host edit period of perfbench's `update-push` workload.
const EDITOR_PERIOD: Duration = Duration::from_millis(16);

/// One paragraph edit's generation, the work `TcpHost::mutate_page` does
/// before it publishes: `ContentSnapshot::plan` (under the host mutex: it
/// clones the body element and the edited child) and
/// `SnapshotPlan::finish` against the previous generation (the rest of
/// generation, copying the head's and every other child's bytes and
/// sharing the object table, then the prefabs and the delta ring). The
/// plan's base stays the previous generation, as nothing is admitted;
/// dropping the snapshot is untimed. `paragraph_edit` runs the edits back
/// to back; `paragraph_edit_after_idle` sleeps an editor period, untimed,
/// before each, which leaves the caches as cold as a live host's editor
/// thread finds them.
fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    for site in ["google.com", "wikipedia.org"] {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(5));
        let mut agent = RcbAgent::new(key, AgentConfig::default());
        let mut host = loaded_host(site);
        let prev = ContentSnapshot::build(&mut agent, &host, SimTime::ZERO, None).unwrap();
        edit_paragraph(&mut host, 0);
        for (name, idle) in [
            ("paragraph_edit", Duration::ZERO),
            ("paragraph_edit_after_idle", EDITOR_PERIOD),
        ] {
            group.bench_function(BenchmarkId::new(name, site), |b| {
                b.iter_batched(
                    || std::thread::sleep(idle),
                    |()| {
                        let now = SimTime::from_secs(1);
                        let plan = ContentSnapshot::plan(&mut agent, &host, now).unwrap();
                        plan.finish(Some(&prev)).unwrap()
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// The participant's side of one woken `edit_paragraph` delta on
/// wikipedia.org: the reply's parse and the Fig.-5 apply (M6) on a
/// participant synced to the base. `full` ships the whole body and
/// re-parses all of it; `splice` ships and re-parses the one changed
/// child. The participant is set up untimed.
fn bench_snippet_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("snippet_apply");
    let key = SessionKey::generate_deterministic(&mut DetRng::new(4));
    let mut agent = RcbAgent::new(key.clone(), AgentConfig::default());
    let mut host = loaded_host("wikipedia.org");
    let base = ContentSnapshot::build(&mut agent, &host, SimTime::ZERO, None).unwrap();
    let participant = |doc: Option<Document>, doc_time: u64| {
        let mut snippet = AjaxSnippet::new(1, key.clone(), SimDuration::from_secs(1));
        snippet.doc_time = doc_time;
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.doc = doc;
        (snippet, browser)
    };
    // The joining page comes from a session's `GET /`; the host behind
    // it need not have loaded a page.
    let join = one_session(
        Browser::new(BrowserKind::Firefox),
        key.clone(),
        AgentConfig::default(),
    );
    let (mut snippet, mut synced) = participant(joined(&join).doc, 0);
    snippet
        .process_response(&base.poll_response(), &mut synced)
        .unwrap();
    edit_paragraph(&mut host, 1);
    let next =
        ContentSnapshot::build(&mut agent, &host, SimTime::from_millis(1), Some(&base)).unwrap();
    let splice = next.delta_response_for(base.dom_version).unwrap();
    assert!(splice.body_str().contains("<docBodySplice "));
    let nc = rcb_xml::parse_new_content(next.xml()).unwrap().unwrap();
    let whole = Response::xml(rcb_xml::write_delta_content(&DeltaContent {
        doc_time: next.doc_time,
        from_doc_time: base.doc_time,
        head_children: None,
        top: Some(DeltaTop::Whole(nc.top)),
        user_actions: nc.user_actions,
    }));
    for (name, reply) in [("full", whole), ("splice", splice)] {
        group.bench_function(BenchmarkId::new(name, "wikipedia.org"), |b| {
            b.iter_batched(
                || participant(synced.doc.clone(), base.doc_time),
                |(mut snippet, mut browser)| {
                    let outcome = snippet.process_response(&reply, &mut browser).unwrap();
                    assert!(matches!(outcome, SnippetOutcome::Updated { .. }));
                    (outcome, browser)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_poll_round, bench_snapshot_finish, bench_generation, bench_snippet_apply
}
criterion_main!(benches);
