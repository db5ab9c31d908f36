//! Concurrent real-TCP stress tests for the snapshot-based agent.
//!
//! The tentpole property under test: with N participants polling in
//! parallel threads while the host page mutates, every participant
//! converges to the final content, polls overlap inside the agent
//! (nothing serializes the read path behind a global lock or behind
//! content generation), content is generated once per DOM version rather
//! than once per poll, and agent memory stays bounded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcb_core::agent::AgentConfig;
use rcb_core::tcp::{TcpHost, TcpParticipant};
use rcb_crypto::SessionKey;
use rcb_http::client::HttpConnection;
use rcb_http::server::{ServerBackend, ServerConfig};
use rcb_util::DetRng;

const PAGE: &str = "<html><head><title>stress</title></head>\
    <body><h1 id=\"headline\">round zero</h1></body></html>";

const PARTICIPANTS: u64 = 8;
const MUTATIONS: usize = 20;
const FINAL_MARKER: &str = "final-round-marker";

#[test]
fn eight_participants_poll_in_parallel_and_converge() {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(90));
    let mut browser = rcb_browser::Browser::new(rcb_browser::BrowserKind::Firefox);
    browser.url = Some(rcb_url::Url::parse("http://stress.local/").unwrap());
    browser.doc = Some(rcb_html::parse_document(PAGE));
    browser.mutate_dom(|_| {}).unwrap();
    let mut host = TcpHost::start_from_browser(
        "127.0.0.1:0",
        browser,
        key.clone(),
        AgentConfig::default(),
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = host.addr().to_string();
    let mutations_done = Arc::new(AtomicBool::new(false));

    // Two polls overlap inside the agent by construction, before the
    // participants take every worker: the first mutation holds the host
    // mutex until they did.
    let mut merge = None;
    host.mutate_page(|doc| {
        append_marker(doc, "round-0");
        merge = Some(overlap_beside_a_blocked_merge(&host, &addr, &key));
    })
    .unwrap();
    merge.unwrap().join().unwrap();

    let threads: Vec<_> = (1..=PARTICIPANTS)
        .map(|pid| {
            let addr = addr.clone();
            let key = key.clone();
            let done = Arc::clone(&mutations_done);
            std::thread::spawn(move || -> (u64, bool) {
                let mut p = TcpParticipant::join(&addr, key, pid).unwrap();
                // Hammer phase: uninterrupted polls racing the mutator, so
                // poll handlers overlap inside the agent.
                for _ in 0..200 {
                    p.poll().unwrap();
                }
                // Convergence phase: keep polling until the final marker
                // lands (bounded, so a regression fails rather than hangs).
                for _ in 0..2_000 {
                    p.poll().unwrap();
                    let doc = p.browser.doc.as_ref().unwrap();
                    if done.load(Ordering::Relaxed)
                        && doc.text_content(doc.root()).contains(FINAL_MARKER)
                    {
                        return (p.snippet.doc_time, true);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                (p.snippet.doc_time, false)
            })
        })
        .collect();

    // The host page mutates while all eight hammer away.
    for i in 1..MUTATIONS {
        let marker = if i + 1 == MUTATIONS {
            FINAL_MARKER.to_string()
        } else {
            format!("round-{i}")
        };
        host.mutate_page(|doc| append_marker(doc, &marker)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    mutations_done.store(true, Ordering::Relaxed);

    let results: Vec<(u64, bool)> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    // Every participant converged to the final content...
    assert!(
        results.iter().all(|(_, converged)| *converged),
        "participants failed to converge: {results:?}"
    );
    // ...and acknowledges the same (final) published timestamp.
    let final_time = host.published_doc_time();
    for (doc_time, _) in &results {
        assert_eq!(*doc_time, final_time, "stale participant");
    }
    assert_eq!(host.participant_count(), PARTICIPANTS as usize);

    let stats = host.stats();
    // Polls overlapped inside the agent: the read path is concurrent, not
    // serialized behind one lock. The first mutation made sure of it on
    // every engine (`overlap_beside_a_blocked_merge`).
    assert!(
        stats.max_concurrent_polls >= 2,
        "polls never overlapped on {} (max concurrency {})",
        host.backend(),
        stats.max_concurrent_polls
    );
    // Content was generated once per DOM version — never once per poll,
    // and never while a reader waited: generation count tracks mutations,
    // not the thousands of polls served.
    let polls_served = stats.polls_with_content + stats.polls_empty;
    host.with_agent_stats(|s| {
        let generations = s.generations.get();
        assert!(
            generations <= MUTATIONS as u64 + 1,
            "{generations} generations for {MUTATIONS} mutations"
        );
        assert!(
            polls_served > generations * 10,
            "polls ({polls_served}) should dwarf generations ({generations})"
        );
    });
    // Memory bound held under churn: one generation, one planned version.
    assert_eq!(host.agent_cache_lens(), (1, 1));

    host.shutdown();
}

/// Appends a `<div>` holding `marker` to the body.
fn append_marker(doc: &mut rcb_html::Document, marker: &str) {
    let body = doc.body().unwrap();
    let div = doc.create_element("div");
    let t = doc.create_text(marker);
    doc.append_child(div, t).unwrap();
    doc.append_child(body, div).unwrap();
}

/// Makes two polls overlap inside the agent by construction; called
/// holding the host mutex (inside a page mutation). Participant 1's
/// action-carrying poll waits for that mutex inside the request path, on
/// a worker or a pool thread, while participant 2's idle polls, which
/// never take it, are answered beside it (on an event loop itself, so one
/// loop overlaps too) until one of them was. Returns the merge's thread,
/// which finishes once the mutex is released.
fn overlap_beside_a_blocked_merge(
    host: &TcpHost,
    addr: &str,
    key: &SessionKey,
) -> std::thread::JoinHandle<()> {
    let merge = {
        let (addr, key) = (addr.to_string(), key.clone());
        std::thread::spawn(move || {
            let mut conn = HttpConnection::connect(&addr).unwrap();
            empty_poll(&mut conn, &raw_poll("", &key, 1, true));
        })
    };
    let mut conn = HttpConnection::connect(addr).unwrap();
    let idle = raw_poll("", key, 2, false);
    let t0 = Instant::now();
    while host.stats().max_concurrent_polls < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "no idle poll answered beside the blocked merge"
        );
        empty_poll(&mut conn, &idle);
    }
    merge
}

/// Percentile over a sample of microsecond latencies.
fn percentile_us(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    rcb_util::percentile_nearest_rank(samples, p).expect("non-empty sample set")
}

/// A slow snapshot regeneration must not block concurrent polls: with
/// generation pipelined (DOM clone under the host mutex, steps 2–5 plus
/// prefab assembly outside it), a poll that takes the host mutex to merge
/// its piggybacked actions waits at most for a clone, never for the full
/// URL-rewrite/escape/XML-assembly pass.
///
/// The page is shaped adversarially for the old design: few DOM nodes
/// (cloning is cheap) carrying megabytes of text (escaping and assembly
/// are slow). Before the pipelining change, every merge-carrying
/// poll issued during a regeneration serialized behind the whole
/// generation and p99 tracked the generation cost; now it must stay within
/// a small bound of the quiescent p99.
#[test]
fn slow_regeneration_does_not_block_concurrent_polls() {
    // 560 divs × 32 KB of passthrough text: ≈18 MB to escape per
    // generation, while the clone copies only ~1,100 nodes. Sized so a
    // regeneration takes 37–56 ms in a release build on a 2-vCPU VM
    // (peak RSS ~275 MiB), well above the 20 ms floor asserted below.
    let filler = "lorem ipsum dolor sit amet consectetur adipiscing elit ".repeat(584);
    let mut page =
        String::from("<html><head><title>slow</title></head><body><div id=\"knob\">0</div>");
    for i in 0..560 {
        page.push_str(&format!("<div id=\"blk{i}\">{filler}</div>"));
    }
    page.push_str("</body></html>");

    let key = SessionKey::generate_deterministic(&mut DetRng::new(92));
    let host =
        TcpHost::start_with_key("127.0.0.1:0", "http://slow.local/", &page, key.clone()).unwrap();
    let addr = host.addr().to_string();

    // Raw signed polls with a far-future timestamp (so every reply is the
    // tiny empty-content prefab — measured latency is queueing, not
    // content transfer) carrying a mouse-move action (so every poll takes
    // the host mutex on the merge path, the path a regeneration could
    // block).
    let mut conn = rcb_http::client::HttpConnection::connect(&addr).unwrap();
    let poll_us = |conn: &mut rcb_http::client::HttpConnection| -> u64 {
        let body = b"t=99999999999999999\nmouse|3|4".to_vec();
        let mut req = rcb_http::Request::post("/poll?p=1", body);
        rcb_core::auth::sign_request(&key, &mut req);
        let t0 = Instant::now();
        let resp = conn.round_trip(&req).expect("poll round trip");
        assert!(resp.status.is_success());
        assert!(resp.body.is_empty(), "expected empty-content reply");
        t0.elapsed().as_micros() as u64
    };

    // Quiescent baseline.
    for _ in 0..20 {
        poll_us(&mut conn);
    }
    let mut quiescent: Vec<u64> = (0..200).map(|_| poll_us(&mut conn)).collect();
    let quiescent_p99 = percentile_us(&mut quiescent, 99.0);

    // Regeneration storm: back-to-back page mutations, each forcing a
    // full generation of the heavy page, running for as long as the
    // measured polls take (so every sample overlaps the storm no matter
    // how the scheduler interleaves the two threads). Each step touches
    // every top-level body child: a generation copies an untouched child
    // from the one before, so a one-child edit would regenerate one div.
    let host = Arc::new(host);
    let stop = Arc::new(AtomicBool::new(false));
    let mutator = {
        let host = Arc::clone(&host);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> (u32, Duration) {
            let t0 = Instant::now();
            let mut n = 0u32;
            while !stop.load(Ordering::Relaxed) || n < 2 {
                host.mutate_page(move |doc| {
                    let body = doc.body().expect("the page has a body");
                    for child in doc.children(body).to_vec() {
                        doc.set_attr(child, "data-v", n.to_string());
                    }
                })
                .expect("mutate");
                n += 1;
            }
            (n, t0.elapsed())
        })
    };
    let mut during: Vec<u64> = (0..60).map(|_| poll_us(&mut conn)).collect();
    stop.store(true, Ordering::Relaxed);
    let (mutations, regen_total) = mutator.join().unwrap();
    let during_p99 = percentile_us(&mut during, 99.0);

    // The storm really was slow relative to a poll — otherwise this test
    // proves nothing.
    let avg_regen_us = regen_total.as_micros() as u64 / u64::from(mutations);
    assert!(
        avg_regen_us > 20_000,
        "regeneration too fast to be observable ({avg_regen_us} us)"
    );
    // Polls during regeneration stay within 2× the quiescent p99 (plus a
    // scheduler-noise floor far below the generation cost). Like scale1's
    // pass criteria this is parallelism-aware: on a single core the poll
    // thread is starved of CPU by the generation burst itself regardless
    // of locking, so only the convoy signature (a poll serializing behind
    // multiple whole generations while the mutator re-wins the mutex) is
    // rejected there.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let bound = (2 * quiescent_p99).max(20_000);
    if cores >= 2 {
        assert!(
            during_p99 <= bound,
            "poll p99 during regeneration {during_p99} us exceeds bound {bound} us \
             (quiescent p99 {quiescent_p99} us, avg regeneration {avg_regen_us} us)"
        );
    } else {
        assert!(
            during_p99 <= 2 * avg_regen_us + bound,
            "poll p99 during regeneration {during_p99} us shows a lock convoy \
             (avg regeneration {avg_regen_us} us, quiescent p99 {quiescent_p99} us)"
        );
    }
    Arc::try_unwrap(host)
        .map(|mut h| h.shutdown())
        .unwrap_or(());
}

#[test]
fn concurrent_cofill_from_many_participants_all_merge() {
    // Multiple participants co-fill distinct fields concurrently; every
    // write lands on the host DOM (the write path is serialized by the
    // host mutex, but never lost).
    let page = "<html><head><title>forms</title></head><body><form id=\"f\" action=\"/s\">\
        <input type=\"text\" name=\"a\" value=\"\">\
        <input type=\"text\" name=\"b\" value=\"\">\
        <input type=\"text\" name=\"c\" value=\"\">\
        <input type=\"text\" name=\"d\" value=\"\"></form></body></html>";
    let key = SessionKey::generate_deterministic(&mut DetRng::new(91));
    let mut host =
        TcpHost::start_with_key("127.0.0.1:0", "http://forms.local/", page, key.clone()).unwrap();
    let addr = host.addr().to_string();
    let fields = ["a", "b", "c", "d"];
    let threads: Vec<_> = fields
        .iter()
        .enumerate()
        .map(|(i, field)| {
            let addr = addr.clone();
            let key = key.clone();
            let field = field.to_string();
            std::thread::spawn(move || {
                let mut p = TcpParticipant::join(&addr, key, i as u64 + 1).unwrap();
                p.poll().unwrap();
                p.act(rcb_browser::UserAction::FormInput {
                    form: "f".into(),
                    field: field.clone(),
                    value: format!("from-{field}"),
                });
                p.poll().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let merged = host.form_fields("f");
    for field in fields {
        assert!(
            merged.contains(&(field.to_string(), format!("from-{field}"))),
            "field {field} lost; merged state: {merged:?}"
        );
    }
    host.shutdown();
}

/// A signed raw poll: far-future timestamp, so the reply is the empty
/// prefab; `mouse` piggybacks a pointer move, an allowed action that
/// merges under the host mutex without changing the DOM.
fn raw_poll(prefix: &str, key: &SessionKey, pid: u64, mouse: bool) -> rcb_http::Request {
    let mut body = b"t=99999999999999999".to_vec();
    if mouse {
        body.extend_from_slice(b"\nmouse|3|4");
    }
    let mut req = rcb_http::Request::post(format!("{prefix}/poll?p={pid}"), body);
    rcb_core::auth::sign_request(key, &mut req);
    req
}

/// One round trip on `conn`, checked for the empty poll reply; returns
/// its latency.
fn empty_poll(conn: &mut HttpConnection, req: &rcb_http::Request) -> Duration {
    let t0 = Instant::now();
    let resp = conn.round_trip(req).expect("poll round trip");
    assert!(resp.status.is_success(), "poll answered {}", resp.status.0);
    assert!(resp.body.is_empty(), "expected the empty reply");
    t0.elapsed()
}

/// Waits (bounded) until `ready` holds.
fn wait_for(what: &str, ready: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !ready() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How long the blocking work of the next two tests sits on a lock.
const HOLD: Duration = Duration::from_millis(500);
/// What an idle poll answered on a free event loop must beat: far below
/// [`HOLD`].
const LOOP_BOUND: Duration = Duration::from_millis(150);

/// On one event loop, idle polls are answered on the loop itself, so a
/// dispatch pool that is entirely blocked does not delay them. A thread
/// holds the host mutex through a page mutation that sleeps, while one
/// action-carrying poll per pool thread blocks on that mutex; idle polls
/// on another connection to the same loop must answer long before the
/// mutex is released. (With every request crossing the pool, they queued
/// behind the blocked merges until it was.)
#[test]
fn idle_polls_answer_on_the_loop_while_the_pool_is_blocked() {
    const POOL: usize = 2;
    let key = SessionKey::generate_deterministic(&mut DetRng::new(93));
    let mut browser = rcb_browser::Browser::new(rcb_browser::BrowserKind::Firefox);
    browser.url = Some(rcb_url::Url::parse("http://loop.local/").unwrap());
    browser.doc = Some(rcb_html::parse_document(PAGE));
    browser.mutate_dom(|_| {}).unwrap();
    let host = Arc::new(
        TcpHost::start_from_browser(
            "127.0.0.1:0",
            browser,
            key.clone(),
            AgentConfig::default(),
            ServerConfig {
                backend: ServerBackend::EpollSharded(1),
                workers: POOL,
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );
    assert_eq!(host.backend(), ServerBackend::EpollSharded(1));
    let addr = host.addr().to_string();

    let holding = Arc::new(AtomicBool::new(false));
    let mutator = {
        let host = Arc::clone(&host);
        let holding = Arc::clone(&holding);
        std::thread::spawn(move || {
            host.mutate_page(|_| {
                holding.store(true, Ordering::SeqCst);
                std::thread::sleep(HOLD);
                holding.store(false, Ordering::SeqCst);
            })
            .unwrap();
        })
    };
    wait_for("the mutation holds the host mutex", || {
        holding.load(Ordering::SeqCst)
    });
    let mergers: Vec<_> = (0..POOL as u64)
        .map(|i| {
            let (addr, key) = (addr.clone(), key.clone());
            std::thread::spawn(move || {
                let mut conn = HttpConnection::connect(&addr).unwrap();
                empty_poll(&mut conn, &raw_poll("", &key, 10 + i, true));
            })
        })
        .collect();
    // Both merges are inside the handler, each on a pool thread, blocked
    // on the mutex.
    wait_for("every pool thread holds a merge", || {
        host.stats().max_concurrent_polls >= POOL as u64
    });

    let mut conn = HttpConnection::connect(&addr).unwrap();
    let idle = raw_poll("", &key, 1, false);
    let worst = (0..20).map(|_| empty_poll(&mut conn, &idle)).max().unwrap();
    assert!(
        holding.load(Ordering::SeqCst),
        "the idle polls finished only after the host mutex was released"
    );
    assert!(
        worst < LOOP_BOUND,
        "an idle poll took {worst:?} while the pool was blocked"
    );
    mutator.join().unwrap();
    for m in mergers {
        m.join().unwrap();
    }
    Arc::try_unwrap(host)
        .map(|mut h| h.shutdown())
        .unwrap_or(());
}

/// A request the parser rejects is answered by the connection core on
/// the event loop, without the handler: a reply while some blocking work
/// still holds its lock proves that work is not on the loop thread.
fn probe_loop(addr: &str) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"NOT AN HTTP REQUEST\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).unwrap();
    assert!(
        reply.starts_with(b"HTTP/1.1 400"),
        "probe answered {reply:?}"
    );
}

/// What one run of [`deferred_cases`] observed.
#[derive(Debug)]
struct DeferredRun {
    router: Vec<u64>,
    totals: rcb_core::tcp::TcpHostStats,
    /// The thread that ran the session factory for the sid a participant
    /// created.
    factory_thread: Option<String>,
}

/// The four kinds of request that may block: a request that finds an
/// eviction sweep due (the sweep waits for a router shard a slow session
/// creation holds), a request whose session must be created (the factory
/// records its thread), a merge (it waits for the host mutex a page
/// mutation holds), and a request that finds its session's fairness gate
/// at its bound (it waits behind the merge). While the blocking ones
/// block, probes check that the engine's event loop keeps answering:
/// each must finish before the lock it waits on is released.
fn deferred_cases(backend: ServerBackend, workers: usize) -> DeferredRun {
    use rcb_core::router::{fixed_page_factory, RouterConfig, RouterHost, SessionFactory};
    use std::sync::Mutex;

    let sids = ["old", "quiet", "s", "slow", "u"];
    let inner = fixed_page_factory(
        "http://defer.local/".to_string(),
        PAGE.to_string(),
        sids.iter().map(|s| s.to_string()).collect(),
        "deferred-cases".to_string(),
    );
    // The thread that runs the factory for the one session a participant's
    // request creates.
    let u_thread: Arc<Mutex<Option<String>>> = Arc::default();
    let creating_slow = Arc::new(AtomicBool::new(false));
    let factory: SessionFactory = {
        let (u_thread, creating_slow) = (Arc::clone(&u_thread), Arc::clone(&creating_slow));
        Box::new(move |sid| {
            if sid == "u" {
                *u_thread.lock().unwrap() = std::thread::current().name().map(str::to_string);
            }
            if sid == "slow" {
                creating_slow.store(true, Ordering::SeqCst);
                std::thread::sleep(HOLD);
                creating_slow.store(false, Ordering::SeqCst);
            }
            inner(sid)
        })
    };
    // A sweep is due a second after the last one (or the router's start)
    // and evicts sessions idle for 2 s.
    let idle_evict = Duration::from_secs(2);
    let mut host = RouterHost::start(
        "127.0.0.1:0",
        factory,
        AgentConfig::default(),
        RouterConfig {
            idle_evict,
            session_inflight: 1,
            session_waiters: 4,
            ..RouterConfig::default()
        },
        ServerConfig {
            backend,
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = host.addr().to_string();
    let router = Arc::clone(host.router());
    router.create_session("old").unwrap();
    std::thread::sleep(idle_evict + Duration::from_millis(50));
    let quiet = router.create_session("quiet").unwrap();
    let s = router.create_session("s").unwrap();

    // A due sweep, blocked behind a slow creation.
    let slow = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.create_session("slow").map(|_| ()))
    };
    wait_for("the slow creation holds its router shard", || {
        creating_slow.load(Ordering::SeqCst)
    });
    let sweeper = {
        let (addr, quiet) = (addr.clone(), quiet.clone());
        std::thread::spawn(move || {
            let mut conn = HttpConnection::connect(&addr).unwrap();
            empty_poll(&mut conn, &raw_poll(&quiet.prefix(), quiet.key(), 7, false));
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    for _ in 0..3 {
        probe_loop(&addr);
    }
    assert!(
        creating_slow.load(Ordering::SeqCst),
        "the probes outlasted the slow creation"
    );
    slow.join().unwrap().unwrap();
    sweeper.join().unwrap();

    // A request whose session must be created (no sweep is due now).
    let mut conn = HttpConnection::connect(&addr).unwrap();
    let resp = conn.round_trip(&rcb_http::Request::get("/s/u/")).unwrap();
    assert!(resp.status.is_success(), "join answered {}", resp.status.0);

    // A merge blocked on the host mutex, and a poll queued at the gate
    // behind it.
    let holding = Arc::new(AtomicBool::new(false));
    let mutator = {
        let (s, holding) = (s.clone(), Arc::clone(&holding));
        std::thread::spawn(move || {
            s.mutate_page(|_| {
                holding.store(true, Ordering::SeqCst);
                std::thread::sleep(HOLD);
                holding.store(false, Ordering::SeqCst);
            })
            .unwrap();
        })
    };
    wait_for("the mutation holds the host mutex", || {
        holding.load(Ordering::SeqCst)
    });
    let poll_s = |pid: u64, mouse: bool| {
        let (addr, key, prefix) = (addr.clone(), s.key().clone(), s.prefix());
        std::thread::spawn(move || {
            let mut conn = HttpConnection::connect(&addr).unwrap();
            empty_poll(&mut conn, &raw_poll(&prefix, &key, pid, mouse));
        })
    };
    let merger = poll_s(1, true);
    wait_for("the merge holds the session's one gate slot", || {
        s.stats().max_concurrent_polls >= 1
    });
    let queued = poll_s(2, false);
    std::thread::sleep(Duration::from_millis(20));
    let mut conn = HttpConnection::connect(&addr).unwrap();
    for _ in 0..3 {
        probe_loop(&addr);
        empty_poll(&mut conn, &raw_poll(&quiet.prefix(), quiet.key(), 7, false));
    }
    assert!(
        holding.load(Ordering::SeqCst),
        "the probes outlasted the host mutex hold"
    );
    mutator.join().unwrap();
    merger.join().unwrap();
    queued.join().unwrap();

    let stats = host.stats();
    host.shutdown();
    let factory_thread = u_thread.lock().unwrap().clone();
    DeferredRun {
        router: vec![
            stats.sessions_live as u64,
            stats.sessions_created,
            stats.sessions_evicted,
            stats.cap_sheds,
            stats.unknown_session_404s,
            stats.requests_routed,
            stats.fairness_queued,
            stats.fairness_shed,
        ],
        totals: stats.totals,
        factory_thread,
    }
}

/// No request that may block runs on an event loop thread, and deferring
/// it changes nothing the router or the sessions count: the stats equal
/// the workers engine's for the same requests.
#[test]
fn blocking_work_never_runs_on_an_event_loop() {
    let workers = deferred_cases(ServerBackend::Workers, 4);
    let epoll = deferred_cases(ServerBackend::EpollSharded(1), 2);
    assert_eq!(workers.factory_thread.as_deref(), Some("rcb-worker"));
    assert_eq!(epoll.factory_thread.as_deref(), Some("rcb-pool-0"));
    // live, created, evicted, cap sheds, 404s, routed, queued, shed.
    assert_eq!(workers.router, vec![4, 5, 1, 0, 0, 7, 1, 0]);
    assert_eq!(epoll.router, workers.router);
    assert_eq!(epoll.totals, workers.totals);
}
