//! scale1 — poll throughput, latency, zero-copy accounting, and
//! regeneration-overlap behaviour vs. participant count, over real sockets.
//!
//! The paper's §5.1.2 bottleneck analysis assumes the host *uplink* is
//! the limit; this bench verifies the agent itself is not: with the
//! snapshot-based concurrent request path, aggregate poll throughput must
//! *grow* with participant count (it flat-lined when every poll
//! serialized on one host mutex). Each participant is a real
//! `TcpParticipant` on its own thread and persistent connection, polling
//! in a closed loop while a mutator thread keeps the host page churning.
//!
//! Wall-clock scaling needs CPUs to scale onto, so the pass criteria are
//! parallelism-aware: on any machine the bench requires that aggregate
//! throughput does not *collapse* as participants are added (the lock
//! convoy signature) and that polls demonstrably overlap inside the
//! agent wherever two threads answer them (a worker pool, or two or more
//! event loops: one loop answers its idle polls itself, one at a time);
//! on machines with ≥ 4 available cores it additionally requires the
//! aggregate rate to grow with participant count.
//!
//! Three further phases:
//!
//! * **payload sweep** (16 KB → 1 MB of page text): drives content polls
//!   at each payload size and requires the per-poll heap-copied
//!   response-body byte count to be exactly zero — every content poll and
//!   object request is served from a prefab (`Arc` clones), no
//!   matter how large the content is;
//! * **regeneration overlap**: measures poll p99 while back-to-back
//!   regenerations of a heavy page are in flight and requires it within
//!   2× the quiescent p99 (plus a scheduler floor) on multi-core machines
//!   — direct evidence content generation runs outside the host mutex;
//! * **memory bound**: ≥ 1000 DOM versions with the agent holding one
//!   generation and one planned version;
//! * **connection hold**: many keep-alive connections open at once on a
//!   small handler pool — 256 per event-loop shard on the epoll engines
//!   (whose ceiling is the fd limit; the sharded backend therefore holds
//!   `256 × shards`, verified to spread across every loop), 32 on the
//!   workers backend (whose ceiling is the rotation design). The target
//!   is capped to the process fd limit read via `prlimit64`.
//! * **overload**: a 16-client storm against a deliberately low admission
//!   mark. The server must actually shed (prefab `503 + Retry-After`,
//!   counted in `requests_shed`), the polls it *does* admit must keep a
//!   bounded p99 while shedding, and a calm cohort after the storm must
//!   recover at least 90% of the pre-storm rate. Every poll of the phase
//!   carries a pointer move, so it reaches the dispatch pool on every
//!   engine (an epoll loop answers idle polls itself, and the mark
//!   bounds only the pool's queue).
//! * **sessions**: one process serves hundreds of routed sessions at once
//!   (512 on the epoll engines, 64 on workers, fd-capped) with one
//!   participant connection held per session, then one session storms
//!   against a tight per-session in-flight bound while a round-robin
//!   probe keeps polling the quiet cohort. The storm tenant's polls carry
//!   a pointer move, so they reach the pool and the session gate on every
//!   engine. The storm must demonstrably
//!   queue or shed at the session bound, the quiet cohort must keep ≥
//!   30% of its calm rate within a bounded p99, and aggregate throughput
//!   must not collapse — per-session fairness, measured, with the
//!   per-session spread (outlier sessions by sheds and snapshot size)
//!   stamped into the JSON.
//!
//! Every phase runs on the server backend selected by `--backend
//! {workers,epoll,epoll-sharded[:N]}` (falling back to the
//! `RCB_SERVER_BACKEND` environment variable, then to workers; the
//! sharded backend's auto shard count is the available cores, and
//! `epoll-sharded:N` pins it), so CI can run the whole bench once per
//! backend and compare like with like. The pass/fail predicates live in
//! `rcb_bench::gates` as pure functions with their own unit tests — a
//! gate regression is caught without running a socket.
//!
//! Alongside the human-readable output the bench always writes a
//! machine-readable `BENCH_scale1.json` (path override: `--json <path>`).
//! `--compare <baseline.json>` fails the run if aggregate throughput
//! regressed more than 20% against the committed baseline; the throughput
//! gate arms only when the baseline's cores, mode, and backend match the
//! running configuration, and prints an explicit "gate disarmed" line
//! otherwise.
//!
//! Run: `cargo run --release -p rcb-bench --bin scale1 [-- --smoke]`
//! (`--smoke` shrinks participant counts and durations for CI).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcb_bench::gates;
use rcb_browser::{Browser, BrowserKind};
use rcb_core::agent::AgentConfig;
use rcb_core::router::{fixed_page_factory, RouterConfig, RouterHost, SessionOutlier};
use rcb_core::tcp::{TcpHost, TcpParticipant};
use rcb_crypto::SessionKey;
use rcb_http::server::{OverloadConfig, ServerBackend, ServerConfig};
use rcb_util::{DetRng, Histogram, SimDuration};

const PAGE: &str = "<html><head><title>scale</title></head>\
    <body><h1 id=\"headline\">scale bench</h1><div id=\"ticker\">0</div></body></html>";

/// The backend every host in this run uses: `--backend <name>` beats
/// `RCB_SERVER_BACKEND` beats the workers default — resolved once in
/// `main` and threaded through each phase.
fn start_host_with_page(backend: ServerBackend, workers: usize, page: &str) -> TcpHost {
    start_host_sized(backend, workers, 256, page)
}

fn start_host_sized(
    backend: ServerBackend,
    workers: usize,
    queue_capacity: usize,
    page: &str,
) -> TcpHost {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(4242));
    let mut browser = Browser::new(BrowserKind::Firefox);
    browser.url = Some(rcb_url::Url::parse("http://scale.local/").expect("static URL"));
    browser.doc = Some(rcb_html::parse_document(page));
    browser.mutate_dom(|_| {}).expect("document just loaded");
    TcpHost::start_from_browser(
        "127.0.0.1:0",
        browser,
        key,
        AgentConfig::default(),
        ServerConfig {
            backend,
            workers,
            queue_capacity,
            read_timeout: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn start_host(backend: ServerBackend, workers: usize) -> TcpHost {
    start_host_with_page(backend, workers, PAGE)
}

/// A page whose text payload is roughly `bytes` of passthrough characters
/// (so the Fig.-4 XML stays close to the same size after JS-escaping).
fn sized_page(bytes: usize) -> String {
    let filler = "abcdefghij0123456789".repeat(bytes / (20 * 16) + 1);
    let mut page =
        String::from("<html><head><title>payload</title></head><body><div id=\"ticker\">0</div>");
    for i in 0..16 {
        page.push_str(&format!("<div id=\"blk{i}\">{filler}</div>"));
    }
    page.push_str("</body></html>");
    page
}

/// One load point: `n` participants polling for `duration`.
/// Returns `(total_polls, elapsed, latency histogram, max_concurrency,
/// the engine the host resolved)`.
fn run_point(
    backend: ServerBackend,
    n: u64,
    duration: Duration,
    mutate_every: Duration,
) -> (u64, f64, Histogram, u64, ServerBackend) {
    let mut host = start_host(backend, 8);
    let addr = host.addr().to_string();
    let key = host.key().clone();
    let stop = Arc::new(AtomicBool::new(false));

    let threads: Vec<_> = (1..=n)
        .map(|pid| {
            let addr = addr.clone();
            let key = key.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> Vec<u64> {
                let mut p = TcpParticipant::join(&addr, key, pid).expect("join");
                let mut lat_us = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    if p.poll().is_err() {
                        break;
                    }
                    lat_us.push(t0.elapsed().as_micros() as u64);
                }
                lat_us
            })
        })
        .collect();

    let bench_start = Instant::now();
    let mut last_mutation = Instant::now();
    let mut tick = 0u64;
    while bench_start.elapsed() < duration {
        if last_mutation.elapsed() >= mutate_every {
            tick += 1;
            host.mutate_page(move |doc| {
                let root = doc.root();
                if let Some(t) = rcb_html::query::element_by_id(doc, root, "ticker") {
                    doc.set_attr(t, "data-tick", tick.to_string());
                }
            })
            .expect("mutate");
            last_mutation = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    // Measure the window before joining: the join tail (final in-flight
    // polls, histogram drains) grows with N and would bias rates down.
    let elapsed = bench_start.elapsed().as_secs_f64();

    let mut hist = Histogram::new();
    let mut total = 0u64;
    for t in threads {
        for us in t.join().expect("participant thread") {
            total += 1;
            hist.record(SimDuration::from_micros(us));
        }
    }
    let max_conc = host.stats().max_concurrent_polls;
    let resolved = host.backend();
    host.shutdown();
    (total, elapsed, hist, max_conc, resolved)
}

/// One payload-sweep point: `rounds` mutate→sync cycles at the given page
/// size. Returns `(xml_bytes, content_polls, total_polls, bytes_copied)`.
fn run_payload_point(
    backend: ServerBackend,
    payload_bytes: usize,
    rounds: u32,
) -> (usize, u64, u64, u64) {
    let page = sized_page(payload_bytes);
    let mut host = start_host_with_page(backend, 4, &page);
    let addr = host.addr().to_string();
    let mut p = TcpParticipant::join(&addr, host.key().clone(), 1).expect("join");
    // Initial sync carries the full payload.
    p.poll_until_update(50, Duration::from_millis(2))
        .expect("initial sync");
    assert!(p.browser.doc.is_some(), "document synced");
    let xml_bytes = host.published_xml_len();
    for i in 0..rounds {
        host.mutate_page(move |doc| {
            let root = doc.root();
            if let Some(t) = rcb_html::query::element_by_id(doc, root, "ticker") {
                doc.set_attr(t, "data-tick", i.to_string());
            }
        })
        .expect("mutate");
        p.poll_until_update(50, Duration::from_millis(2))
            .expect("sync after mutation");
    }
    let stats = host.stats();
    let total_polls = stats.polls_with_content + stats.polls_empty;
    let out = (
        xml_bytes,
        stats.polls_with_content,
        total_polls,
        stats.body_bytes_copied,
    );
    host.shutdown();
    out
}

/// Regeneration-overlap point: poll p99 with no write traffic vs. poll
/// p99 while back-to-back heavy regenerations run. Returns
/// `(quiescent_p99_us, during_p99_us, avg_regen_us)`.
fn run_regen_overlap(backend: ServerBackend) -> (u64, u64, u64) {
    let page = sized_page(1 << 20);
    let host = Arc::new(start_host_with_page(backend, 4, &page));
    let addr = host.addr().to_string();
    let key = host.key().clone();

    // Raw signed polls with a far-future timestamp: every reply is the
    // tiny empty-content prefab, and the piggybacked mouse move forces
    // the merge path (host mutex) — the path a regeneration could block.
    let mut conn = rcb_http::client::HttpConnection::connect(&addr).expect("connect");
    let poll_us = |conn: &mut rcb_http::client::HttpConnection| -> u64 {
        let mut req =
            rcb_http::Request::post("/poll?p=1", b"t=99999999999999999\nmouse|3|4".to_vec());
        rcb_core::auth::sign_request(&key, &mut req);
        let t0 = Instant::now();
        let resp = conn.round_trip(&req).expect("poll");
        assert!(resp.status.is_success() && resp.body.is_empty());
        t0.elapsed().as_micros() as u64
    };
    let percentile = |samples: &mut [u64], p: f64| -> u64 {
        samples.sort_unstable();
        rcb_util::percentile_nearest_rank(samples, p).expect("non-empty sample set")
    };

    for _ in 0..20 {
        poll_us(&mut conn);
    }
    let mut quiescent: Vec<u64> = (0..150).map(|_| poll_us(&mut conn)).collect();

    let stop = Arc::new(AtomicBool::new(false));
    let mutations = Arc::new(AtomicU32::new(0));
    let mutator = {
        let host = Arc::clone(&host);
        let stop = Arc::clone(&stop);
        let mutations = Arc::clone(&mutations);
        std::thread::spawn(move || -> Duration {
            let t0 = Instant::now();
            let mut n = 0u32;
            while !stop.load(Ordering::Relaxed) || n < 2 {
                // Every top-level body child: an untouched child is
                // copied from the previous generation, not regenerated.
                host.mutate_page(move |doc| {
                    let body = doc.body().expect("the page has a body");
                    for child in doc.children(body).to_vec() {
                        doc.set_attr(child, "data-v", n.to_string());
                    }
                })
                .expect("mutate");
                n += 1;
                mutations.store(n, Ordering::Relaxed);
            }
            t0.elapsed()
        })
    };
    let mut during: Vec<u64> = (0..150).map(|_| poll_us(&mut conn)).collect();
    stop.store(true, Ordering::Relaxed);
    let regen_total = mutator.join().expect("mutator");
    let n = mutations.load(Ordering::Relaxed).max(1);

    (
        percentile(&mut quiescent, 99.0),
        percentile(&mut during, 99.0),
        regen_total.as_micros() as u64 / u64::from(n),
    )
}

/// How many generations, and planned versions, the agent may hold: its
/// newest.
const AGENT_GENERATIONS: usize = 1;

/// Memory-bound phase: ≥ `versions` DOM versions with a participant
/// syncing along; returns the final `(content_cache, timestamps)` sizes.
fn run_memory_bound(backend: ServerBackend, versions: u64) -> (usize, usize) {
    let mut host = start_host(backend, 2);
    let addr = host.addr().to_string();
    let mut p = TcpParticipant::join(&addr, host.key().clone(), 1).expect("join");
    for i in 0..versions {
        host.mutate_page(move |doc| {
            let root = doc.root();
            if let Some(t) = rcb_html::query::element_by_id(doc, root, "ticker") {
                doc.set_attr(t, "data-tick", i.to_string());
            }
        })
        .expect("mutate");
        if i % 50 == 0 {
            let _ = p.poll();
        }
    }
    let lens = host.agent_cache_lens();
    host.shutdown();
    lens
}

/// Connection-hold phase: `conns` keep-alive connections held open
/// *simultaneously* and each polled `rounds` times round-robin, with a
/// handler pool of only `pool` threads. On the epoll engines this is the
/// headline capability — the connection ceiling is the fd limit, so a
/// dispatch pool of 8 services 256 live sessions per shard; the workers
/// backend is exercised at a smaller count (idle connections cost a
/// rotation slot each, which is exactly the limitation that motivated the
/// event loop). Returns `(connections, pool, all_ok, per_shard_conns)` —
/// the spread proves a sharded run exercised every event loop.
fn run_conn_hold(
    backend: ServerBackend,
    conns: usize,
    rounds: usize,
) -> (usize, usize, bool, Vec<u64>) {
    let pool = 8;
    let mut host = start_host_sized(backend, pool, conns * 2, PAGE);
    let addr = host.addr().to_string();
    let key = host.key().clone();
    let mut ok = true;

    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        let mut c = rcb_http::client::HttpConnection::connect(&addr).expect("connect");
        let resp = c
            .round_trip(&rcb_http::Request::get("/"))
            .expect("initial page");
        ok &= resp.status.is_success();
        clients.push(c);
    }
    // Every connection is open at once; each stays responsive across
    // multiple keep-alive polls (far-future timestamp → empty prefab).
    for _ in 0..rounds {
        for (i, c) in clients.iter_mut().enumerate() {
            let mut req = rcb_http::Request::post(
                format!("/poll?p={}", i + 1),
                b"t=99999999999999999".to_vec(),
            );
            rcb_core::auth::sign_request(&key, &mut req);
            match c.round_trip(&req) {
                Ok(resp) => ok &= resp.status.is_success() && resp.body.is_empty(),
                Err(_) => ok = false,
            }
        }
    }
    ok &= host.stats().connections == conns as u64;
    let per_shard = host.server_stats().connections_per_shard;
    ok &= gates::shard_spread_ok(&per_shard);
    host.shutdown();
    (conns, pool, ok, per_shard)
}

/// Outcome of one update-latency cohort run (full-XML or delta wakes).
struct UpdateLatencyRun {
    p99_us: u64,
    completed_polls: u64,
    polls_parked: u64,
    polls_woken: u64,
    polls_woken_delta: u64,
    delta_fallbacks: u64,
    /// Wire bytes (responses as serialized, poll replies plus any object
    /// fetches) per delivered update, averaged over the whole cohort.
    bytes_per_update: u64,
}

/// The update-latency page: a heavy, *unchanging* head (inline styles,
/// as real co-browsed pages carry) over a small mutating body. The
/// delta cohort's wakes should ship only the changed body section;
/// the full-XML cohort re-ships the head on every wake — that gap is
/// what the bytes-on-wire gate measures.
fn update_latency_page() -> String {
    let style = ".c{color:#abc;margin:0 1px 2px 3px;padding:4px;}".repeat(256);
    format!(
        "<html><head><title>update latency</title><style>{style}</style></head>\
         <body><div id=\"ticker\">0</div></body></html>"
    )
}

/// Update-latency phase: `participants` watchers sit in parked long-polls
/// (`lp=3000` ms) while the host publishes `updates` page changes at a
/// slow cadence. Measures change-to-delivery latency per update per
/// participant, counts the polls the engine completed inside the
/// measurement window — the long-poll economy: one completed poll per
/// participant per update, none between — and sums the wire bytes each
/// delivered update cost. With `delta`, watchers advertise `d=1` and
/// woken parks complete with delta-encoded payloads.
fn run_update_latency(
    backend: ServerBackend,
    participants: u64,
    updates: u64,
    delta: bool,
) -> UpdateLatencyRun {
    let page = update_latency_page();
    let mut host = start_host_with_page(backend, 8, &page);
    let addr = host.addr().to_string();
    let key = host.key().clone();
    let epoch = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicU32::new(0));
    let delivered = Arc::new(AtomicU32::new(0));
    // Micros-since-epoch of the most recent mutation; 0 = none yet.
    let last_mutate_us = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let threads: Vec<_> = (1..=participants)
        .map(|pid| {
            let addr = addr.clone();
            let key = key.clone();
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            let delivered = Arc::clone(&delivered);
            let last_mutate_us = Arc::clone(&last_mutate_us);
            std::thread::spawn(move || -> (Vec<u64>, u64) {
                let mut p = TcpParticipant::join(&addr, key, pid).expect("join");
                p.poll().expect("initial sync"); // immediate content
                p.enable_long_poll(SimDuration::from_millis(3_000));
                p.snippet.delta = delta;
                ready.fetch_add(1, Ordering::Relaxed);
                let mut lat_us = Vec::new();
                // Wire bytes attributed to measured update deliveries
                // only (not empty re-parks, not the unblocking wake).
                let mut update_bytes = 0u64;
                let mut bytes_mark = p.wire_bytes_in;
                while !stop.load(Ordering::Relaxed) {
                    match p.poll() {
                        Ok(rcb_core::snippet::SnippetOutcome::Updated { .. }) => {
                            let at = last_mutate_us.load(Ordering::Relaxed);
                            if at != 0 {
                                lat_us.push(epoch.elapsed().as_micros() as u64 - at);
                                delivered.fetch_add(1, Ordering::Relaxed);
                                update_bytes += p.wire_bytes_in - bytes_mark;
                            }
                        }
                        Ok(_) => {} // park window ran dry; re-park
                        Err(_) => break,
                    }
                    bytes_mark = p.wire_bytes_in;
                }
                (lat_us, update_bytes)
            })
        })
        .collect();

    while u64::from(ready.load(Ordering::Relaxed)) < participants {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(30)); // let everyone park
    let polls_before = {
        let s = host.stats();
        s.polls_with_content + s.polls_empty
    };
    for u in 0..updates {
        last_mutate_us.store(epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
        host.mutate_page(move |doc| {
            let root = doc.root();
            if let Some(t) = rcb_html::query::element_by_id(doc, root, "ticker") {
                doc.set_attr(t, "data-update", u.to_string());
            }
        })
        .expect("mutate");
        // Every watcher receives this update before the next publishes.
        let target = (participants * (u + 1)) as u32;
        let wait_start = Instant::now();
        while delivered.load(Ordering::Relaxed) < target {
            assert!(
                wait_start.elapsed() < Duration::from_secs(10),
                "update {u} not delivered to all watchers"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30)); // re-park gap
    }
    let stats = host.stats();
    let completed = stats.polls_with_content + stats.polls_empty - polls_before;

    // Unblock the final parks so joining does not wait out a window; the
    // zeroed mutate stamp keeps this wake out of the latency samples.
    stop.store(true, Ordering::Relaxed);
    last_mutate_us.store(0, Ordering::Relaxed);
    host.mutate_page(|doc| {
        let root = doc.root();
        if let Some(t) = rcb_html::query::element_by_id(doc, root, "ticker") {
            doc.set_attr(t, "data-update", "fin");
        }
    })
    .expect("final mutate");

    let mut hist = Histogram::new();
    let mut total_update_bytes = 0u64;
    for t in threads {
        let (lat_us, update_bytes) = t.join().expect("watcher thread");
        for us in lat_us {
            hist.record(SimDuration::from_micros(us));
        }
        total_update_bytes += update_bytes;
    }
    host.shutdown();
    UpdateLatencyRun {
        p99_us: hist.percentile(99.0).as_micros(),
        completed_polls: completed,
        polls_parked: stats.polls_parked,
        polls_woken: stats.polls_woken,
        polls_woken_delta: stats.polls_woken_delta,
        delta_fallbacks: stats.delta_fallbacks,
        bytes_per_update: total_update_bytes / (participants * updates).max(1),
    }
}

/// One overload-phase client cohort: `n` raw connections hammer signed
/// polls (far-future timestamp → the tiny empty prefab) for `dur`, each
/// carrying a pointer move: an allowed action that merges under the host
/// mutex without changing the DOM, so every poll reaches the dispatch
/// pool (and its admission mark) without regenerating. A shed (`503`)
/// costs the client a brief back-off sleep and is counted; only admitted
/// (`2xx`) polls land in the latency histogram. Returns `(admitted,
/// sheds_seen, elapsed_secs, latency_hist)`.
fn overload_clients(
    addr: &str,
    key: &SessionKey,
    n: u64,
    dur: Duration,
) -> (u64, u64, f64, Histogram) {
    let t0 = Instant::now();
    let threads: Vec<_> = (1..=n)
        .map(|pid| {
            let addr = addr.to_string();
            let key = key.clone();
            std::thread::spawn(move || -> (u64, u64, Vec<u64>) {
                let mut conn = match rcb_http::client::HttpConnection::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0, Vec::new()),
                };
                let (mut ok, mut shed, mut lat_us) = (0u64, 0u64, Vec::new());
                let start = Instant::now();
                while start.elapsed() < dur {
                    let mut req = rcb_http::Request::post(
                        format!("/poll?p={pid}"),
                        b"t=99999999999999999\nmouse|3|4".to_vec(),
                    );
                    rcb_core::auth::sign_request(&key, &mut req);
                    let s = Instant::now();
                    match conn.round_trip(&req) {
                        Ok(resp) if resp.status == rcb_http::Status::SERVICE_UNAVAILABLE => {
                            shed += 1;
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Ok(resp) if resp.status.is_success() => {
                            ok += 1;
                            lat_us.push(s.elapsed().as_micros() as u64);
                        }
                        Ok(_) => {}
                        Err(_) => match rcb_http::client::HttpConnection::connect(&addr) {
                            Ok(c) => conn = c,
                            Err(_) => break,
                        },
                    }
                }
                (ok, shed, lat_us)
            })
        })
        .collect();
    let (mut ok, mut shed) = (0u64, 0u64);
    let mut hist = Histogram::new();
    for t in threads {
        let (o, s, lat) = t.join().expect("overload client");
        ok += o;
        shed += s;
        for us in lat {
            hist.record(SimDuration::from_micros(us));
        }
    }
    (ok, shed, t0.elapsed().as_secs_f64(), hist)
}

/// Overload phase: a healthy 4-client baseline, a 16-client storm against
/// a deliberately low admission mark, and a 4-client recovery cohort once
/// the storm leaves. The storm must actually shed (the mark is real), the
/// polls that *are* admitted under storm must stay within the latency
/// bound (shedding keeps the served path fast), and the recovery rate
/// must reach 90% of the baseline (degradation is graceful both ways).
/// Returns `(pre_rate, storm_p99_us, storm_bound_us, requests_shed,
/// post_rate)`.
fn run_overload(backend: ServerBackend, smoke: bool) -> (f64, u64, u64, u64, f64) {
    // The mark counts different things per engine — the workers rotation
    // queue holds idle keep-alive connections, the epoll dispatch queue
    // holds requests awaiting the pool — so the mark that separates "4
    // clients healthy / 16 clients shedding" differs too.
    let queue_high_water = match backend {
        ServerBackend::Workers => 8,
        _ => 2,
    };
    let key = SessionKey::generate_deterministic(&mut DetRng::new(4242));
    let mut browser = Browser::new(BrowserKind::Firefox);
    browser.url = Some(rcb_url::Url::parse("http://scale.local/").expect("static URL"));
    browser.doc = Some(rcb_html::parse_document(PAGE));
    browser.mutate_dom(|_| {}).expect("document just loaded");
    let mut host = TcpHost::start_from_browser(
        "127.0.0.1:0",
        browser,
        key,
        AgentConfig::default(),
        ServerConfig {
            backend,
            workers: 2,
            queue_capacity: 256,
            read_timeout: Duration::from_millis(2),
            overload: OverloadConfig {
                queue_high_water,
                ..OverloadConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = host.addr().to_string();
    let key = host.key().clone();
    let (calm_dur, storm_dur) = if smoke {
        (Duration::from_millis(400), Duration::from_millis(600))
    } else {
        (Duration::from_secs(1), Duration::from_secs(2))
    };
    // Short calm windows are noisy on shared machines: measure each calm
    // cohort twice and keep the better window (the gate asks whether the
    // capacity exists, not whether every window was quiet).
    let calm_rate = |hist_out: &mut Histogram| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..2 {
            let (ok, _, elapsed, hist) = overload_clients(&addr, &key, 4, calm_dur);
            let rate = ok as f64 / elapsed;
            if rate > best {
                best = rate;
                *hist_out = hist;
            }
        }
        best
    };
    let mut pre_hist = Histogram::new();
    let pre_rate = calm_rate(&mut pre_hist);
    let shed_before = host.server_stats().requests_shed;
    let (_, _, _, storm_hist) = overload_clients(&addr, &key, 16, storm_dur);
    let requests_shed = host.server_stats().requests_shed - shed_before;
    // Let the storm cohort's closed connections drain before measuring
    // recovery.
    std::thread::sleep(Duration::from_millis(100));
    let mut post_hist = Histogram::new();
    let post_rate = calm_rate(&mut post_hist);
    host.shutdown();
    // Bound: the calm p99 with generous headroom, floored so scheduler
    // noise on a loaded CI box cannot fail a healthy run.
    let storm_bound_us = (5 * pre_hist.percentile(99.0).as_micros()).max(100_000);
    (
        pre_rate,
        storm_hist.percentile(99.0).as_micros(),
        storm_bound_us,
        requests_shed,
        post_rate,
    )
}

/// Everything the many-sessions phase measured.
struct SessionsResult {
    target: usize,
    sessions_live: usize,
    calm_rate: f64,
    calm_p99_us: u64,
    storm_quiet_rate: f64,
    storm_quiet_p99_us: u64,
    aggregate_storm_rate: f64,
    storm_polls: u64,
    storm_sheds: u64,
    fairness_queued: u64,
    fairness_shed: u64,
    max_shed: Option<SessionOutlier>,
    p99_shed: Option<SessionOutlier>,
    max_snapshot: Option<SessionOutlier>,
    p99_snapshot: Option<SessionOutlier>,
}

/// One round-robin probe window over the quiet sessions (`s1..sN`; `s0`
/// is the storm tenant): raw signed polls with the far-future timestamp
/// (→ the tiny empty prefab), one keep-alive connection, each poll signed
/// with its session's own key. Returns `(polls, elapsed_secs, hist)`.
fn probe_quiet_sessions(addr: &str, keys: &[SessionKey], dur: Duration) -> (u64, f64, Histogram) {
    let mut conn = rcb_http::client::HttpConnection::connect(addr).expect("probe connect");
    let mut hist = Histogram::new();
    let mut polls = 0u64;
    let mut idx = 1usize;
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let mut req = rcb_http::Request::post(
            format!("/s/s{idx}/poll?p=777"),
            b"t=99999999999999999".to_vec(),
        );
        rcb_core::auth::sign_request(&keys[idx], &mut req);
        let s = Instant::now();
        match conn.round_trip(&req) {
            Ok(resp) if resp.status.is_success() => {
                polls += 1;
                hist.record(SimDuration::from_micros(s.elapsed().as_micros() as u64));
            }
            Ok(_) => {}
            Err(_) => match rcb_http::client::HttpConnection::connect(addr) {
                Ok(c) => conn = c,
                Err(_) => break,
            },
        }
        idx += 1;
        if idx >= keys.len() {
            idx = 1;
        }
    }
    (polls, t0.elapsed().as_secs_f64(), hist)
}

/// Many-sessions phase: the router serves `target` concurrent sessions
/// from one process — joined through the real client path, one
/// participant connection held per session for the whole phase — then
/// session `s0` storms from 8 connections against a deliberately tight
/// per-session bound (2 in flight, 2 waiters) while the quiet cohort is
/// probed round-robin, concurrently, exactly as it was during the calm
/// baseline window.
fn run_sessions(backend: ServerBackend, smoke: bool) -> SessionsResult {
    let target = gates::sessions_target(backend, rcb_util::nofile_soft());
    let sids = (0..target).map(|i| format!("s{i}")).collect();
    let mut host = RouterHost::start(
        "127.0.0.1:0",
        fixed_page_factory(
            "http://scale.local/".to_string(),
            PAGE.to_string(),
            sids,
            "scale1-sessions".to_string(),
        ),
        AgentConfig::default(),
        RouterConfig {
            max_sessions: target + 8,
            // The fairness lever under test: 2 dispatches in flight per
            // session, 2 more may wait, the rest shed — so a storming
            // tenant can occupy at most 4 of the 8 pool threads.
            session_inflight: 2,
            session_waiters: 2,
            ..RouterConfig::default()
        },
        ServerConfig {
            backend,
            workers: 8,
            queue_capacity: target * 2 + 64,
            read_timeout: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = host.addr().to_string();

    // Join: 16 threads create the sessions and hold one participant
    // connection per session open for the rest of the phase.
    let joiners: Vec<_> = (0..16usize)
        .map(|t| {
            let addr = addr.clone();
            let router = Arc::clone(host.router());
            std::thread::spawn(move || -> Vec<TcpParticipant> {
                let mut held = Vec::new();
                let mut i = t;
                while i < target {
                    let sid = format!("s{i}");
                    let handle = router.create_session(&sid).expect("create session");
                    held.push(
                        TcpParticipant::join_session(
                            &addr,
                            &sid,
                            handle.key().clone(),
                            1,
                            &AgentConfig::default(),
                        )
                        .expect("join session"),
                    );
                    i += 16;
                }
                held
            })
        })
        .collect();
    let mut held: Vec<TcpParticipant> = Vec::with_capacity(target);
    for j in joiners {
        held.extend(j.join().expect("joiner thread"));
    }
    let sessions_live = host.stats().sessions_live;
    let keys: Vec<SessionKey> = (0..target)
        .map(|i| {
            host.router()
                .session(&format!("s{i}"))
                .expect("live session")
                .key()
                .clone()
        })
        .collect();

    let (calm_dur, storm_dur) = if smoke {
        (Duration::from_millis(400), Duration::from_millis(600))
    } else {
        (Duration::from_secs(1), Duration::from_secs(2))
    };
    // Calm baseline, best of two windows (short windows are noisy on
    // shared machines; the gates ask for the capacity, not quiet air).
    let (mut calm_rate, mut calm_hist) = (0.0f64, Histogram::new());
    for _ in 0..2 {
        let (polls, elapsed, hist) = probe_quiet_sessions(&addr, &keys, calm_dur);
        let rate = polls as f64 / elapsed;
        if rate > calm_rate {
            (calm_rate, calm_hist) = (rate, hist);
        }
    }

    // Storm: 8 connections hammer s0 while the quiet probe runs
    // concurrently. Each storm poll carries a pointer move, so it reaches
    // the dispatch pool and the session gate on every engine. A fairness
    // shed (prefab 503) costs the storm client a brief back-off, like any
    // well-behaved participant.
    let before = host.stats();
    let storm_key = keys[0].clone();
    let storm_threads: Vec<_> = (1..=8u64)
        .map(|pid| {
            let addr = addr.clone();
            let key = storm_key.clone();
            std::thread::spawn(move || -> (u64, u64) {
                let mut conn = match rcb_http::client::HttpConnection::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0),
                };
                let (mut ok, mut shed) = (0u64, 0u64);
                let start = Instant::now();
                while start.elapsed() < storm_dur {
                    let mut req = rcb_http::Request::post(
                        format!("/s/s0/poll?p={pid}"),
                        b"t=99999999999999999\nmouse|3|4".to_vec(),
                    );
                    rcb_core::auth::sign_request(&key, &mut req);
                    match conn.round_trip(&req) {
                        Ok(resp) if resp.status == rcb_http::Status::SERVICE_UNAVAILABLE => {
                            shed += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Ok(resp) if resp.status.is_success() => ok += 1,
                        Ok(_) => {}
                        Err(_) => match rcb_http::client::HttpConnection::connect(&addr) {
                            Ok(c) => conn = c,
                            Err(_) => break,
                        },
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    let (quiet_polls, quiet_elapsed, quiet_hist) = probe_quiet_sessions(&addr, &keys, storm_dur);
    let (mut storm_polls, mut storm_sheds) = (0u64, 0u64);
    for t in storm_threads {
        let (ok, shed) = t.join().expect("storm client");
        storm_polls += ok;
        storm_sheds += shed;
    }
    let after = host.stats();

    let result = SessionsResult {
        target,
        sessions_live,
        calm_rate,
        calm_p99_us: calm_hist.percentile(99.0).as_micros(),
        storm_quiet_rate: quiet_polls as f64 / quiet_elapsed,
        storm_quiet_p99_us: quiet_hist.percentile(99.0).as_micros(),
        aggregate_storm_rate: (quiet_polls + storm_polls) as f64 / quiet_elapsed,
        storm_polls,
        storm_sheds,
        fairness_queued: after.fairness_queued - before.fairness_queued,
        fairness_shed: after.fairness_shed - before.fairness_shed,
        max_shed: after.max_shed_requests,
        p99_shed: after.p99_shed_requests,
        max_snapshot: after.max_snapshot_bytes,
        p99_snapshot: after.p99_snapshot_bytes,
    };
    drop(held);
    host.shutdown();
    result
}

/// Pulls the scalar after `"key":` out of a (baseline) JSON file — the
/// workspace is dependency-free, so the comparison reads the one number
/// it needs instead of parsing the full document.
fn json_scalar(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let idx = text.find(&needle)? + needle.len();
    let rest = text[idx..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls the string after `"key":"` out of a (baseline) JSON file.
fn json_string(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let idx = text.find(&needle)? + needle.len();
    let rest = &text[idx..];
    rest.find('"').map(|end| rest[..end].to_string())
}

/// The baseline's recorded configuration, with defaults for fields that
/// predate them (no backend field → workers, the only backend that
/// existed; no shards field → one loop).
fn baseline_config(text: &str) -> gates::GateConfig {
    gates::GateConfig {
        cores: json_scalar(text, "cores").unwrap_or(0.0) as usize,
        mode: json_string(text, "mode").unwrap_or_else(|| "full".to_string()),
        backend: json_string(text, "backend").unwrap_or_else(|| "workers".to_string()),
        shards: json_scalar(text, "shards").map_or(1, |s| s as usize),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let json_path = flag_value("--json").unwrap_or_else(|| "BENCH_scale1.json".to_string());
    let compare_path = flag_value("--compare");
    // Backend: `--backend <name>` beats `RCB_SERVER_BACKEND` beats the
    // workers default; `resolved()` folds in platform availability and
    // pins the sharded backend's auto shard count (available cores) so
    // every phase runs the same loop count.
    let backend = flag_value("--backend")
        .map(|v| ServerBackend::parse(&v))
        .unwrap_or_else(ServerBackend::from_env)
        .unwrap_or_else(|e| panic!("{e}"))
        .resolved();
    let shards = backend.shard_count();

    let (counts, duration, versions, sweep_rounds): (&[u64], Duration, u64, u32) = if smoke {
        (&[1, 4, 8], Duration::from_millis(400), 1_000, 2)
    } else {
        (&[1, 2, 4, 8, 16, 32, 64], Duration::from_secs(2), 5_000, 5)
    };
    let mutate_every = Duration::from_millis(100);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    println!(
        "scale1 — poll throughput vs participant count (real sockets, {backend} backend{}{})",
        if matches!(backend, ServerBackend::EpollSharded(_)) {
            format!(" × {shards} shards")
        } else {
            String::new()
        },
        if smoke { ", smoke" } else { "" }
    );
    println!("{:-<72}", "");
    println!(
        "{:>5} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "N", "polls", "polls/s", "p50 us", "p99 us", "max conc"
    );
    let mut first_rate = 0.0f64;
    let mut last_rate = 0.0f64;
    let mut rate_sum = 0.0f64;
    let mut peak_conc = 0u64;
    let mut resolved = backend;
    let mut throughput_rows = String::new();
    // Short smoke windows are noisy on shared machines; gate on the best
    // of two runs per point so the regression compare measures the code,
    // not transient load.
    let attempts = if smoke { 2 } else { 1 };
    for &n in counts {
        let (mut total, mut elapsed, mut hist, mut max_conc, engine) =
            run_point(backend, n, duration, mutate_every);
        resolved = engine;
        for _ in 1..attempts {
            let (t2, e2, h2, c2, _) = run_point(backend, n, duration, mutate_every);
            max_conc = max_conc.max(c2);
            if t2 as f64 / e2 > total as f64 / elapsed {
                (total, elapsed, hist) = (t2, e2, h2);
            }
        }
        let rate = total as f64 / elapsed;
        if n == counts[0] {
            first_rate = rate;
        }
        last_rate = rate;
        rate_sum += rate;
        peak_conc = peak_conc.max(max_conc);
        let (p50, p99) = (
            hist.percentile(50.0).as_micros(),
            hist.percentile(99.0).as_micros(),
        );
        println!("{n:>5} {total:>12} {rate:>12.0} {p50:>10} {p99:>10} {max_conc:>10}");
        let _ = write!(
            throughput_rows,
            "{}{{\"participants\":{n},\"polls\":{total},\"polls_per_sec\":{rate:.1},\
             \"p50_us\":{p50},\"p99_us\":{p99},\"max_concurrent\":{max_conc}}}",
            if throughput_rows.is_empty() { "" } else { "," }
        );
    }
    println!("{:-<72}", "");
    // The pass predicates are pure functions in `rcb_bench::gates` (unit
    // tested on synthetic results, so the gate logic itself is covered
    // without sockets): no lock convoy, observed overlap, and — with real
    // cores to scale onto — actual growth.
    let no_collapse = gates::no_collapse(first_rate, last_rate);
    let overlap_armed = gates::polls_overlap_armed(resolved);
    let overlapped = !overlap_armed || gates::polls_overlapped(peak_conc);
    let scaled = gates::scaling_ok(cores, first_rate, last_rate);
    println!(
        "cores={cores}  no-collapse: {no_collapse} ({first_rate:.0} → {last_rate:.0} polls/s)  \
         polls overlapped: {} (peak {peak_conc})  scaling: {}",
        if overlap_armed {
            format!("{overlapped}")
        } else {
            "gate disarmed (one event loop answers its idle polls one at a time)".to_string()
        },
        if cores < 4 {
            "n/a (needs ≥4 cores)".to_string()
        } else {
            format!("{scaled}")
        }
    );

    // Payload sweep: per-poll heap-copied response-body bytes must be
    // exactly zero at every size — content polls, object requests, and
    // empty replies are all served from prefabs.
    println!("payload sweep — heap-copied response-body bytes per poll");
    println!(
        "{:>12} {:>12} {:>14} {:>12} {:>14}",
        "payload B", "xml B", "content polls", "copied B", "copied/poll"
    );
    let mut copied_per_point = Vec::new();
    let mut sweep_rows = String::new();
    for payload in [16 << 10, 64 << 10, 256 << 10, 1 << 20] {
        let (xml_bytes, content_polls, total_polls, copied) =
            run_payload_point(backend, payload, sweep_rounds);
        let per_poll = copied as f64 / total_polls.max(1) as f64;
        copied_per_point.push(copied);
        println!("{payload:>12} {xml_bytes:>12} {content_polls:>14} {copied:>12} {per_poll:>14.1}");
        let _ = write!(
            sweep_rows,
            "{}{{\"payload_bytes\":{payload},\"xml_bytes\":{xml_bytes},\
             \"content_polls\":{content_polls},\"total_polls\":{total_polls},\
             \"body_bytes_copied\":{copied},\"copied_per_poll\":{per_poll:.3}}}",
            if sweep_rows.is_empty() { "" } else { "," }
        );
    }
    let zero_copy = gates::zero_copy_ok(copied_per_point.iter().copied());
    println!(
        "zero-copy read path: {}",
        if zero_copy {
            "ok (0 bytes copied per poll at every payload size)"
        } else {
            "FAILED"
        }
    );

    // Regeneration overlap: generation runs outside the host mutex, so
    // merge-carrying polls keep their quiescent latency during a storm.
    let (q_p99, d_p99, avg_regen) = run_regen_overlap(backend);
    let regen_bound = gates::regen_bound_us(q_p99);
    let regen_enforced = cores >= 2;
    let regen_ok = gates::regen_overlap_ok(cores, q_p99, d_p99);
    println!(
        "regen overlap: quiescent p99 {q_p99} us, during-regen p99 {d_p99} us \
         (bound {regen_bound} us, avg regen {avg_regen} us): {}",
        if !regen_enforced {
            "n/a (needs ≥2 cores)".to_string()
        } else if regen_ok {
            "ok".to_string()
        } else {
            "FAILED".to_string()
        }
    );

    let (content, ts) = run_memory_bound(backend, versions);
    let bounded = gates::memory_bounded(content, ts, AGENT_GENERATIONS);
    println!(
        "memory bound after {versions} DOM versions: content_cache={content} \
         timestamps={ts} (bound {AGENT_GENERATIONS}): {}",
        if bounded { "ok" } else { "FAILED" }
    );

    // Connection hold: the epoll engines must sustain ≥ 256 concurrent
    // keep-alive connections *per shard* with a dispatch pool far smaller
    // than the connection count (their ceiling is the fd limit, read via
    // the prlimit64 shim and respected by the target); the workers
    // backend is held to what its rotation design affords. On the sharded
    // backend the phase also requires the connections to have spread
    // across every event loop.
    let hold_target = gates::conn_hold_target(backend, shards, rcb_util::nofile_soft());
    let (hold_conns, hold_pool, hold_ok, hold_spread) = run_conn_hold(backend, hold_target, 2);
    println!(
        "connection hold: {hold_conns} concurrent keep-alive connections on a \
         {hold_pool}-thread pool ({backend}{}): {}",
        if hold_spread.is_empty() {
            String::new()
        } else {
            format!(", per-shard {hold_spread:?}")
        },
        if hold_ok { "ok" } else { "FAILED" }
    );

    // Update latency: parked long-polls must deliver a change in exactly
    // one completed poll per watcher (≤ 1.1 with slack), within a tight
    // change-to-delivery p99. The gates arm on the event-loop backends —
    // the workers backend degrades to bounded condvar waits, so its
    // numbers are reported but not gated.
    let (ul_participants, ul_updates): (u64, u64) = if smoke { (4, 8) } else { (4, 30) };
    let full = run_update_latency(backend, ul_participants, ul_updates, false);
    let (ul_p99, ul_polls, ul_parked, ul_woken) = (
        full.p99_us,
        full.completed_polls,
        full.polls_parked,
        full.polls_woken,
    );
    const UPDATE_LATENCY_BOUND_US: u64 = 200_000;
    let ul_armed = !matches!(backend, ServerBackend::Workers);
    let ul_per_update = ul_polls as f64 / (ul_participants * ul_updates) as f64;
    let ul_economy = gates::polls_per_update_ok(ul_polls, ul_participants, ul_updates, 0.1);
    let ul_latency = gates::update_latency_ok(ul_p99, UPDATE_LATENCY_BOUND_US);
    let ul_ok = !ul_armed || (ul_economy && ul_latency);
    println!(
        "update latency: {ul_participants} watchers × {ul_updates} updates, p99 {ul_p99} us \
         (bound {UPDATE_LATENCY_BOUND_US} us), {ul_polls} completed polls \
         ({ul_per_update:.2}/update, parked {ul_parked}, woken {ul_woken}): {}",
        if !ul_armed {
            "n/a (gated on epoll backends)".to_string()
        } else if ul_ok {
            "ok".to_string()
        } else {
            "FAILED".to_string()
        }
    );

    // Bytes on wire per update: the same phase with a delta cohort
    // (`d=1`) — woken parks complete with delta-encoded payloads, so a
    // delivered update must cost strictly fewer wire bytes than the
    // full-XML cohort's. Gated on every backend (the wake path is
    // engine-independent); degenerate zero measurements fail red.
    let dl = run_update_latency(backend, ul_participants, ul_updates, true);
    let wire_ok = gates::wire_bytes_per_update_ok(dl.bytes_per_update, full.bytes_per_update);
    println!(
        "bytes on wire per update: delta {} B vs full {} B \
         (woken {} of which delta {}, fallbacks {}): {}",
        dl.bytes_per_update,
        full.bytes_per_update,
        dl.polls_woken,
        dl.polls_woken_delta,
        dl.delta_fallbacks,
        if wire_ok { "ok" } else { "FAILED" }
    );

    // Overload: the admission mark must actually shed under a 16-client
    // storm, the admitted polls must stay fast while it does, and a calm
    // cohort afterwards must recover ≥ 90% of the pre-storm rate.
    let (ov_pre_rate, ov_p99, ov_bound, ov_shed, ov_post_rate) = run_overload(backend, smoke);
    let ov_shed_ok = gates::overload_shed_ok(ov_shed);
    // The admitted-p99 gate arms on the event-loop backends: the workers
    // rotation queue counts idle keep-alive connections, so under a
    // 16-connection storm essentially *every* request sheds and the
    // handful admitted waited out rotation — a number, not a measurement.
    let ov_p99_armed = !matches!(backend, ServerBackend::Workers);
    let ov_p99_ok = !ov_p99_armed || gates::overload_p99_ok(ov_p99, ov_bound);
    let ov_recovered = gates::overload_recovery_ok(ov_pre_rate, ov_post_rate);
    let ov_ok = ov_shed_ok && ov_p99_ok && ov_recovered;
    println!(
        "overload: pre {ov_pre_rate:.0} polls/s, storm shed {ov_shed} \
         (admitted p99 {ov_p99} us, bound {ov_bound} us{}), post {ov_post_rate:.0} polls/s \
         ({:.0}% recovered): {}",
        if ov_p99_armed {
            ""
        } else {
            ", p99 gated on epoll backends"
        },
        if ov_pre_rate > 0.0 {
            ov_post_rate / ov_pre_rate * 100.0
        } else {
            0.0
        },
        if ov_ok { "ok" } else { "FAILED" }
    );

    // Many-sessions: the router holds the full session target live in one
    // process, and per-session fairness keeps a quiet cohort served while
    // one tenant storms. The behavioural gates arm on the event-loop
    // backends — the workers rotation time-shares every held connection,
    // so its probe rates measure the rotation period, not the router —
    // and only with ≥ 4 cores: on fewer, the 8 storm client threads
    // time-share the CPU with the quiet probe, so a rate drop measures
    // scheduler starvation of the *clients*, not router unfairness, and
    // the per-session gate never sees concurrent dispatches to contend.
    // (The deterministic fairness proof independent of core count is the
    // `world_sessions` sim suite.) Holding the session target always
    // gates.
    let sr = run_sessions(backend, smoke);
    let sess_armed = !matches!(backend, ServerBackend::Workers) && cores >= 4;
    let sess_served = gates::sessions_served_ok(sr.sessions_live, sr.target);
    let sess_bound = gates::session_quiet_bound_us(sr.calm_p99_us);
    let sess_fair = !sess_armed || gates::session_fairness_ok(sr.calm_rate, sr.storm_quiet_rate);
    let sess_p99 = !sess_armed || gates::session_quiet_p99_ok(sr.storm_quiet_p99_us, sess_bound);
    let sess_contained =
        !sess_armed || gates::storm_contained_ok(sr.fairness_queued, sr.fairness_shed);
    let sess_aggregate =
        !sess_armed || gates::sessions_aggregate_ok(sr.calm_rate, sr.aggregate_storm_rate);
    let sess_ok = sess_served && sess_fair && sess_p99 && sess_contained && sess_aggregate;
    println!(
        "sessions: {} live (target {}), calm {:.0} polls/s p99 {} us; under storm: \
         quiet {:.0} polls/s p99 {} us (bound {sess_bound} us), aggregate {:.0} polls/s, \
         storm {} polls / {} sheds (queued {}, shed {}{}){}: {}",
        sr.sessions_live,
        sr.target,
        sr.calm_rate,
        sr.calm_p99_us,
        sr.storm_quiet_rate,
        sr.storm_quiet_p99_us,
        sr.aggregate_storm_rate,
        sr.storm_polls,
        sr.storm_sheds,
        sr.fairness_queued,
        sr.fairness_shed,
        sr.max_shed
            .as_ref()
            .filter(|o| o.value > 0)
            .map(|o| format!(", outlier {}={}", o.sid, o.value))
            .unwrap_or_default(),
        if sess_armed {
            ""
        } else {
            ", fairness gated on epoll backends with ≥4 cores"
        },
        if sess_ok { "ok" } else { "FAILED" }
    );

    // Machine-readable result, alongside the human output.
    let per_shard_json = hold_spread
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let outlier_json = |o: &Option<SessionOutlier>| -> String {
        match o {
            Some(o) => format!("{{\"sid\":\"{}\",\"value\":{}}}", o.sid, o.value),
            None => "null".to_string(),
        }
    };
    let sessions_json = format!(
        "{{\"target\":{},\"live\":{},\"calm_rate\":{:.1},\"calm_p99_us\":{},\
         \"storm_quiet_rate\":{:.1},\"storm_quiet_p99_us\":{},\"quiet_bound_us\":{sess_bound},\
         \"aggregate_storm_rate\":{:.1},\"storm_polls\":{},\"storm_sheds\":{},\
         \"fairness_queued\":{},\"fairness_shed\":{},\"armed\":{sess_armed},\
         \"spread\":{{\"max_shed_requests\":{},\"p99_shed_requests\":{},\
         \"max_snapshot_bytes\":{},\"p99_snapshot_bytes\":{}}}}}",
        sr.target,
        sr.sessions_live,
        sr.calm_rate,
        sr.calm_p99_us,
        sr.storm_quiet_rate,
        sr.storm_quiet_p99_us,
        sr.aggregate_storm_rate,
        sr.storm_polls,
        sr.storm_sheds,
        sr.fairness_queued,
        sr.fairness_shed,
        outlier_json(&sr.max_shed),
        outlier_json(&sr.p99_shed),
        outlier_json(&sr.max_snapshot),
        outlier_json(&sr.p99_snapshot),
    );
    let json = format!(
        "{{\n\"bench\":\"scale1\",\n\"mode\":\"{mode}\",\n\"backend\":\"{backend}\",\n\
         \"shards\":{shards},\n\
         \"cores\":{cores},\n\
         \"throughput\":[{throughput_rows}],\n\
         \"throughput_sum\":{rate_sum:.1},\n\
         \"payload_sweep\":[{sweep_rows}],\n\
         \"regen_latency\":{{\"quiescent_p99_us\":{q_p99},\"during_regen_p99_us\":{d_p99},\
         \"avg_regen_us\":{avg_regen},\"bound_us\":{regen_bound},\"enforced\":{regen_enforced}}},\n\
         \"memory_bound\":{{\"versions\":{versions},\"content_cache\":{content},\
         \"timestamps\":{ts},\"bound\":{AGENT_GENERATIONS}}},\n\
         \"conn_hold\":{{\"connections\":{hold_conns},\"pool\":{hold_pool},\
         \"per_shard\":[{per_shard_json}],\"ok\":{hold_ok}}},\n\
         \"update_latency\":{{\"participants\":{ul_participants},\"updates\":{ul_updates},\
         \"p99_us\":{ul_p99},\"bound_us\":{UPDATE_LATENCY_BOUND_US},\
         \"completed_polls\":{ul_polls},\"polls_per_update\":{ul_per_update:.3},\
         \"polls_parked\":{ul_parked},\"polls_woken\":{ul_woken},\"armed\":{ul_armed},\
         \"bytes_on_wire_per_update\":{{\"full\":{full_bpu},\"delta\":{delta_bpu},\
         \"polls_woken_delta\":{dl_woken_delta},\"delta_fallbacks\":{dl_fallbacks}}}}},\n\
         \"overload\":{{\"pre_rate\":{ov_pre_rate:.1},\"requests_shed\":{ov_shed},\
         \"storm_p99_us\":{ov_p99},\"bound_us\":{ov_bound},\"p99_armed\":{ov_p99_armed},\
         \"post_rate\":{ov_post_rate:.1}}},\n\
         \"sessions\":{sessions_json},\n\
         \"overlap_armed\":{overlap_armed},\n\
         \"pass\":{{\"no_collapse\":{no_collapse},\"overlapped\":{overlapped},\
         \"scaled\":{scaled},\"zero_copy\":{zero_copy},\"regen_overlap\":{regen_ok},\
         \"memory_bounded\":{bounded},\"conn_hold\":{hold_ok},\
         \"update_latency\":{ul_ok},\"wire_bytes_per_update\":{wire_ok},\
         \"overload_shed\":{ov_shed_ok},\
         \"overload_p99\":{ov_p99_ok},\"overload_recovery\":{ov_recovered},\
         \"sessions_served\":{sess_served},\"session_fairness\":{sess_fair},\
         \"session_quiet_p99\":{sess_p99},\"storm_contained\":{sess_contained},\
         \"sessions_aggregate\":{sess_aggregate}}}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        full_bpu = full.bytes_per_update,
        delta_bpu = dl.bytes_per_update,
        dl_woken_delta = dl.polls_woken_delta,
        dl_fallbacks = dl.delta_fallbacks,
    );
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }

    // Regression gate against a committed baseline (CI runs this in
    // --smoke mode): >20% aggregate-throughput drop fails the run.
    // Absolute polls/s only compare meaningfully on like hardware and
    // like load shape, so the throughput gate is ARMED only when the
    // baseline was recorded with the same core count, mode, and server
    // backend; otherwise it prints an explicit "gate disarmed" line (so
    // CI logs show at a glance whether the regression gate was live) and
    // skips — the machine-independent criteria (zero-copy, regen overlap,
    // memory bound, connection hold) still gate — and the baseline should
    // be refreshed from a run in this configuration.
    let mode = if smoke { "smoke" } else { "full" };
    let run_config = gates::GateConfig {
        cores,
        mode: mode.to_string(),
        backend: backend.label().to_string(),
        shards,
    };
    let mut regression = false;
    if let Some(baseline_path) = compare_path {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => {
                let baseline = baseline_config(&text);
                let armed = gates::compare_gate_armed(&baseline, &run_config);
                match json_scalar(&text, "throughput_sum") {
                    Some(baseline_sum) if baseline_sum > 0.0 && armed => {
                        let ratio = rate_sum / baseline_sum;
                        regression = gates::throughput_regressed(rate_sum, baseline_sum);
                        println!(
                            "baseline compare: {rate_sum:.0} vs {baseline_sum:.0} polls/s \
                             (ratio {ratio:.2}): {}",
                            if regression { "REGRESSION >20%" } else { "ok" }
                        );
                    }
                    Some(baseline_sum) if baseline_sum > 0.0 => {
                        println!(
                            "baseline compare: gate disarmed (baseline cores={}, \
                             machine cores={cores}; baseline mode={}, run \
                             mode={mode}; baseline backend={}, run \
                             backend={backend}; baseline shards={}, run \
                             shards={shards}) — throughput gate not live; refresh \
                             {baseline_path} from a run in this configuration",
                            baseline.cores, baseline.mode, baseline.backend, baseline.shards
                        );
                    }
                    _ => {
                        eprintln!("baseline {baseline_path} has no throughput_sum; failing");
                        regression = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                regression = true;
            }
        }
    }

    if !no_collapse
        || !overlapped
        || !scaled
        || !bounded
        || !zero_copy
        || !regen_ok
        || !hold_ok
        || !ul_ok
        || !wire_ok
        || !ov_ok
        || !sess_ok
        || regression
    {
        std::process::exit(1);
    }
}
