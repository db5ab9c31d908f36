//! What every workload shares: configurations built from explicit values
//! (never from `RCB_*` variables), the Table-1 page loader, a raw
//! loopback client that counts response bytes, and the participant
//! (snippet + browser) it drives.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rcb_browser::{Browser, BrowserKind};
use rcb_core::agent::{AgentConfig, CacheMode};
use rcb_core::policy::{InteractionPolicy, NavigationPolicy};
use rcb_core::snippet::{AjaxSnippet, SnippetOutcome};
use rcb_core::tcp::{TcpHost, TcpHostStats};
use rcb_core::RouterConfig;
use rcb_crypto::SessionKey;
use rcb_http::server::{OverloadConfig, ParkHub, ServerBackend, ServerConfig};
use rcb_http::{Request, Response};
use rcb_origin::OriginRegistry;
use rcb_sim::{NetProfile, Pipe};
use rcb_util::{Clock, RcbError, Result, SimDuration, SimTime};

use crate::trace::Layers;

/// Dispatch threads (epoll engines) or connection workers (workers
/// engine). Pinned so the `RCB_*` defaults of the program cannot leak in.
pub const WORKERS: usize = 4;
/// Event loops of the sharded epoll engine.
pub const EPOLL_SHARDS: usize = 2;
/// Long-poll wait the watchers ask for, and the host's ceiling on it:
/// far beyond any run, so no park may time out inside the window.
pub const PARK_WAIT: SimDuration = SimDuration::from_secs(120);
/// Client read timeout: a reply slower than this is a failed op.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Agent configuration with every field spelled out.
pub fn agent_config() -> AgentConfig {
    AgentConfig {
        cache_mode: CacheMode::Cache,
        poll_interval: SimDuration::from_secs(1),
        nav_policy: NavigationPolicy::Immediate,
        interaction_policy: InteractionPolicy::AllParticipants,
        authenticate_responses: false,
        park_timeout: PARK_WAIT,
        client_read_timeout: SimDuration::from_duration(READ_TIMEOUT),
        path_prefix: String::new(),
    }
}

/// Router configuration with every field spelled out.
pub fn router_config() -> RouterConfig {
    RouterConfig {
        max_sessions: 4096,
        idle_evict: Duration::from_secs(15 * 60),
        session_inflight: usize::MAX,
        session_waiters: 32,
    }
}

/// Overload limits with every field spelled out (generous: nothing in a
/// run may be shed or cut).
pub fn overload_config() -> OverloadConfig {
    OverloadConfig {
        header_read_timeout: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(300),
        write_stall_timeout: Duration::from_secs(10),
        max_header_bytes: 64 * 1024,
        max_body_bytes: 8 * 1024 * 1024,
        queue_high_water: 4096,
        max_parked: 4096,
        retry_after_base_secs: 1,
        retry_after_jitter_secs: 3,
        shed_seed: 0x5ced_2026,
    }
}

/// Server configuration with every field spelled out.
pub fn server_config(backend: ServerBackend) -> ServerConfig {
    ServerConfig {
        backend,
        workers: WORKERS,
        queue_capacity: 256,
        read_timeout: Duration::from_millis(2),
        park_hub: Arc::new(ParkHub::default()),
        clock: Clock::wall(),
        overload: overload_config(),
    }
}

/// A host browser that navigated to a Table-1 site through the simulated
/// origin, so its cache holds the page's objects (cache mode serves them).
pub fn load_site(origins: &mut OriginRegistry, site: &str) -> Result<Browser> {
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut browser = Browser::new(BrowserKind::Firefox);
    let url = rcb_url::Url::parse(&format!("http://{site}/"))?;
    browser.navigate(&url, origins, &mut pipe, &profile, SimTime::ZERO)?;
    Ok(browser)
}

/// Nanoseconds from `epoch` to now.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One keep-alive loopback connection that can send and receive
/// separately (a watcher sends two polls before reading either reply)
/// and counts every response byte it reads.
pub struct Wire {
    stream: TcpStream,
    addr: String,
    /// Response bytes read: status line, headers and body.
    pub bytes_in: u64,
}

impl Wire {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            stream,
            addr: addr.to_string(),
            bytes_in: 0,
        })
    }

    /// Drops the connection and opens a fresh one (after a transport
    /// error, so one failure does not fail every later op).
    pub fn reconnect(&mut self) -> Result<()> {
        let bytes = self.bytes_in;
        *self = Wire::connect(&self.addr)?;
        self.bytes_in = bytes;
        Ok(())
    }

    /// Writes one request.
    pub fn send(&mut self, req: &Request) -> Result<()> {
        self.stream
            .write_all(&rcb_http::serialize::serialize_request(req))?;
        Ok(())
    }

    /// Reads one response.
    pub fn recv(&mut self) -> Result<Response> {
        let resp = rcb_http::client::read_response(&mut self.stream)?;
        self.bytes_in += resp.wire_len() as u64;
        Ok(resp)
    }

    /// Sends `req` and reads its response.
    pub fn round_trip(&mut self, req: &Request) -> Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

/// A participant: the Ajax-Snippet and the browser it updates.
pub struct Peer {
    pub snippet: AjaxSnippet,
    pub browser: Browser,
    /// Agent-served objects fetched since the join.
    pub objects_fetched: u64,
    /// DOM arena size after the join or the last [`Peer::collect_garbage`].
    live_nodes: usize,
}

/// A participant DOM is compacted once its arena holds this many times
/// the nodes it held after the last compaction.
const GARBAGE_FACTOR: usize = 32;

impl Peer {
    /// Joins the session under `prefix` (`""` for the default session):
    /// fetches the initial page over `wire` and arms the snippet.
    pub fn join(wire: &mut Wire, prefix: &str, key: SessionKey, pid: u64) -> Result<Peer> {
        let resp = wire.round_trip(&Request::get(format!("{prefix}/")))?;
        if resp.status.0 != 200 {
            return Err(RcbError::Protocol(format!(
                "join answered {}",
                resp.status.0
            )));
        }
        let doc = rcb_html::parse_document(&resp.body_str());
        let live_nodes = doc.node_count();
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.doc = Some(doc);
        let mut snippet = AjaxSnippet::new(pid, key, SimDuration::from_secs(1));
        snippet.base_path = prefix.to_string();
        Ok(Peer {
            snippet,
            browser,
            objects_fetched: 0,
            live_nodes,
        })
    }

    /// The participant DOM's arena keeps every node an update detaches
    /// (`rcb_html` frees nothing), so it grows by a whole page per full
    /// update: a 20 s `cobrowse-merge` run would reach gigabytes, and the
    /// arena's reallocations would show up as latency. A browser collects
    /// detached nodes; this stands in for that collection. Once the arena
    /// holds [`GARBAGE_FACTOR`] times its live size, the document is
    /// re-parsed from its own serialization (same content, no detached
    /// nodes). Called between ops, so it is in participant CPU but in no
    /// op's latency.
    pub fn collect_garbage(&mut self) {
        let Some(doc) = self.browser.doc.as_ref() else {
            return;
        };
        if doc.node_count() < GARBAGE_FACTOR * self.live_nodes {
            return;
        }
        let fresh = rcb_html::parse_document(&rcb_html::serialize::serialize_document(doc));
        self.live_nodes = fresh.node_count();
        self.browser.doc = Some(fresh);
    }

    /// Applies a poll reply; a non-200 reply is an error.
    pub fn apply(&mut self, resp: &Response) -> Result<SnippetOutcome> {
        if resp.status.0 != 200 {
            return Err(RcbError::Protocol(format!(
                "poll answered {}",
                resp.status.0
            )));
        }
        self.snippet.process_response(resp, &mut self.browser)
    }

    /// Fetches the agent-served objects an update references that the
    /// browser does not hold yet, over `wire`.
    pub fn fetch_objects(&mut self, wire: &mut Wire, outcome: &SnippetOutcome) -> Result<()> {
        let SnippetOutcome::Updated { object_urls, .. } = outcome else {
            return Ok(());
        };
        for url in object_urls {
            if !url.starts_with('/') || self.browser.cache.contains(url) {
                continue;
            }
            let obj = wire.round_trip(&Request::get(url.clone()))?;
            if obj.status.0 != 200 {
                return Err(RcbError::Protocol(format!(
                    "object answered {}",
                    obj.status.0
                )));
            }
            let ct = obj.content_type().unwrap_or_default();
            self.browser.cache.store(url, &ct, obj.body, SimTime::ZERO);
            self.objects_fetched += 1;
        }
        Ok(())
    }

    /// One plain poll round trip: build, send, apply, fetch objects.
    pub fn poll(&mut self, wire: &mut Wire) -> Result<SnippetOutcome> {
        let resp = wire.round_trip(&self.snippet.build_poll())?;
        let outcome = self.apply(&resp)?;
        self.fetch_objects(wire, &outcome)?;
        Ok(outcome)
    }

    /// The participant document, serialized (for convergence checks).
    pub fn serialized(&self) -> String {
        self.browser
            .doc
            .as_ref()
            .map(rcb_html::serialize::serialize_document)
            .unwrap_or_default()
    }
}

/// Joins and completes the first full sync (initial content plus every
/// agent-served object) — the state every workload's set-up ends in.
pub fn join_and_sync(wire: &mut Wire, prefix: &str, key: SessionKey, pid: u64) -> Result<Peer> {
    let mut peer = Peer::join(wire, prefix, key, pid)?;
    match peer.poll(wire)? {
        SnippetOutcome::Updated { .. } => Ok(peer),
        SnippetOutcome::NoNewContent => Err(RcbError::Protocol(
            "first poll after join carried no content".into(),
        )),
    }
}

/// When a load loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    After(u64),
}

impl Stop {
    pub fn done(self, ops: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => ops >= n,
        }
    }
}

/// What one load thread measured.
#[derive(Debug, Default)]
pub struct ThreadReport {
    pub samples: Vec<crate::stats::Sample>,
    /// Human-readable correctness failures.
    pub errors: Vec<String>,
}

/// CPU spent in one sampling window.
#[derive(Debug, Clone, Copy)]
pub struct CpuWindow {
    /// Ops completed in the window.
    pub ops: u64,
    pub host_ns: u64,
    pub participant_ns: u64,
}

/// Per-window CPU accounting: a sampler thread reads every thread's CPU
/// time once per window while the load threads count their ops, so CPU
/// per op is taken per window and reported as the median across windows,
/// like latency — a burst of interference moves one window, not the run.
#[derive(Default)]
pub struct CpuWindows {
    ops: AtomicU64,
    participants: Mutex<Vec<u64>>,
    done: Mutex<bool>,
    wake: Condvar,
}

impl CpuWindows {
    /// Counts the calling thread as a participant thread; every other
    /// thread but the sampler counts as the host.
    pub fn join_as_participant(&self) {
        self.participants
            .lock()
            .expect("participant list poisoned")
            .push(crate::stats::current_tid());
    }

    /// Records one completed op.
    pub fn op_done(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    fn sample(&self, window: Duration) -> Vec<CpuWindow> {
        let me = crate::stats::current_tid();
        let read = || {
            let mut cpu = crate::stats::task_cpu_ns();
            cpu.remove(&me);
            (self.ops.load(Ordering::Relaxed), cpu)
        };
        let mut prev = read();
        let mut windows = Vec::new();
        let mut next = Instant::now() + window;
        let mut done = self.done.lock().expect("sampler flag poisoned");
        while !*done {
            let left = next.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                done = self
                    .wake
                    .wait_timeout(done, left)
                    .expect("sampler flag poisoned")
                    .0;
                continue;
            }
            next += window;
            let cur = read();
            let participants = self
                .participants
                .lock()
                .expect("participant list poisoned")
                .clone();
            let (host_ns, participant_ns) = crate::stats::split_cpu(&prev.1, &cur.1, &participants);
            windows.push(CpuWindow {
                ops: cur.0 - prev.0,
                host_ns,
                participant_ns,
            });
            prev = cur;
        }
        windows
    }
}

/// Runs `load` on the calling thread while a sampler thread records CPU
/// per window of `window_ns`; returns `load`'s result and the windows.
pub fn with_cpu_windows<R>(
    window_ns: u64,
    load: impl FnOnce(&CpuWindows) -> R,
) -> (R, Vec<CpuWindow>) {
    let cpu = CpuWindows::default();
    std::thread::scope(|s| {
        let sampler = s.spawn(|| cpu.sample(Duration::from_nanos(window_ns)));
        let result = load(&cpu);
        *cpu.done.lock().expect("sampler flag poisoned") = true;
        cpu.wake.notify_all();
        (result, sampler.join().expect("CPU sampler panicked"))
    })
}

/// What each set-up of a run cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupCost {
    /// CPU time of every thread of the process.
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Runs `setup` `repeats` times, tearing each earlier state down before
/// the next is built, and returns the last state with each set-up's cost.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T>,
) -> Result<(T, Vec<SetupCost>)> {
    let mut costs = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats.max(1) {
        drop(state.take());
        let cpu = crate::stats::process_cpu_s();
        let t = Instant::now();
        let s = setup()?;
        costs.push(SetupCost {
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: crate::stats::process_cpu_s() - cpu,
        });
        state = Some(s);
    }
    Ok((state.expect("at least one set-up"), costs))
}

/// Generations the host's agent has run.
pub fn generations(host: &TcpHost) -> u64 {
    host.with_agent_stats(|s| s.generations.get())
}

/// What a traced phase on a single-session host counted; every value
/// repeats exactly for a seed.
pub fn host_counts(
    s0: &TcpHostStats,
    s1: &TcpHostStats,
    generations: u64,
    wire_bytes: u64,
) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        (
            "tcp.polls_answered",
            s1.polls_with_content + s1.polls_empty - s0.polls_with_content - s0.polls_empty,
        ),
        ("tcp.polls_empty", s1.polls_empty - s0.polls_empty),
        (
            "tcp.polls_woken_delta",
            s1.polls_woken_delta - s0.polls_woken_delta,
        ),
        (
            "tcp.delta_fallbacks",
            s1.delta_fallbacks - s0.delta_fallbacks,
        ),
        ("tcp.auth_failures", s1.auth_failures - s0.auth_failures),
        (
            "tcp.body_bytes_copied",
            s1.body_bytes_copied - s0.body_bytes_copied,
        ),
        ("agent.generations", generations),
        ("wire_bytes", wire_bytes),
    ])
}

/// Records [`host_counts`] of a phase of `ops` ops as per-layer metrics.
pub fn record_host_counts(v: &mut Layers, counts: &BTreeMap<&'static str, u64>, ops: f64) {
    for name in [
        "tcp.polls_empty",
        "tcp.polls_woken_delta",
        "tcp.delta_fallbacks",
        "tcp.auth_failures",
        "tcp.body_bytes_copied",
    ] {
        v.insert(name, counts[name] as f64);
    }
    v.insert(
        "tcp.polls_per_update",
        counts["tcp.polls_answered"] as f64 / ops,
    );
    v.insert(
        "agent.generations_per_op",
        counts["agent.generations"] as f64 / ops,
    );
}
