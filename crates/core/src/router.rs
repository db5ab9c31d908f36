//! Multi-tenant session routing: thousands of independent co-browsing
//! sessions served by one process.
//!
//! The paper's deployment unit is one session — one host browser, one
//! agent, one set of participants. Scaling past that means many
//! *sessions*, not one big one: a [`SessionRouter`] owns a sharded
//! `sid → session` map and multiplexes every session over one listening
//! socket and one serving engine (any of the three backends). Requests
//! carry their session id as a path prefix (`/s/{sid}/...`); the prefix
//! rides inside the signed request-URI, so it is covered by the poll
//! HMAC and the object token like every other parameter — a request
//! cannot be replayed into another session without failing
//! authentication. Legacy un-prefixed paths route to the implicit
//! *default* session, so the single-session deployment
//! ([`TcpHost`](crate::tcp::TcpHost)) is
//! now a thin wrapper over a one-session router.
//!
//! # Isolation
//!
//! Each session gets its own `SharedHost` — snapshot, agent,
//! participant shards, and [`ParkChannel`](rcb_http::ParkChannel):
//! snapshot publication wakes only the session's own parked long-polls,
//! and evicting a session closes its channel for good, completing every
//! park on it — including one that lands after the sweep — with the
//! timeout reply (no fd or park-slot leaks). The channel lives as long
//! as the session or a park still holds it; nothing in the router or the
//! hub remembers it. The serving engine, its dispatch pool, and the
//! [`ParkHub`] (engine wakers and park cap) are shared across all
//! sessions.
//!
//! # Fairness
//!
//! A regeneration storm in one session must not starve the rest. The
//! router bounds in-flight dispatches *per session*
//! ([`RouterConfig::session_inflight`]): at the bound, a bounded number
//! of dispatch threads queue behind that session
//! ([`RouterConfig::session_waiters`]) and anything beyond is shed with
//! the prefab `503 + Retry-After` — the backpressure lands on the noisy
//! session, not on the shared pool.
//!
//! # Lock ordering
//!
//! The router's shard lock is a **leaf** on the read path: look up,
//! clone the entry `Arc`, release — it is never held across a handler
//! call or while acquiring any per-session lock. Lazy session creation
//! holds the shard write lock across the factory + host build (one-time
//! cost per session, and only that shard blocks), and eviction holds it
//! across closing each evicted session's channel (an atomic store plus
//! the hub's engine wake, whose locks are leaves below everything here).
//! The fairness gate is per-session state acquired strictly after the
//! shard lock is released.
//!
//! # Two entries
//!
//! [`SessionRouter::make_handler`] answers every request and may block:
//! it creates sessions, runs the eviction sweep, waits at a fairness
//! gate, and merges actions under a session's host mutex.
//! [`SessionRouter::make_try_handler`] is the same routing, for an epoll
//! event loop: at each of those four points it hands the request back
//! untouched instead — before any counter moves — and the engine runs it
//! through the blocking entry on a dispatch thread. It only `try_read`s
//! the shard map (a creation holds the write lock across the factory),
//! and a session's gate admits it only below the in-flight bound. Every
//! other request — joins, object fetches, polls without allowed actions,
//! parks — is answered where it arrived.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, TryLockError};
use std::time::Duration;

use rcb_browser::Browser;
use rcb_crypto::SessionKey;
use rcb_http::server::{
    Handler, HandlerOutcome, HttpServer, ParkHub, ServerBackend, ServerConfig, ShedResponder,
    TryHandler,
};
use rcb_http::{Request, Response, Status};
use rcb_util::{Clock, RcbError, Result};

use crate::agent::{AgentConfig, AgentStats};
use crate::tcp::{SharedHost, TcpHostStats};

/// The canonical path prefix of a routed session: `/s/{sid}`.
pub fn session_prefix(sid: &str) -> String {
    format!("/s/{sid}")
}

/// How the router provisions a session on first use: given the session
/// id, return the host browser (page already loaded) and the session key
/// participants will authenticate with — or `None` when the id is not a
/// provisioned session (the router answers with the prefab 404).
pub type SessionFactory = Box<dyn Fn(&str) -> Option<(Browser, SessionKey)> + Send + Sync>;

/// Router tunables. `Default` is the plain constants.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Ceiling on live sessions in this process; at the cap, requests
    /// for new session ids are shed with the prefab `503 + Retry-After`.
    pub max_sessions: usize,
    /// A session with no routed request for this long is removed by
    /// [`SessionRouter::evict_idle`] (the default session is exempt).
    pub idle_evict: Duration,
    /// Per-session in-flight dispatch bound (the fairness lever). The
    /// default — effectively unbounded — keeps single-session behavior
    /// identical; many-session deployments set a small bound so one
    /// storming session queues behind itself instead of occupying the
    /// shared dispatch pool.
    pub session_inflight: usize,
    /// How many dispatches may queue behind a session at its in-flight
    /// bound before further ones are shed with the prefab `503`.
    pub session_waiters: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_sessions: 4096,
            idle_evict: Duration::from_secs(15 * 60),
            session_inflight: usize::MAX,
            session_waiters: 32,
        }
    }
}

/// Per-session fairness gate: `(active, waiting)` under one mutex. At
/// the in-flight bound a bounded number of dispatch threads block on the
/// condvar (queueing behind *this* session); beyond that the dispatch is
/// shed. Slots are held only across the handler call — a parked
/// long-poll holds no slot, exactly as it holds no dispatch thread.
#[derive(Debug, Default)]
struct FairnessGate {
    state: Mutex<(usize, usize)>,
    cond: Condvar,
}

enum Admission {
    Admitted,
    /// Dispatches queued (0 or more) then admitted — the count feeds the
    /// `fairness_queued` stat.
    AdmittedAfterWait,
    Shed,
    /// At the in-flight bound, for a caller that may not wait (nor count
    /// a shed): it hands the request to one that may.
    AtBound,
}

impl FairnessGate {
    fn acquire(&self, max_inflight: usize, max_waiters: usize, may_wait: bool) -> Admission {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.0 < max_inflight {
            st.0 += 1;
            return Admission::Admitted;
        }
        if !may_wait {
            return Admission::AtBound;
        }
        if st.1 >= max_waiters {
            return Admission::Shed;
        }
        st.1 += 1;
        while st.0 >= max_inflight {
            st = self
                .cond
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.1 -= 1;
        st.0 += 1;
        Admission::AdmittedAfterWait
    }

    fn release(&self) {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.0 = st.0.saturating_sub(1);
        drop(st);
        self.cond.notify_one();
    }
}

/// One live session: its host state (which owns its park channel),
/// fairness gate, and idle bookkeeping.
struct SessionEntry {
    sid: String,
    host: Arc<SharedHost>,
    /// Engine-clock micros of the last routed request (idle eviction).
    last_activity: AtomicU64,
    gate: FairnessGate,
    /// Per-session fairness sheds (also counted process-wide).
    fairness_shed: AtomicU64,
}

/// A handle to one live session — the per-session slice of the old
/// [`TcpHost`](crate::tcp::TcpHost) surface.
#[derive(Clone)]
pub struct SessionHandle {
    entry: Arc<SessionEntry>,
}

impl SessionHandle {
    /// The session id (`""` for the default session).
    pub fn sid(&self) -> &str {
        &self.entry.sid
    }

    /// The path prefix participants reach this session under (`""` for
    /// the default session).
    pub fn prefix(&self) -> String {
        if self.entry.sid.is_empty() {
            String::new()
        } else {
            session_prefix(&self.entry.sid)
        }
    }

    /// The session key to share out of band.
    pub fn key(&self) -> &SessionKey {
        self.entry.host.key()
    }

    /// Mutates this session's live host page; the snapshot is
    /// regenerated and published (waking this session's parked polls —
    /// and only this session's) before this returns.
    pub fn mutate_page(&self, f: impl FnOnce(&mut rcb_html::Document)) -> Result<()> {
        self.entry.host.mutate_page(f)
    }

    /// This session's concurrent-path counters.
    pub fn stats(&self) -> TcpHostStats {
        self.entry.host.stats_snapshot()
    }

    /// Runs `f` against this session's agent write-path stats (generation
    /// and reuse counters, M5 samples) under the host lock.
    pub fn with_agent_stats<R>(&self, f: impl FnOnce(&AgentStats) -> R) -> R {
        self.entry.host.with_agent_stats(f)
    }

    /// `(content_cache_len, timestamps_len)` of this session's agent: each
    /// at most 1, the newest generation and the planned version.
    pub fn agent_cache_lens(&self) -> (usize, usize) {
        self.entry.host.agent_cache_lens()
    }

    /// Reads this session's current host form field values (to observe
    /// merged co-fill data).
    pub fn form_fields(&self, form_id: &str) -> Vec<(String, String)> {
        self.entry.host.form_fields(form_id)
    }

    /// Number of participants this session's agent has seen.
    pub fn participant_count(&self) -> usize {
        self.entry.host.participant_count()
    }

    /// This session's live host DOM version (the published snapshot may
    /// briefly lag it mid-regeneration).
    pub fn dom_version(&self) -> u64 {
        self.entry.host.dom_version()
    }

    /// The document timestamp of the currently published snapshot.
    pub fn published_doc_time(&self) -> u64 {
        self.entry.host.published_doc_time()
    }

    /// Byte length of the currently published Fig.-4 XML.
    pub fn published_xml_len(&self) -> usize {
        self.entry.host.published_xml_len()
    }

    /// The underlying session host (crate-internal: [`TcpHost`] keeps
    /// its accessor surface through this, and the paper world calls the
    /// host in-process).
    pub(crate) fn shared_host(&self) -> &Arc<SharedHost> {
        &self.entry.host
    }
}

/// One session's contribution to an outlier ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutlier {
    /// Session id (`""` is the default session).
    pub sid: String,
    /// The ranked gauge value.
    pub value: u64,
}

/// Process-level router statistics: cheap per-session gauges aggregated
/// into one view, with the outlier sessions surfaced (the ACME shape —
/// a fleet summary plus "which tenant is the problem").
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Sessions currently live.
    pub sessions_live: usize,
    /// Sessions ever created (including evicted ones).
    pub sessions_created: u64,
    /// Sessions removed by idle eviction.
    pub sessions_evicted: u64,
    /// Requests shed because the session cap was reached.
    pub cap_sheds: u64,
    /// Requests answered with the prefab 404 for an unknown session id.
    pub unknown_session_404s: u64,
    /// Requests routed into a session handler.
    pub requests_routed: u64,
    /// Dispatches that queued behind a session's in-flight bound.
    pub fairness_queued: u64,
    /// Dispatches shed at a session's waiter bound.
    pub fairness_shed: u64,
    /// Per-session gauges summed across live sessions. The park-cap shed
    /// counter reads the shared hub once (it is hub-global, not
    /// per-session).
    pub totals: TcpHostStats,
    /// Session with the most parked long-polls, and the p99 session.
    pub max_parked_polls: Option<SessionOutlier>,
    /// p99 session by parked long-polls.
    pub p99_parked_polls: Option<SessionOutlier>,
    /// Session with the most fairness sheds, and the p99 session.
    pub max_shed_requests: Option<SessionOutlier>,
    /// p99 session by fairness sheds.
    pub p99_shed_requests: Option<SessionOutlier>,
    /// Session with the largest published snapshot, and the p99 session.
    pub max_snapshot_bytes: Option<SessionOutlier>,
    /// p99 session by published snapshot bytes.
    pub p99_snapshot_bytes: Option<SessionOutlier>,
}

/// Process-wide router counters (the cheap side of the two-tier stats).
#[derive(Debug, Default)]
struct RouterCounters {
    sessions_created: AtomicU64,
    sessions_evicted: AtomicU64,
    cap_sheds: AtomicU64,
    unknown_session_404s: AtomicU64,
    requests_routed: AtomicU64,
    fairness_queued: AtomicU64,
    fairness_shed: AtomicU64,
}

/// How many ways the `sid → session` map is sharded. Requests for
/// different sessions contend only when their sids hash to the same
/// shard (and then only for the duration of a lookup).
const MAP_SHARDS: usize = 16;

/// The session-routing layer (see module docs).
pub struct SessionRouter {
    shards: Vec<RwLock<HashMap<String, Arc<SessionEntry>>>>,
    config: RouterConfig,
    /// Per-session agent-config template; the router overwrites
    /// `path_prefix` per session.
    agent_config: AgentConfig,
    factory: SessionFactory,
    park: Arc<ParkHub>,
    clock: Clock,
    live: AtomicUsize,
    counters: RouterCounters,
    shed: ShedResponder,
    /// The prefab 404 for unknown session ids.
    not_found: Response,
    /// Clock reading (micros) of the last idle-eviction sweep. The
    /// dispatch path CASes this forward on a coarse interval so exactly
    /// one request thread pays for each sweep — no caller has to
    /// remember to drive [`SessionRouter::evict_idle`].
    last_sweep: AtomicU64,
}

impl SessionRouter {
    /// Builds a router for the engine bound (now or later) with
    /// `server`: every session publishes through its park hub and reads
    /// its clock, and the router's own sheds draw on its overload limits
    /// (the `Retry-After` jitter pool).
    pub fn new(
        factory: SessionFactory,
        agent_config: AgentConfig,
        config: RouterConfig,
        server: &ServerConfig,
    ) -> Arc<SessionRouter> {
        let clock = server.clock.clone();
        let started_at = clock.now().as_micros();
        Arc::new(SessionRouter {
            shards: (0..MAP_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            config,
            agent_config,
            factory,
            park: Arc::clone(&server.park_hub),
            clock,
            live: AtomicUsize::new(0),
            counters: RouterCounters::default(),
            shed: ShedResponder::new(&server.overload),
            not_found: Response::error(Status::NOT_FOUND, "unknown session").into_prefab(),
            last_sweep: AtomicU64::new(started_at),
        })
    }

    fn shard_for(&self, sid: &str) -> &RwLock<HashMap<String, Arc<SessionEntry>>> {
        // FNV-1a over the sid: cheap, stable, and spread well enough for
        // a 16-way shard fan-out.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in sid.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        &self.shards[(h as usize) % MAP_SHARDS]
    }

    fn now_micros(&self) -> u64 {
        self.clock.now().as_micros()
    }

    /// Looks up a live session.
    pub fn session(&self, sid: &str) -> Option<SessionHandle> {
        let shard = self
            .shard_for(sid)
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.get(sid).map(|e| SessionHandle {
            entry: Arc::clone(e),
        })
    }

    /// Sessions currently live.
    pub fn session_count(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Creates (or returns) the session for `sid`, consulting the
    /// factory. Errors when the factory does not know the sid or the
    /// session cap is reached.
    pub fn create_session(&self, sid: &str) -> Result<SessionHandle> {
        match self.get_or_create(sid) {
            Route::Session(entry) => Ok(SessionHandle { entry }),
            Route::Unknown => Err(RcbError::InvalidInput(format!(
                "session factory does not know sid {sid:?}"
            ))),
            Route::AtCap => Err(RcbError::Protocol(format!(
                "session cap ({}) reached creating {sid:?}",
                self.config.max_sessions
            ))),
        }
    }

    /// Installs the *default* session — the implicit session un-prefixed
    /// paths route to (byte-identical to the pre-router single-session
    /// deployment). Exempt from idle eviction and the session cap.
    pub fn install_default_session(
        &self,
        browser: Browser,
        key: SessionKey,
    ) -> Result<SessionHandle> {
        let entry = self.build_entry(String::new(), browser, key)?;
        let mut shard = self
            .shard_for("")
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shard.contains_key("") {
            return Err(RcbError::InvalidInput(
                "default session already installed".into(),
            ));
        }
        shard.insert(String::new(), Arc::clone(&entry));
        drop(shard);
        self.counters
            .sessions_created
            .fetch_add(1, Ordering::Relaxed);
        Ok(SessionHandle { entry })
    }

    fn build_entry(
        &self,
        sid: String,
        browser: Browser,
        key: SessionKey,
    ) -> Result<Arc<SessionEntry>> {
        let prefix = if sid.is_empty() {
            String::new()
        } else {
            session_prefix(&sid)
        };
        let config = AgentConfig {
            path_prefix: prefix,
            ..self.agent_config.clone()
        };
        let host = SharedHost::build(
            browser,
            key,
            config,
            Arc::clone(&self.park),
            self.clock.clone(),
        )?;
        Ok(Arc::new(SessionEntry {
            sid,
            host,
            last_activity: AtomicU64::new(self.now_micros()),
            gate: FairnessGate::default(),
            fairness_shed: AtomicU64::new(0),
        }))
    }

    /// The live session for `sid`, without waiting: `None` when it does
    /// not exist yet or a writer (a creation or an eviction sweep) holds
    /// its shard — both are the blocking entry's to handle.
    fn try_lookup(&self, sid: &str) -> Option<Arc<SessionEntry>> {
        let shard = match self.shard_for(sid).try_read() {
            Ok(shard) => shard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        shard.get(sid).map(Arc::clone)
    }

    fn get_or_create(&self, sid: &str) -> Route {
        {
            let shard = self
                .shard_for(sid)
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(e) = shard.get(sid) {
                return Route::Session(Arc::clone(e));
            }
        }
        // Miss: take the shard write lock for the whole creation so a
        // racing request for the same sid finds the entry instead of
        // double-building. Only this shard blocks meanwhile; the shard
        // lock is still a leaf (the build acquires no other router or
        // session lock).
        let mut shard = self
            .shard_for(sid)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(e) = shard.get(sid) {
            return Route::Session(Arc::clone(e));
        }
        if self.live.load(Ordering::Relaxed) >= self.config.max_sessions {
            return Route::AtCap;
        }
        let Some((browser, key)) = (self.factory)(sid) else {
            return Route::Unknown;
        };
        match self.build_entry(sid.to_string(), browser, key) {
            Ok(entry) => {
                shard.insert(sid.to_string(), Arc::clone(&entry));
                self.live.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .sessions_created
                    .fetch_add(1, Ordering::Relaxed);
                Route::Session(entry)
            }
            // A factory page that fails host construction is
            // indistinguishable from an unknown sid to the participant.
            Err(_) => Route::Unknown,
        }
    }

    /// Evicts sessions idle longer than [`RouterConfig::idle_evict`]
    /// (default session exempt), closing each one's park channel so its
    /// parked long-polls — and any that park on it later — complete with
    /// the timeout reply. Returns how many sessions were evicted.
    pub fn evict_idle(&self) -> usize {
        let now = self.now_micros();
        let horizon = self.config.idle_evict.as_micros() as u64;
        let mut evicted = 0;
        for shard in &self.shards {
            let mut map = shard
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let stale: Vec<String> = map
                .iter()
                .filter(|(sid, e)| {
                    !sid.is_empty()
                        && now.saturating_sub(e.last_activity.load(Ordering::Relaxed)) >= horizon
                })
                .map(|(sid, _)| sid.clone())
                .collect();
            for sid in stale {
                if let Some(entry) = map.remove(&sid) {
                    // The shard lock is held, but closing only touches
                    // the channel and hub internals (leaves below
                    // everything here).
                    entry.host.close();
                    self.live.fetch_sub(1, Ordering::Relaxed);
                    self.counters
                        .sessions_evicted
                        .fetch_add(1, Ordering::Relaxed);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// The routing handler: parses the session prefix, finds or lazily
    /// creates the session, applies the fairness gate, and dispatches
    /// into the session's own handler. It answers every request, and may
    /// block doing so.
    pub fn make_handler(self: &Arc<Self>) -> Handler {
        let router = Arc::clone(self);
        Arc::new(move |req| {
            router
                .route(req, false)
                .unwrap_or_else(|_| unreachable!("the blocking entry answers every request"))
        })
    }

    /// The routing handler's non-blocking entry, for the epoll engine's
    /// event loops (see [`HttpServer::bind_split`] and the module docs):
    /// the same routing as [`SessionRouter::make_handler`], except that
    /// it hands back, untouched, every request that would create its
    /// session, run a due eviction sweep, find its session's fairness
    /// gate at its bound, or merge actions into the host page.
    pub fn make_try_handler(self: &Arc<Self>) -> TryHandler {
        let router = Arc::clone(self);
        Arc::new(move |req| router.route(req, true))
    }

    /// Binds an engine on `addr` with both of this router's entries: on
    /// the epoll engine, requests that cannot block are answered on the
    /// event loops and only the rest reach the dispatch pool.
    pub(crate) fn serve(self: &Arc<Self>, addr: &str, config: ServerConfig) -> Result<HttpServer> {
        HttpServer::bind_split(addr, self.make_handler(), self.make_try_handler(), config)
    }

    /// The `last_sweep` reading an idle-eviction sweep is due against,
    /// and now: at most one sweep per quarter idle horizon (never more
    /// than one per virtual second). Sweeps run from the dispatch path,
    /// on the single thread that wins the CAS on `last_sweep` — everyone
    /// else sees a fresh reading and skips — so a router that receives
    /// traffic sheds its idle sessions without an external sweeper
    /// thread.
    fn sweep_due(&self) -> Option<(u64, u64)> {
        // A zero horizon would evict every session on every sweep —
        // useless as an automatic policy. Zero therefore means
        // caller-driven eviction only (tests drive `evict_idle`
        // directly).
        if self.config.idle_evict.is_zero() {
            return None;
        }
        let interval = (self.config.idle_evict.as_micros() as u64 / 4).max(1_000_000);
        let now = self.now_micros();
        let last = self.last_sweep.load(Ordering::Relaxed);
        (now.saturating_sub(last) >= interval).then_some((last, now))
    }

    /// Routes one request. `on_loop`: the caller is an event loop that
    /// must not block, so the request comes back (`Err`), untouched,
    /// wherever answering it could block — before any counter moves.
    /// The blocking entry (`on_loop == false`) always answers.
    fn route(&self, req: Request, on_loop: bool) -> std::result::Result<HandlerOutcome, Request> {
        match self.sweep_due() {
            Some(_) if on_loop => return Err(req),
            Some((last, now)) => {
                let won = self
                    .last_sweep
                    .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
                if won {
                    self.evict_idle();
                }
            }
            None => {}
        }
        let sid = match parse_sid(req.path()) {
            SidParse::Routed(sid) => sid,
            SidParse::Default => "",
            SidParse::Malformed => {
                self.counters
                    .unknown_session_404s
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(self.not_found.clone().into());
            }
        };
        let entry = if on_loop {
            match self.try_lookup(sid) {
                Some(e) => e,
                None => return Err(req),
            }
        } else {
            match self.get_or_create(sid) {
                Route::Session(e) => e,
                Route::Unknown => {
                    self.counters
                        .unknown_session_404s
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(self.not_found.clone().into());
                }
                Route::AtCap => {
                    self.counters.cap_sheds.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.shed.next().into());
                }
            }
        };
        let work = entry.host.classify(&req);
        if on_loop && work.merges() {
            return Err(req);
        }
        entry
            .last_activity
            .store(self.now_micros(), Ordering::Relaxed);
        match entry.gate.acquire(
            self.config.session_inflight,
            self.config.session_waiters,
            !on_loop,
        ) {
            Admission::Admitted => {}
            Admission::AdmittedAfterWait => {
                self.counters
                    .fairness_queued
                    .fetch_add(1, Ordering::Relaxed);
            }
            Admission::Shed => {
                entry.fairness_shed.fetch_add(1, Ordering::Relaxed);
                self.counters.fairness_shed.fetch_add(1, Ordering::Relaxed);
                return Ok(self.shed.next().into());
            }
            Admission::AtBound => return Err(req),
        }
        self.counters
            .requests_routed
            .fetch_add(1, Ordering::Relaxed);
        // The slot is held across the handler call only: a returned Park
        // waits in the engine without a slot (exactly as it holds no
        // dispatch thread), so parked sessions cost nothing here.
        let (outcome, effects) = entry.host.answer(&req, work);
        entry.gate.release();
        // No engine carries host effects out yet: each one is counted.
        entry.host.drop_host_effects(effects);
        Ok(outcome)
    }

    /// Two-tier stats: process counters plus every live session's gauges
    /// aggregated, with max/p99 outlier sessions surfaced.
    pub fn stats(&self) -> RouterStats {
        let c = &self.counters;
        let mut totals = TcpHostStats::default();
        // (sid, parked, fairness_shed, snapshot_bytes) per live session.
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        for shard in &self.shards {
            let map = shard
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (sid, e) in map.iter() {
                let s = e.host.stats_snapshot();
                totals.connections += s.connections;
                totals.object_requests += s.object_requests;
                totals.polls_with_content += s.polls_with_content;
                totals.polls_empty += s.polls_empty;
                totals.auth_failures += s.auth_failures;
                totals.bad_requests += s.bad_requests;
                totals.max_concurrent_polls =
                    totals.max_concurrent_polls.max(s.max_concurrent_polls);
                totals.body_bytes_copied += s.body_bytes_copied;
                totals.polls_parked += s.polls_parked;
                totals.polls_woken += s.polls_woken;
                totals.polls_woken_delta += s.polls_woken_delta;
                totals.delta_fallbacks += s.delta_fallbacks;
                totals.polls_park_timeouts += s.polls_park_timeouts;
                totals.host_effects_dropped += s.host_effects_dropped;
                rows.push((
                    sid.clone(),
                    s.polls_parked,
                    e.fairness_shed.load(Ordering::Relaxed),
                    e.host.published_xml_len() as u64,
                ));
            }
        }
        // Hub-global, read once (every session would report the same
        // shared counter).
        totals.polls_shed_at_park_cap = self.park.parks_shed();

        let (max_parked_polls, p99_parked_polls) = outliers(&rows, |r| r.1);
        let (max_shed_requests, p99_shed_requests) = outliers(&rows, |r| r.2);
        let (max_snapshot_bytes, p99_snapshot_bytes) = outliers(&rows, |r| r.3);
        RouterStats {
            sessions_live: self.live.load(Ordering::Relaxed)
                + usize::from(self.session("").is_some()),
            sessions_created: c.sessions_created.load(Ordering::Relaxed),
            sessions_evicted: c.sessions_evicted.load(Ordering::Relaxed),
            cap_sheds: c.cap_sheds.load(Ordering::Relaxed),
            unknown_session_404s: c.unknown_session_404s.load(Ordering::Relaxed),
            requests_routed: c.requests_routed.load(Ordering::Relaxed),
            fairness_queued: c.fairness_queued.load(Ordering::Relaxed),
            fairness_shed: c.fairness_shed.load(Ordering::Relaxed),
            totals,
            max_parked_polls,
            p99_parked_polls,
            max_shed_requests,
            p99_shed_requests,
            max_snapshot_bytes,
            p99_snapshot_bytes,
        }
    }
}

/// Ranks sessions by one gauge; returns the max session and the p99
/// session (nearest-rank on the sorted values, the max itself when fewer
/// than 100 sessions report).
fn outliers(
    rows: &[(String, u64, u64, u64)],
    gauge: impl Fn(&(String, u64, u64, u64)) -> u64,
) -> (Option<SessionOutlier>, Option<SessionOutlier>) {
    if rows.is_empty() {
        return (None, None);
    }
    let mut ranked: Vec<(&str, u64)> = rows.iter().map(|r| (r.0.as_str(), gauge(r))).collect();
    ranked.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
    let max = ranked.last().expect("non-empty");
    let p99_idx = rcb_util::nearest_rank_index(ranked.len(), 99.0).expect("non-empty");
    let p99 = &ranked[p99_idx];
    (
        Some(SessionOutlier {
            sid: max.0.to_string(),
            value: max.1,
        }),
        Some(SessionOutlier {
            sid: p99.0.to_string(),
            value: p99.1,
        }),
    )
}

enum Route {
    Session(Arc<SessionEntry>),
    Unknown,
    AtCap,
}

enum SidParse<'a> {
    /// `/s/{sid}/...` with a non-empty sid.
    Routed(&'a str),
    /// A legacy un-prefixed path → the implicit default session.
    Default,
    /// `/s/` with an empty or unterminated sid.
    Malformed,
}

/// Extracts the session id from a request path. The sid is everything
/// between `/s/` and the next `/`; it must be non-empty and the path
/// must continue past it (`/s/abc` alone is malformed — a session's
/// root is `/s/abc/`).
fn parse_sid(path: &str) -> SidParse<'_> {
    let Some(rest) = path.strip_prefix("/s/") else {
        return SidParse::Default;
    };
    match rest.find('/') {
        Some(0) | None => SidParse::Malformed,
        Some(end) => SidParse::Routed(&rest[..end]),
    }
}

/// A live multi-session RCB host: a [`SessionRouter`] behind a real TCP
/// port — the many-sessions counterpart of [`crate::tcp::TcpHost`].
pub struct RouterHost {
    server: HttpServer,
    router: Arc<SessionRouter>,
}

impl RouterHost {
    /// Binds the serving engine on `addr` with the routing handler and
    /// its non-blocking entry. The router wires itself to the
    /// `ServerConfig`'s park hub, clock and overload limits, the same
    /// seam every session's host publishes through.
    pub fn start(
        addr: &str,
        factory: SessionFactory,
        agent_config: AgentConfig,
        router_config: RouterConfig,
        server_config: ServerConfig,
    ) -> Result<RouterHost> {
        let router = SessionRouter::new(factory, agent_config, router_config, &server_config);
        let server = router.serve(addr, server_config)?;
        Ok(RouterHost { server, router })
    }

    /// The bound address participants connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The server backend servicing the shared socket.
    pub fn backend(&self) -> ServerBackend {
        self.server.backend()
    }

    /// The routing layer (session creation, lookup, eviction, stats).
    pub fn router(&self) -> &Arc<SessionRouter> {
        &self.router
    }

    /// Process-level router statistics.
    pub fn stats(&self) -> RouterStats {
        self.router.stats()
    }

    /// Engine-level counters from the shared server.
    pub fn server_stats(&self) -> rcb_http::server::ServerStats {
        self.server.stats()
    }

    /// Stops the server.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// A [`SessionFactory`] serving the same page to every provisioned sid:
/// sids are drawn from the given set, each getting a deterministic key
/// derived from the shared secret (tests and benches; a deployment
/// would provision sessions out of band).
pub fn fixed_page_factory(
    page_url: String,
    page_html: String,
    sids: std::collections::HashSet<String>,
    secret: String,
) -> SessionFactory {
    Box::new(move |sid| {
        if !sids.contains(sid) {
            return None;
        }
        let mut browser = Browser::new(rcb_browser::BrowserKind::Firefox);
        browser.url = Some(rcb_url::Url::parse(&page_url).ok()?);
        browser.doc = Some(rcb_html::parse_document(&page_html));
        browser.mutate_dom(|_| {}).ok()?;
        // Deterministic per-sid key: the first 16 bytes of
        // HMAC(secret, sid) — stable across processes, distinct per sid.
        let mac = rcb_crypto::hmac::hmac_sha256(secret.as_bytes(), sid.as_bytes());
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&mac[..16]);
        Some((browser, SessionKey::from_bytes(bytes)))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::snippet::AjaxSnippet;
    use rcb_util::{SimDuration, VirtualClock};

    /// A one-session router over `host` on a virtual clock: the session,
    /// the handler every engine serves, and the clock.
    pub(crate) fn one_session(
        host: Browser,
        key: SessionKey,
        config: AgentConfig,
    ) -> (SessionHandle, Handler, Arc<VirtualClock>) {
        let (engine_clock, clock) = Clock::new_virtual();
        let server = crate::worldsim::in_process_config(engine_clock, Default::default());
        let router =
            SessionRouter::new(Box::new(|_| None), config, RouterConfig::default(), &server);
        let session = router.install_default_session(host, key).unwrap();
        (session, router.make_handler(), clock)
    }

    /// The reply `handler` sends `req`: nothing here holds a park, so a
    /// long-poll gets its timeout reply.
    pub(crate) fn respond(handler: &Handler, req: Request) -> Response {
        match handler(req) {
            HandlerOutcome::Respond(response) => response,
            HandlerOutcome::Park(park) => (park.on_timeout)(),
        }
    }

    #[test]
    fn an_evicted_sessions_parks_resolve_at_once_after_any_number_of_sweeps() {
        let factory = fixed_page_factory(
            "http://host.example/".to_string(),
            "<html><head><title>t</title></head><body><p>hi</p></body></html>".to_string(),
            ["a".to_string()].into_iter().collect(),
            "router-test-secret".to_string(),
        );
        let router = SessionRouter::new(
            factory,
            AgentConfig::default(),
            RouterConfig {
                idle_evict: Duration::ZERO,
                ..RouterConfig::default()
            },
            &ServerConfig::default(),
        );
        let session = router.create_session("a").unwrap();
        // A request that looked the session up before the sweeps and
        // parks after them, however many there were.
        let handler = session.shared_host().make_handler();
        assert_eq!(router.evict_idle(), 1);
        assert_eq!(router.evict_idle(), 0);
        let mut snippet = AjaxSnippet::new(1, session.key().clone(), SimDuration::from_secs(1));
        snippet.base_path = session.prefix();
        snippet.doc_time = session.published_doc_time();
        snippet.long_poll = Some(SimDuration::from_secs(30));
        let HandlerOutcome::Park(park) = handler(snippet.build_poll()) else {
            panic!("an up-to-date lp= poll parks");
        };
        assert!(
            park.channel.is_closed(),
            "the park resolves as a timeout on its first check"
        );
    }
}
