//! The session host — the concurrent request pipeline every host serves —
//! and RCB-Agent's real-socket deployment.
//!
//! Everything else in this crate runs on simulated links; this module is
//! the "practical" half of the paper's claim: the agent served over real
//! `std::net` TCP (paper §3.1 step 1: "a co-browsing host starts running
//! RCB-Agent on the host browser with an open TCP port, e.g. 3000"), and
//! a participant joining with nothing but an HTTP client — exactly what a
//! regular browser plus Ajax-Snippet amounts to. [`TcpParticipant`] is
//! that participant: the blocking-socket driver of the participant
//! protocol in [`crate::participant`], which the world sim's fabric
//! participant drives too.
//!
//! # Concurrency architecture
//!
//! One session is one `SharedHost`: the host browser and [`RcbAgent`]
//! behind the host mutex, the published snapshot, and the session's
//! Fig.-2 request path (classification, HMAC verification, participant
//! bookkeeping, timestamp inspection, prefab replies). Every host serves
//! it — [`TcpHost`] and [`crate::router::RouterHost`] over sockets,
//! [`crate::worldsim::WorldHost`] over the sim fabric, all through the
//! session router, and the paper world ([`crate::session`]) in-process.
//! What it adds to the request path is what is concurrent: parking
//! long-polls, single-flight regeneration, and publication.
//!
//! The paper names the host uplink as the session bottleneck (§5.1.2);
//! the agent itself must therefore never become one. This deployment
//! splits the agent into a read-mostly fast path and a serialized write
//! path:
//!
//! * **Read path** (polls, object requests, joins): served from a
//!   published [`ContentSnapshot`] behind an
//!   `Arc<RwLock<Arc<ContentSnapshot>>>`. Readers clone the inner `Arc`
//!   under a read lock held for nanoseconds and then work on frozen data;
//!   per-participant bookkeeping goes through
//!   [`ParticipantShards`](crate::agent::ParticipantShards), so two polls
//!   contend only if their pids hash to the same shard.
//! * **Write path** (host page mutations, participant-action merges):
//!   takes the single host mutex, applies the change to the live browser
//!   DOM via [`RcbAgent`], and — when the DOM version changed — *plans* a
//!   snapshot rebuild while still holding the mutex (DOM clone + frozen
//!   captures only), then releases it and runs generation, object
//!   resolution, and prefab freezing with **no lock held**,
//!   publishing with one pointer swap under the write lock. A slow
//!   generation therefore never blocks merges or page mutations, let
//!   alone polls.
//!
//! The read path is also **zero-copy**: content polls and object requests
//! are answered by cloning prefabs frozen into the snapshot, whose bodies
//! are the snapshot's one XML copy or the host cache entry (`Arc` bumps),
//! so per-request heap-copied response-body bytes are zero;
//! [`TcpHostStats::body_bytes_copied`] measures exactly that.
//!
//! **Lock ordering:** host mutex → snapshot write lock; shard locks and
//! the mapping-table mutex are leaves (never held while acquiring
//! anything else). Content generation never runs under the host mutex or
//! the snapshot lock, so neither a poll nor a merge can serialize behind
//! it.
//!
//! Timestamps on this path come from the [`Clock`] the serving engine
//! runs on: real wall-clock milliseconds since the Unix epoch (§4.1.1)
//! in the deployment default, a virtual clock when the same session is
//! driven by the deterministic world sim ([`crate::worldsim`]) or the
//! paper world ([`crate::session`]).
//! Either way the value lands in the document-timestamp domain — not a
//! wrapped count (the old `% 1_000_000_000` mapping recurred every ~11.6
//! days).
//!
//! The socket itself is served by any of three interchangeable backends
//! behind the same `Handler` (see [`ServerBackend`]): the bounded worker
//! pool, the event-driven epoll loop whose connection ceiling is the fd
//! limit rather than the thread count, or the sharded epoll engine that
//! spreads connections round-robin across several independent event
//! loops (one per available core, or `N` with `epoll-sharded:N`). Select
//! via [`ServerConfig::backend`] or the `RCB_SERVER_BACKEND` environment
//! variable; everything above the handler — snapshots, shards,
//! prefabs — is backend-agnostic, and the agent's participant shards
//! are unrelated to (and compose freely with) the server's loop shards.

use std::sync::{Arc, Mutex, RwLock};

use rcb_browser::{Browser, BrowserKind, UserAction};
use rcb_crypto::SessionKey;
use rcb_http::client::HttpConnection;
use rcb_http::server::{
    HandlerOutcome, HttpServer, Park, ParkChannel, ParkHub, ServerBackend, ServerConfig,
};
use rcb_http::Request;
use rcb_util::{Clock, RcbError, Result, SimDuration, SimTime};

use crate::agent::{AgentConfig, AgentStats, HostEffect, RcbAgent};
use crate::fig2::{Answer, RequestPath, Work};
use crate::participant::{ParticipantCore, Reply};
use crate::snapshot::{ContentSnapshot, SnapshotPlan};
use crate::snippet::{AjaxSnippet, SnippetOutcome};

pub use crate::fig2::TcpHostStats;

/// The write-path state: the live agent and host browser, behind one lock.
struct HostCore {
    agent: RcbAgent,
    browser: Browser,
}

/// One session's serving state. A [`crate::router::SessionRouter`] holds
/// one per session and routes each request into [`SharedHost::classify`]
/// and [`SharedHost::answer`]; every socket host and the world sim serve
/// through a router ([`TcpHost`], [`crate::router::RouterHost`],
/// [`crate::worldsim::WorldHost`]), and the paper world makes the same
/// two calls in-process, so every request runs the one agent pipeline.
pub(crate) struct SharedHost {
    /// The published read-path snapshot (see module docs for ordering).
    snapshot: RwLock<Arc<ContentSnapshot>>,
    /// The session's Fig.-2 request path: participants, request counters
    /// and static prefabs, read without the host mutex.
    fig2: RequestPath,
    /// The write path: merges and snapshot-plan capture only (generation
    /// itself runs after the mutex is released).
    core: Mutex<HostCore>,
    /// The server's park/wake rendezvous (shared with every backend
    /// engine via `ServerConfig::park_hub`): snapshot publication calls
    /// [`ParkHub::publish`] on this session's channel with the new
    /// `dom_version`, waking the engines.
    park: Arc<ParkHub>,
    /// This session's own long-poll channel: every park it hands out
    /// waits here, so a publish completes only this session's polls on
    /// an older version, and [`SharedHost::close`] ends them all.
    channel: Arc<ParkChannel>,
    /// The time source for every timestamp this host mints (snapshot
    /// doc-times): the serving engine's clock from
    /// `ServerConfig::clock` — wall in the real deployment, the world's
    /// virtual clock under the sim.
    clock: Clock,
}

impl SharedHost {
    /// Builds the shared host state — agent, prefab responses, initial
    /// snapshot, its own park channel — around an already prepared host
    /// browser, or a page-less one (its snapshot is empty until the host
    /// loads a page). `park` and `clock` must be the ones from the
    /// `ServerConfig` the serving engine will run on: snapshot
    /// publication signals that hub, and every timestamp reads that
    /// clock.
    pub(crate) fn build(
        browser: Browser,
        key: SessionKey,
        config: AgentConfig,
        park: Arc<ParkHub>,
        clock: Clock,
    ) -> Result<Arc<SharedHost>> {
        let fig2 = RequestPath::new(key.clone(), &config);
        let mut agent = RcbAgent::new(key, config);
        let snapshot = match browser.doc {
            Some(_) => ContentSnapshot::build(&mut agent, &browser, clock.now(), None)?,
            None => ContentSnapshot::empty(browser.dom_version()),
        };
        Ok(Arc::new(SharedHost {
            snapshot: RwLock::new(snapshot),
            fig2,
            core: Mutex::new(HostCore { agent, browser }),
            park,
            channel: Arc::default(),
            clock,
        }))
    }

    /// Closes this session's park channel for good: every poll parked on
    /// it, and any that parks later, completes with the timeout reply.
    pub(crate) fn close(&self) {
        self.park.close(&self.channel);
    }

    /// The session key participants authenticate with.
    pub(crate) fn key(&self) -> &SessionKey {
        self.fig2.key()
    }

    /// The Fig.-2 request handler over this one session, without the
    /// router in front: tests drive a session's handler directly.
    #[cfg(test)]
    pub(crate) fn make_handler(self: &Arc<Self>) -> rcb_http::server::Handler {
        let state = Arc::clone(self);
        Arc::new(move |req| {
            let (outcome, effects) = state.answer(&req, state.classify(&req));
            state.drop_host_effects(effects);
            outcome
        })
    }

    /// Now, on the engine clock, in the document-timestamp domain.
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn lock_core(&self) -> std::sync::MutexGuard<'_, HostCore> {
        self.core
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reads the current snapshot (the only read-path lock besides shards).
    pub(crate) fn current_snapshot(&self) -> Arc<ContentSnapshot> {
        Arc::clone(
            &self
                .snapshot
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Phase 1 of a republish, **under the host mutex** (caller holds it):
    /// if the host DOM version moved past the published one and the agent
    /// has not planned it yet, capture a snapshot plan (DOM clone + frozen
    /// inputs), which marks the version planned. Returns `Ok(None)` when
    /// the published snapshot is already current or another thread is
    /// generating this version: regeneration is single-flight, and the
    /// requests that skip keep serving the previous snapshot until that
    /// thread publishes. A *newer* version always proceeds (concurrent
    /// generations of different versions are ordered by the publish guard).
    ///
    /// The host action drained into a plan is ephemeral mirror data (the
    /// latest pointer position): if the plan's snapshot later loses the
    /// publish race to a newer generation, it is dropped rather than
    /// replayed stale — a later position supersedes it.
    fn plan_republish(&self, core: &mut HostCore) -> Result<Option<SnapshotPlan>> {
        let version = core.browser.dom_version();
        if self.current_snapshot().dom_version == version || core.agent.planned(version) {
            return Ok(None);
        }
        ContentSnapshot::plan(&mut core.agent, &core.browser, self.now()).map(Some)
    }

    /// Phase 2, **no locks held on entry**: generate content and assemble
    /// the snapshot from the plan's frozen captures, admit the generated
    /// content into the agent cache (brief host lock), and publish with a
    /// pointer swap — unless a newer DOM version was published while this
    /// one was generating, in which case the result is discarded.
    ///
    /// On generation failure the previous snapshot keeps serving, the
    /// version is un-planned (under the host lock) and the error is
    /// returned: host-side callers surface it (the host can retry its
    /// mutation), merge-path callers drop it (the snapshot is still stale,
    /// so the next write plans the version again).
    fn finish_republish(&self, plan: SnapshotPlan) -> Result<()> {
        let mode = plan.mode();
        let version = plan.dom_version();
        let prev = self.current_snapshot();
        let (snap, generated) = plan
            .finish(Some(&prev))
            .inspect_err(|_| self.lock_core().agent.unplan(version))?;
        if let Some(content) = generated {
            let mut core = self.lock_core();
            core.agent.admit_generated(snap.dom_version, mode, content);
        }
        let swapped = {
            let mut published = self
                .snapshot
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if snap.dom_version > published.dom_version {
                let version = snap.dom_version;
                *published = snap;
                Some(version)
            } else {
                None
            }
        };
        // The long-poll wake: publication *is* the pointer swap, so the
        // hub is notified only when this generation actually won the race
        // (a loser would re-wake parked polls with nothing new). Outside
        // the write lock — `publish` takes the hub's own locks and pokes
        // the engine wakers, and lock ordering keeps hub internals a leaf.
        if let Some(version) = swapped {
            self.park.publish(&self.channel, version);
        }
        Ok(())
    }

    /// Classifies one request through the shared Fig.-2 path, with no
    /// side effect: the router reads from it whether answering would
    /// merge (and so could block) before it admits the request.
    pub(crate) fn classify<'r>(&self, req: &'r Request) -> Work<'r> {
        self.fig2.classify(req)
    }

    /// Answers one request, classified as `work`, through the session's
    /// Fig.-2 path, handing a merged poll's host effects to the caller:
    /// the router counts them dropped, the paper world carries them out.
    /// What stays here is what is concurrent: a park request becomes
    /// [`HandlerOutcome::Park`], held by the serving engine until the next
    /// snapshot publication (wake: the fresh prefab, still zero-copy) or
    /// the park deadline (timeout: the empty-poll prefab) — converting
    /// per-interval polls into per-change replies.
    pub(crate) fn answer(
        self: &Arc<Self>,
        req: &Request,
        work: Work<'_>,
    ) -> (HandlerOutcome, Vec<HostEffect>) {
        let (answer, effects) = self.fig2.answer(req, work, self);
        let park = match answer {
            Answer::Reply(response) => return (response.into(), effects),
            Answer::Park(park) => park,
        };
        let on_wake_host = Arc::clone(self);
        let on_timeout_host = Arc::clone(self);
        let outcome = HandlerOutcome::Park(Park {
            channel: Arc::clone(&self.channel),
            // `ParkHub::publish` receives the same dom_version.
            wait_key: park.version,
            max_wait: park.max_wait,
            // Re-read at wake time: the reply must be the snapshot that
            // exists *now*, not a stale capture.
            on_wake: Box::new(move || {
                let snap = on_wake_host.current_snapshot();
                on_wake_host.fig2.wake_reply(&park, &snap)
            }),
            on_timeout: Box::new(move || on_timeout_host.fig2.timeout_reply()),
        });
        (outcome, effects)
    }

    /// Merges a poll's allowed actions under the host mutex, held just
    /// long enough to merge and — when the merge changed the DOM —
    /// capture a snapshot plan (DOM clone); generation and publication run
    /// after the mutex is dropped, so other merges and mutations proceed
    /// meanwhile. Returns the host effects (navigations, submissions,
    /// clicks) the actions ask for, whatever the navigation policy.
    pub(crate) fn merge(&self, pid: u64, actions: Vec<UserAction>) -> Vec<HostEffect> {
        let (effects, plan) = {
            let mut core = self.lock_core();
            let HostCore { agent, browser } = &mut *core;
            let effects = agent.merge_poll_actions(pid, actions, browser);
            (effects, self.plan_republish(&mut core))
        };
        // A failed regeneration keeps the previous snapshot; the next
        // write-path request retries.
        if let Ok(Some(plan)) = plan {
            let _ = self.finish_republish(plan);
        }
        effects
    }

    /// Counts host effects that nothing carries out
    /// ([`TcpHostStats::host_effects_dropped`]).
    pub(crate) fn drop_host_effects(&self, effects: Vec<HostEffect>) {
        self.fig2.drop_host_effects(effects);
    }

    pub(crate) fn stats_snapshot(&self) -> TcpHostStats {
        TcpHostStats {
            polls_shed_at_park_cap: self.park.parks_shed(),
            ..self.fig2.stats()
        }
    }

    /// Host-side browsing: lends the host browser to `f` under the host
    /// mutex (a navigation, a form submission, page script), then — when
    /// its DOM version moved — plans, generates and publishes the new
    /// snapshot, with the mutex held only for `f` and the plan. A
    /// content-generation failure is returned (the previous snapshot keeps
    /// serving until a retry succeeds).
    pub(crate) fn browse<R>(&self, f: impl FnOnce(&mut Browser) -> R) -> Result<R> {
        let (out, plan) = {
            let mut core = self.lock_core();
            let out = f(&mut core.browser);
            (out, self.plan_republish(&mut core)?)
        };
        if let Some(plan) = plan {
            self.finish_republish(plan)?;
        }
        Ok(out)
    }

    /// Mutates the live host page and publishes the change.
    pub(crate) fn mutate_page(&self, f: impl FnOnce(&mut rcb_html::Document)) -> Result<()> {
        self.browse(|browser| browser.mutate_dom(f))?
    }

    /// Runs `f` against the live host browser under the host mutex.
    pub(crate) fn with_browser<R>(&self, f: impl FnOnce(&Browser) -> R) -> R {
        f(&self.lock_core().browser)
    }

    /// Runs `f` against the agent's write-path stats under the host lock.
    pub(crate) fn with_agent_stats<R>(&self, f: impl FnOnce(&AgentStats) -> R) -> R {
        f(&self.lock_core().agent.stats)
    }

    /// `(content_cache_len, timestamps_len)` of the live agent: each at
    /// most 1, the newest generation and the planned version.
    pub(crate) fn agent_cache_lens(&self) -> (usize, usize) {
        let core = self.lock_core();
        (core.agent.content_cache_len(), core.agent.timestamps_len())
    }

    /// The live host DOM version (behind the host mutex — the published
    /// snapshot may briefly lag it mid-regeneration).
    pub(crate) fn dom_version(&self) -> u64 {
        self.with_browser(Browser::dom_version)
    }

    /// The document timestamp of the currently published snapshot.
    pub(crate) fn published_doc_time(&self) -> u64 {
        self.current_snapshot().doc_time
    }

    /// Byte length of the currently published Fig.-4 XML.
    pub(crate) fn published_xml_len(&self) -> usize {
        self.current_snapshot().xml().len()
    }

    /// Number of participants the agent has seen.
    pub(crate) fn participant_count(&self) -> usize {
        self.fig2.participants.count()
    }

    /// Forgets a participant that left the session.
    pub(crate) fn remove_participant(&self, pid: u64) {
        self.fig2.participants.remove(pid);
    }

    /// Current host form field values (to observe merged co-fill data).
    pub(crate) fn form_fields(&self, form_id: &str) -> Vec<(String, String)> {
        self.with_browser(|browser| {
            let Some(doc) = browser.doc.as_ref() else {
                return Vec::new();
            };
            match rcb_html::query::element_by_id(doc, doc.root(), form_id) {
                Some(form) => rcb_html::query::form_fields(doc, form),
                None => Vec::new(),
            }
        })
    }
}

/// A live RCB host: the agent plus a host browser behind a real TCP
/// port. Since the session-router redesign this is the *single-session
/// convenience wrapper*: it builds a one-session
/// [`crate::router::SessionRouter`], installs its browser as the default
/// session (empty path prefix — the classic wire behavior, byte for
/// byte), and serves the router's handler. Multi-session deployments use
/// [`crate::router::RouterHost`] directly.
pub struct TcpHost {
    server: HttpServer,
    router: Arc<crate::router::SessionRouter>,
    shared: Arc<SharedHost>,
}

impl TcpHost {
    /// Starts the agent on `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// port), with the host browser showing the given HTML document.
    pub fn start(addr: &str, page_url: &str, page_html: &str) -> Result<TcpHost> {
        let key = SessionKey::generate();
        Self::start_with_key(addr, page_url, page_html, key)
    }

    /// Starts with an explicit session key (tests use deterministic keys).
    pub fn start_with_key(
        addr: &str,
        page_url: &str,
        page_html: &str,
        key: SessionKey,
    ) -> Result<TcpHost> {
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.url = Some(rcb_url::Url::parse(page_url)?);
        browser.doc = Some(rcb_html::parse_document(page_html));
        browser.mutate_dom(|_| {}).expect("document just loaded");
        Self::start_from_browser(
            addr,
            browser,
            key,
            AgentConfig::default(),
            ServerConfig::default(),
        )
    }

    /// Starts from an already prepared host browser (e.g. one that
    /// navigated a real site and filled its cache), with explicit agent
    /// and server configuration.
    pub fn start_from_browser(
        addr: &str,
        browser: Browser,
        key: SessionKey,
        config: AgentConfig,
        server_config: ServerConfig,
    ) -> Result<TcpHost> {
        // One-session router: the factory knows no sids, so `/s/{sid}`
        // requests answer with the router's prefab 404 while every
        // legacy path routes into the default session unchanged.
        let router = crate::router::SessionRouter::new(
            Box::new(|_| None),
            config,
            crate::router::RouterConfig::default(),
            &server_config,
        );
        let handle = router.install_default_session(browser, key)?;
        let shared = Arc::clone(handle.shared_host());
        let server = router.serve(addr, server_config)?;
        Ok(TcpHost {
            server,
            router,
            shared,
        })
    }

    /// The session-routing layer under this host (one default session;
    /// exposed so callers can inspect [`crate::router::RouterStats`]).
    pub fn session_router(&self) -> &Arc<crate::router::SessionRouter> {
        &self.router
    }

    /// The bound address participants connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The server backend servicing this host's socket (workers pool,
    /// epoll event loop, or sharded epoll — see [`ServerBackend`];
    /// defaults follow the `RCB_SERVER_BACKEND` environment variable).
    /// Sharded backends report their resolved shard count.
    pub fn backend(&self) -> ServerBackend {
        self.server.backend()
    }

    /// Engine-level counters from the server under the agent: accept
    /// errors survived, connections accepted, and — on the sharded epoll
    /// backend — how they were distributed across event-loop shards.
    pub fn server_stats(&self) -> rcb_http::server::ServerStats {
        self.server.stats()
    }

    /// The session key to share out of band.
    pub fn key(&self) -> &SessionKey {
        self.shared.key()
    }

    /// Mutates the live host page (stands in for host-side browsing or
    /// page JavaScript); the snapshot is regenerated and published before
    /// this returns, so participants pick the change up on their next
    /// poll — but the host mutex is held only for the mutation and the
    /// DOM clone, never across content generation, so concurrent merges
    /// and polls are not blocked by a slow regeneration. A
    /// content-generation failure is returned to the host (the previous
    /// snapshot keeps serving until a retry succeeds).
    pub fn mutate_page(&self, f: impl FnOnce(&mut rcb_html::Document)) -> Result<()> {
        self.shared.mutate_page(f)
    }

    /// Test hook: a handle to the shared host state so tests can mutate
    /// the page from another thread while a poll is parked.
    #[cfg(test)]
    fn clone_shared_for_test(&self) -> Arc<SharedHost> {
        Arc::clone(&self.shared)
    }

    /// Number of participants the agent has seen.
    pub fn participant_count(&self) -> usize {
        self.shared.participant_count()
    }

    /// Concurrent-path counters (polls, objects, observed concurrency).
    pub fn stats(&self) -> TcpHostStats {
        self.shared.stats_snapshot()
    }

    /// The document timestamp of the currently published snapshot.
    pub fn published_doc_time(&self) -> u64 {
        self.shared.published_doc_time()
    }

    /// Byte length of the currently published Fig.-4 XML (the content
    /// poll response body).
    pub fn published_xml_len(&self) -> usize {
        self.shared.published_xml_len()
    }

    /// Runs `f` against the agent's write-path stats (generation and
    /// reuse counters, M5 samples) under the host lock.
    pub fn with_agent_stats<R>(&self, f: impl FnOnce(&AgentStats) -> R) -> R {
        self.shared.with_agent_stats(f)
    }

    /// `(content_cache_len, timestamps_len)` of the live agent: each at
    /// most 1, the newest generation and the planned version.
    pub fn agent_cache_lens(&self) -> (usize, usize) {
        self.shared.agent_cache_lens()
    }

    /// Reads current host form field values (to observe merged co-fill
    /// data, as in the paper's Figure 10).
    pub fn form_fields(&self, form_id: &str) -> Vec<(String, String)> {
        self.shared.form_fields(form_id)
    }

    /// Stops the server.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// A participant joined over real TCP: the blocking-socket driver of the
/// participant protocol ([`crate::participant`]). The protocol — join,
/// signed poll, Fig.-5 apply, agent-object fetches, the shed back-off —
/// is the shared core's; this driver owns one persistent connection,
/// runs each round to its end on it, and sleeps out back-offs.
pub struct TcpParticipant {
    conn: HttpConnection,
    core: ParticipantCore,
    /// The participant's browser model.
    pub browser: Browser,
    /// Snippet state (poll building, content application, M6 samples).
    pub snippet: AjaxSnippet,
    /// Response bytes received over this connection since the join, as
    /// serialized on the wire (status line + headers + body) — poll
    /// replies, object fetches and shed replies alike. The
    /// bytes-on-wire-per-update bench measurement reads this.
    pub wire_bytes_in: u64,
}

impl TcpParticipant {
    /// Joins a session: connects, fetches the initial page (step 2), and
    /// instantiates the snippet with the out-of-band key. Uses the
    /// default [`AgentConfig`] client knobs.
    pub fn join(addr: &str, key: SessionKey, participant_id: u64) -> Result<TcpParticipant> {
        Self::join_with_config(addr, key, participant_id, &AgentConfig::default())
    }

    /// [`TcpParticipant::join`] with explicit client configuration: the
    /// read timeout on every blocking read comes from
    /// [`AgentConfig::client_read_timeout`] instead of the client
    /// library's default, and [`AgentConfig::path_prefix`] scopes the
    /// join GET and every later poll to that session. A request shed
    /// more often in a row than [`crate::participant::RetryPolicy`]
    /// re-sends fails with its `503`.
    pub fn join_with_config(
        addr: &str,
        key: SessionKey,
        participant_id: u64,
        config: &AgentConfig,
    ) -> Result<TcpParticipant> {
        let read_timeout = std::time::Duration::from_micros(config.client_read_timeout.as_micros());
        let mut snippet = AjaxSnippet::new(participant_id, key, SimDuration::from_secs(1));
        snippet.base_path = config.path_prefix.clone();
        let mut participant = TcpParticipant {
            conn: HttpConnection::connect_with_read_timeout(addr, read_timeout)?,
            core: ParticipantCore::new(crate::participant::shed_seed(participant_id), true),
            browser: Browser::new(BrowserKind::Firefox),
            snippet,
            wire_bytes_in: 0,
        };
        participant.round()?;
        participant.wire_bytes_in = 0;
        Ok(participant)
    }

    /// Joins one session behind a [`crate::router::SessionRouter`]: the
    /// same handshake as [`TcpParticipant::join_with_config`], scoped
    /// under the session's `/s/{sid}` path prefix.
    pub fn join_session(
        addr: &str,
        sid: &str,
        key: SessionKey,
        participant_id: u64,
        config: &AgentConfig,
    ) -> Result<TcpParticipant> {
        let config = AgentConfig {
            path_prefix: crate::router::session_prefix(sid),
            ..config.clone()
        };
        Self::join_with_config(addr, key, participant_id, &config)
    }

    /// Queues an action to ride the next poll.
    pub fn act(&mut self, action: UserAction) {
        self.snippet.capture_action(action);
    }

    /// One poll round over the real socket. Returns the snippet outcome;
    /// on `Updated` also fetches agent-served objects through the same
    /// connection.
    pub fn poll(&mut self) -> Result<SnippetOutcome> {
        self.round()?
            .ok_or_else(|| RcbError::Protocol("poll round without a poll".into()))
    }

    /// Runs one round — the join, or a poll and the objects its reply
    /// names — to its end, each request a round trip on this connection
    /// and each shed's back-off a sleep. Returns the poll's outcome.
    fn round(&mut self) -> Result<Option<SnippetOutcome>> {
        let mut polled = None;
        let mut next = Some(self.core.begin(&mut self.snippet));
        while let Some(req) = next {
            let resp = self.conn.round_trip(req)?;
            self.wire_bytes_in += resp.wire_len() as u64;
            match self
                .core
                .on_response(resp, &mut self.snippet, &mut self.browser)?
            {
                Reply::Shed(delay) => std::thread::sleep(delay),
                Reply::Polled(outcome) => polled = Some(outcome),
                Reply::Joined | Reply::Object { .. } => {}
            }
            next = self.core.resume();
        }
        Ok(polled)
    }

    /// Opts this participant into parked long-polling: an up-to-date
    /// poll is held open by the agent for up to `wait` (capped by the
    /// host's [`AgentConfig::park_timeout`]) and completed the moment a
    /// new snapshot publishes, instead of returning empty immediately.
    pub fn enable_long_poll(&mut self, wait: SimDuration) {
        self.snippet.long_poll = Some(wait);
    }

    /// Convenience: polls until new content arrives or `attempts` polls
    /// pass (sleeping `interval` between them, like setTimeout).
    pub fn poll_until_update(
        &mut self,
        attempts: usize,
        interval: std::time::Duration,
    ) -> Result<SnippetOutcome> {
        for _ in 0..attempts {
            match self.poll()? {
                SnippetOutcome::NoNewContent => std::thread::sleep(interval),
                updated => return Ok(updated),
            }
        }
        Err(RcbError::Protocol("no update within poll budget".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NavigationPolicy;
    use rcb_http::Status;
    use rcb_util::DetRng;
    use std::sync::atomic::Ordering;

    const PAGE: &str = "<html><head><title>demo</title></head>\
        <body><h1 id=\"headline\">hello co-browsers</h1>\
        <form id=\"f\" action=\"/submit\"><input type=\"text\" name=\"note\" value=\"\"></form>\
        </body></html>";

    fn start_host() -> TcpHost {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
        TcpHost::start_with_key("127.0.0.1:0", "http://demo.local/", PAGE, key).unwrap()
    }

    #[test]
    fn participant_syncs_over_real_sockets() {
        let mut host = start_host();
        let addr = host.addr().to_string();
        let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
        let outcome = alice.poll().unwrap();
        assert!(matches!(outcome, SnippetOutcome::Updated { .. }));
        let doc = alice.browser.doc.as_ref().unwrap();
        assert!(doc.text_content(doc.root()).contains("hello co-browsers"));
        assert_eq!(host.participant_count(), 1);
        let stats = host.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.polls_with_content, 1);
        host.shutdown();
    }

    #[test]
    fn live_mutation_reaches_participant() {
        let mut host = start_host();
        let addr = host.addr().to_string();
        let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
        alice.poll().unwrap();
        host.mutate_page(|doc| {
            let body = doc.body().unwrap();
            let div = doc.create_element("div");
            let t = doc.create_text("breaking update");
            doc.append_child(div, t).unwrap();
            doc.append_child(body, div).unwrap();
        })
        .unwrap();
        let outcome = alice
            .poll_until_update(10, std::time::Duration::from_millis(20))
            .unwrap();
        assert!(matches!(outcome, SnippetOutcome::Updated { .. }));
        let doc = alice.browser.doc.as_ref().unwrap();
        assert!(doc.text_content(doc.root()).contains("breaking update"));
        host.shutdown();
    }

    #[test]
    fn form_cofill_merges_on_host_over_tcp() {
        let mut host = start_host();
        let addr = host.addr().to_string();
        let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
        alice.poll().unwrap();
        alice.act(UserAction::FormInput {
            form: "f".into(),
            field: "note".into(),
            value: "ship to NYC".into(),
        });
        alice.poll().unwrap();
        assert_eq!(
            host.form_fields("f"),
            vec![("note".to_string(), "ship to NYC".to_string())]
        );
        host.shutdown();
    }

    /// This host has nothing to carry host effects out with: it counts
    /// every one it drops, on the session and in the router's totals,
    /// under either navigation policy (only the paper world queues
    /// effects for a confirmation).
    #[test]
    fn host_effects_are_counted_and_never_queued() {
        const CLICKS: u64 = 4;
        for nav_policy in [NavigationPolicy::Immediate, NavigationPolicy::HostConfirm] {
            let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
            let mut browser = Browser::new(BrowserKind::Firefox);
            browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
            browser.doc = Some(rcb_html::parse_document(PAGE));
            browser.mutate_dom(|_| {}).unwrap();
            let config = AgentConfig {
                nav_policy,
                ..AgentConfig::default()
            };
            let mut host = TcpHost::start_from_browser(
                "127.0.0.1:0",
                browser,
                key,
                config,
                ServerConfig::default(),
            )
            .unwrap();
            let addr = host.addr().to_string();
            let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
            alice.poll().unwrap();
            for i in 0..CLICKS {
                alice.act(UserAction::Click {
                    target: format!("button-{i}"),
                });
                alice.poll().unwrap();
            }
            assert_eq!(host.stats().host_effects_dropped, CLICKS, "{nav_policy:?}");
            let totals = host.session_router().stats().totals;
            assert_eq!(totals.host_effects_dropped, CLICKS, "{nav_policy:?}");
            host.shutdown();
        }
    }

    /// The socket twin of the world sim's shed test: a handler that
    /// sheds the first action-carrying poll before the router sees it.
    /// The participant waits out the back-off and sends the same poll
    /// again, so the action merges once.
    #[test]
    fn a_shed_action_poll_is_sent_again_and_merged_over_tcp() {
        use crate::router::{RouterConfig, SessionRouter};
        let config = ServerConfig::default();
        let router = SessionRouter::new(
            Box::new(|_| None),
            AgentConfig::default(),
            RouterConfig::default(),
            &config,
        );
        let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
        browser.doc = Some(rcb_html::parse_document(PAGE));
        browser.mutate_dom(|_| {}).unwrap();
        let session = router
            .install_default_session(browser, key.clone())
            .unwrap();
        let (handler, action_polls) =
            crate::participant::tests::shed_first_action_poll(router.make_handler(), "0");
        let mut server = HttpServer::bind_with("127.0.0.1:0", handler, config).unwrap();
        let mut alice = TcpParticipant::join(&server.addr().to_string(), key, 1).unwrap();
        alice.poll().unwrap();
        let version = session.dom_version();
        alice.act(UserAction::FormInput {
            form: "f".into(),
            field: "note".into(),
            value: "after a shed".into(),
        });
        alice.poll().unwrap();
        assert_eq!(
            action_polls.load(Ordering::Relaxed),
            2,
            "shed, then sent again"
        );
        assert!(session.dom_version() > version);
        assert_eq!(
            session.shared_host().form_fields("f"),
            vec![("note".to_string(), "after a shed".to_string())]
        );
        server.shutdown();
    }

    /// A blocking caller wants an answer: a request shed on every one of
    /// its `RetryPolicy::max_retries` re-sends fails with the `503`, for
    /// the join and for a poll alike.
    #[test]
    fn the_blocking_driver_gives_up_after_max_retries() {
        use std::io::{Read, Write};
        const SHED: &[u8] =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n";
        let max = crate::participant::RetryPolicy::seeded(0).max_retries as usize;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The first connection is shed throughout; the second is joined,
        // then shed throughout.
        let server = std::thread::spawn(move || {
            let page = rcb_http::serialize::serialize_response(&rcb_http::Response::html(PAGE));
            let mut requests = Vec::new();
            for joined in [false, true] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut served = 0;
                let mut buf = [0u8; 4096];
                while stream.read(&mut buf).is_ok_and(|n| n > 0) {
                    let reply: &[u8] = if joined && served == 0 { &page } else { SHED };
                    stream.write_all(reply).unwrap();
                    served += 1;
                }
                requests.push(served);
            }
            requests
        });
        let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
        let err = TcpParticipant::join(&addr, key.clone(), 1).err().unwrap();
        assert_eq!(
            err.to_string(),
            "protocol error: join failed with status 503"
        );
        let mut alice = TcpParticipant::join(&addr, key, 1).unwrap();
        let err = alice.poll().unwrap_err();
        assert_eq!(
            err.to_string(),
            "protocol error: poll failed with status 503"
        );
        // Every shed reply read is counted, not only the one that failed.
        let shed_len = rcb_http::parse_response(SHED).unwrap().wire_len() as u64;
        assert_eq!(alice.wire_bytes_in, (1 + max as u64) * shed_len);
        drop(alice);
        assert_eq!(server.join().unwrap(), vec![1 + max, 1 + (1 + max)]);
    }

    #[test]
    fn wrong_key_is_rejected_over_tcp() {
        let mut host = start_host();
        let addr = host.addr().to_string();
        let wrong = SessionKey::generate_deterministic(&mut DetRng::new(78));
        let mut eve = TcpParticipant::join(&addr, wrong, 9).unwrap();
        let err = eve.poll().unwrap_err();
        assert_eq!(err.category(), "protocol");
        assert_eq!(host.participant_count(), 0);
        assert_eq!(host.stats().auth_failures, 1);
        host.shutdown();
    }

    #[test]
    fn multiple_participants_over_tcp() {
        let mut host = start_host();
        let addr = host.addr().to_string();
        let mut ps: Vec<TcpParticipant> = (1..=3)
            .map(|i| TcpParticipant::join(&addr, host.key().clone(), i).unwrap())
            .collect();
        for p in &mut ps {
            assert!(matches!(p.poll().unwrap(), SnippetOutcome::Updated { .. }));
        }
        assert_eq!(host.participant_count(), 3);
        // One generation served all three — the snapshot is shared.
        host.with_agent_stats(|s| assert_eq!(s.generations.get(), 1));
        host.shutdown();
    }

    #[test]
    fn full_session_on_epoll_backend() {
        // The same join → poll → mutate → poll → co-fill flow, explicitly
        // on the event-driven backend (skipped where it isn't compiled
        // in): everything above the Handler must be backend-agnostic.
        if !rcb_http::server::EPOLL_SUPPORTED {
            return;
        }
        let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
        browser.doc = Some(rcb_html::parse_document(PAGE));
        browser.mutate_dom(|_| {}).unwrap();
        let mut host = TcpHost::start_from_browser(
            "127.0.0.1:0",
            browser,
            key.clone(),
            AgentConfig::default(),
            ServerConfig {
                backend: ServerBackend::EpollSharded(1),
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(host.backend(), ServerBackend::EpollSharded(1));
        let addr = host.addr().to_string();
        let mut alice = TcpParticipant::join(&addr, key, 1).unwrap();
        assert!(matches!(
            alice.poll().unwrap(),
            SnippetOutcome::Updated { .. }
        ));
        host.mutate_page(|doc| {
            let body = doc.body().unwrap();
            let div = doc.create_element("div");
            let t = doc.create_text("epoll update");
            doc.append_child(div, t).unwrap();
            doc.append_child(body, div).unwrap();
        })
        .unwrap();
        alice
            .poll_until_update(10, std::time::Duration::from_millis(20))
            .unwrap();
        let doc = alice.browser.doc.as_ref().unwrap();
        assert!(doc.text_content(doc.root()).contains("epoll update"));
        alice.act(UserAction::FormInput {
            form: "f".into(),
            field: "note".into(),
            value: "via epoll".into(),
        });
        alice.poll().unwrap();
        assert_eq!(
            host.form_fields("f"),
            vec![("note".to_string(), "via epoll".to_string())]
        );
        // Zero-copy accounting holds on the nonblocking write path too.
        assert_eq!(host.stats().body_bytes_copied, 0);
        host.shutdown();
    }

    #[test]
    fn full_session_on_sharded_backend() {
        // The same session flow on the sharded engine, with enough
        // participants to land on every event-loop shard: joins, polls,
        // a live mutation, and a co-fill merge must all behave exactly as
        // on the single-loop backends, with connections spread round-robin.
        if !rcb_http::server::EPOLL_SUPPORTED {
            return;
        }
        const SHARDS: usize = 2;
        let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
        browser.doc = Some(rcb_html::parse_document(PAGE));
        browser.mutate_dom(|_| {}).unwrap();
        let mut host = TcpHost::start_from_browser(
            "127.0.0.1:0",
            browser,
            key.clone(),
            AgentConfig::default(),
            ServerConfig {
                backend: ServerBackend::EpollSharded(SHARDS),
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(host.backend(), ServerBackend::EpollSharded(SHARDS));
        let addr = host.addr().to_string();
        let mut participants: Vec<TcpParticipant> = (1..=4)
            .map(|pid| TcpParticipant::join(&addr, key.clone(), pid).unwrap())
            .collect();
        for p in &mut participants {
            assert!(matches!(p.poll().unwrap(), SnippetOutcome::Updated { .. }));
        }
        host.mutate_page(|doc| {
            let body = doc.body().unwrap();
            let div = doc.create_element("div");
            let t = doc.create_text("sharded update");
            doc.append_child(div, t).unwrap();
            doc.append_child(body, div).unwrap();
        })
        .unwrap();
        for p in &mut participants {
            p.poll_until_update(10, std::time::Duration::from_millis(20))
                .unwrap();
            let doc = p.browser.doc.as_ref().unwrap();
            assert!(doc.text_content(doc.root()).contains("sharded update"));
        }
        participants[0].act(UserAction::FormInput {
            form: "f".into(),
            field: "note".into(),
            value: "via shards".into(),
        });
        participants[0].poll().unwrap();
        assert_eq!(
            host.form_fields("f"),
            vec![("note".to_string(), "via shards".to_string())]
        );
        // Zero-copy accounting holds across shards, and the four
        // persistent connections were spread over both loops.
        assert_eq!(host.stats().body_bytes_copied, 0);
        let server = host.server_stats();
        assert_eq!(server.shards, SHARDS);
        assert_eq!(server.connections_accepted, 4);
        assert!(
            server.connections_per_shard.iter().all(|&c| c == 2),
            "round-robin spread, got {:?}",
            server.connections_per_shard
        );
        host.shutdown();
    }

    #[test]
    fn poll_without_pid_rejected_over_tcp() {
        let mut host = start_host();
        let addr = host.addr().to_string();
        let key = host.key().clone();
        let mut req = Request::post("/poll", crate::agent::build_poll_body(0, &[]));
        crate::auth::sign_request(&key, &mut req);
        let resp = rcb_http::client::send_request(&addr, &req).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        assert_eq!(host.participant_count(), 0);
        assert_eq!(host.stats().bad_requests, 1);
        host.shutdown();
    }

    #[test]
    fn real_timestamps_are_epoch_millis() {
        let mut host = start_host();
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_millis() as u64;
        let doc_time = host.published_doc_time();
        // Within a minute of the real wall clock — and far beyond the old
        // `% 1_000_000_000` wrap ceiling.
        assert!(
            doc_time > 1_000_000_000,
            "doc_time {doc_time} looks wrapped"
        );
        assert!(doc_time.abs_diff(now_ms) < 60_000);
        host.shutdown();
    }

    /// A generation that fails un-plans its version, so the next write
    /// plans it again instead of skipping it as in flight.
    #[test]
    fn a_failed_generation_is_planned_again() {
        let mut host = start_host();
        let shared = host.clone_shared_for_test();
        let published = host.published_doc_time();
        let err = host
            .mutate_page(|doc| {
                let body = doc.body().unwrap();
                doc.detach(body);
            })
            .unwrap_err();
        assert!(
            err.to_string().contains("neither body nor frameset"),
            "{err}"
        );
        assert_eq!(host.published_doc_time(), published);
        let again = shared.browse(|_| ()).expect_err("planned and failed again");
        assert!(again.to_string().contains("neither body nor frameset"));
        assert_eq!(host.published_doc_time(), published);
        host.mutate_page(|doc| {
            let html = doc.document_element().unwrap();
            let body = doc.create_element("body");
            doc.append_child(html, body).unwrap();
        })
        .unwrap();
        assert!(host.published_doc_time() > published);
        host.shutdown();
    }

    #[test]
    fn cached_objects_served_from_snapshot_over_tcp() {
        use rcb_origin::OriginRegistry;
        use rcb_sim::link::Pipe;
        use rcb_sim::profiles::NetProfile;

        // A host browser that really navigated (cache filled from origin).
        let mut origins = OriginRegistry::with_alexa20();
        let profile = NetProfile::lan();
        let mut pipe = Pipe::new(profile.host_origin);
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser
            .navigate(
                &rcb_url::Url::parse("http://apple.com/").unwrap(),
                &mut origins,
                &mut pipe,
                &profile,
                SimTime::ZERO,
            )
            .unwrap();

        let key = SessionKey::generate_deterministic(&mut DetRng::new(79));
        let mut host = TcpHost::start_from_browser(
            "127.0.0.1:0",
            browser,
            key.clone(),
            AgentConfig::default(),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = host.addr().to_string();
        let mut alice = TcpParticipant::join(&addr, key, 1).unwrap();
        let outcome = alice.poll().unwrap();
        let SnippetOutcome::Updated { object_urls, .. } = outcome else {
            panic!("expected initial sync");
        };
        assert!(!object_urls.is_empty(), "apple.com page has objects");
        assert!(object_urls.iter().all(|u| u.starts_with("/cache/")));
        // `poll` auto-fetched them over the same connection.
        assert_eq!(host.stats().object_requests as usize, object_urls.len());
        for u in &object_urls {
            assert!(alice.browser.cache.contains(u));
        }
        host.shutdown();
    }

    fn start_host_on(backend: ServerBackend) -> TcpHost {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
        browser.doc = Some(rcb_html::parse_document(PAGE));
        browser.mutate_dom(|_| {}).unwrap();
        TcpHost::start_from_browser(
            "127.0.0.1:0",
            browser,
            key,
            AgentConfig::default(),
            ServerConfig {
                backend,
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    fn park_backends() -> Vec<ServerBackend> {
        let mut backends = vec![ServerBackend::Workers];
        if rcb_http::server::EPOLL_SUPPORTED {
            backends.push(ServerBackend::EpollSharded(1));
            backends.push(ServerBackend::EpollSharded(2));
        }
        backends
    }

    #[test]
    fn parked_long_poll_wakes_on_mutation() {
        for backend in park_backends() {
            let mut host = start_host_on(backend);
            let addr = host.addr().to_string();
            let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
            alice.poll().unwrap(); // initial sync; now up to date
            alice.enable_long_poll(SimDuration::from_secs(5));
            let handle = {
                let host = host.clone_shared_for_test();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(120));
                    host.mutate_page(|doc| {
                        let body = doc.body().unwrap();
                        let div = doc.create_element("div");
                        let t = doc.create_text("parked wake");
                        doc.append_child(div, t).unwrap();
                        doc.append_child(body, div).unwrap();
                    })
                    .unwrap();
                })
            };
            let started = std::time::Instant::now();
            let outcome = alice.poll().unwrap();
            let elapsed = started.elapsed();
            handle.join().unwrap();
            assert!(
                matches!(outcome, SnippetOutcome::Updated { .. }),
                "{backend:?}: parked poll must complete with content"
            );
            let doc = alice.browser.doc.as_ref().unwrap();
            assert!(doc.text_content(doc.root()).contains("parked wake"));
            assert!(
                elapsed >= std::time::Duration::from_millis(100),
                "{backend:?}: poll returned before the mutation ({elapsed:?})"
            );
            assert!(
                elapsed < std::time::Duration::from_secs(4),
                "{backend:?}: wake took {elapsed:?}, looks like a timeout"
            );
            let stats = host.stats();
            assert_eq!(stats.polls_parked, 1, "{backend:?}");
            assert_eq!(stats.polls_woken, 1, "{backend:?}");
            assert_eq!(stats.polls_park_timeouts, 0, "{backend:?}");
            // The woken reply is the snapshot's prefab poll reply.
            assert_eq!(stats.body_bytes_copied, 0, "{backend:?}");
            host.shutdown();
        }
    }

    #[test]
    fn parked_delta_wake_completes_with_the_delta_prefab() {
        for backend in park_backends() {
            let mut host = start_host_on(backend);
            let addr = host.addr().to_string();
            let shared = host.clone_shared_for_test();
            let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
            alice.poll().unwrap(); // initial sync; now up to date
            alice.enable_long_poll(SimDuration::from_secs(5));
            alice.snippet.delta = true;
            let parked_version = shared.current_snapshot().dom_version;
            let handle = {
                let host = host.clone_shared_for_test();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(120));
                    host.mutate_page(|doc| {
                        let body = doc.body().unwrap();
                        let div = doc.create_element("div");
                        let t = doc.create_text("delta wake");
                        doc.append_child(div, t).unwrap();
                        doc.append_child(body, div).unwrap();
                    })
                    .unwrap();
                })
            };
            let outcome = alice.poll().unwrap();
            handle.join().unwrap();
            assert!(
                matches!(outcome, SnippetOutcome::Updated { .. }),
                "{backend:?}: woken delta poll must complete with content"
            );
            let doc = alice.browser.doc.as_ref().unwrap();
            assert!(doc.text_content(doc.root()).contains("delta wake"));
            assert_eq!(
                alice.snippet.deltas_applied, 1,
                "{backend:?}: the wake reply must be the delta, not full XML"
            );
            let stats = host.stats();
            assert_eq!(stats.polls_parked, 1, "{backend:?}");
            assert_eq!(stats.polls_woken, 1, "{backend:?}");
            assert_eq!(stats.polls_woken_delta, 1, "{backend:?}");
            assert_eq!(stats.delta_fallbacks, 0, "{backend:?}");
            // Delta is a prefab like every other reply.
            assert_eq!(stats.body_bytes_copied, 0, "{backend:?}");
            // The reason the protocol exists: fewer bytes on the wire than
            // the full-XML wake for the same generation.
            let snap = shared.current_snapshot();
            let delta = snap.delta_response_for(parked_version).unwrap();
            assert!(
                delta.wire_len() < snap.poll_response().wire_len(),
                "{backend:?}: delta ({}) must be smaller than full ({})",
                delta.wire_len(),
                snap.poll_response().wire_len()
            );
            host.shutdown();
        }
    }

    #[test]
    fn parked_delta_wake_inlines_new_objects_in_one_batch() {
        for backend in park_backends() {
            let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
            let mut browser = Browser::new(BrowserKind::Firefox);
            browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
            browser.doc = Some(rcb_html::parse_document(PAGE));
            // The object the mutation will reference, already in the host
            // cache so the snapshot can mint an agent URL for it.
            browser.cache.store(
                "http://demo.local/pic.png",
                "image/png",
                b"PNG-BYTES".to_vec(),
                rcb_util::SimTime::ZERO,
            );
            browser.mutate_dom(|_| {}).unwrap();
            let mut host = TcpHost::start_from_browser(
                "127.0.0.1:0",
                browser,
                key,
                AgentConfig::default(),
                ServerConfig {
                    backend,
                    workers: 2,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let addr = host.addr().to_string();
            let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
            alice.poll().unwrap(); // initial sync; no objects yet
            alice.enable_long_poll(SimDuration::from_secs(5));
            alice.snippet.delta = true;
            let handle = {
                let host = host.clone_shared_for_test();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(120));
                    host.mutate_page(|doc| {
                        let body = doc.body().unwrap();
                        let img = doc.create_element_with_attrs(
                            "img",
                            vec![("src".to_string(), "http://demo.local/pic.png".to_string())],
                        );
                        doc.append_child(body, img).unwrap();
                    })
                    .unwrap();
                })
            };
            let outcome = alice.poll().unwrap();
            handle.join().unwrap();
            let SnippetOutcome::Updated { object_urls, .. } = outcome else {
                panic!("{backend:?}: woken batch poll must complete with content");
            };
            assert_eq!(
                object_urls.len(),
                1,
                "{backend:?}: the delta references the newly minted object"
            );
            assert!(object_urls[0].starts_with("/cache/"));
            // The object arrived inline in the multipart wake reply: it is
            // already cached under its minted URL, and no follow-up
            // `/cache/{key}` round trip ever hit the server.
            assert!(alice.browser.cache.contains(&object_urls[0]), "{backend:?}");
            let entry = alice.browser.cache.lookup(&object_urls[0]).unwrap();
            assert_eq!(entry.data.as_ref(), b"PNG-BYTES", "{backend:?}");
            assert_eq!(entry.content_type, "image/png", "{backend:?}");
            let stats = host.stats();
            assert_eq!(
                stats.object_requests, 0,
                "{backend:?}: batched reply must eliminate object round trips"
            );
            assert_eq!(stats.polls_woken_delta, 1, "{backend:?}");
            assert_eq!(stats.delta_fallbacks, 0, "{backend:?}");
            assert_eq!(alice.snippet.deltas_applied, 1, "{backend:?}");
            host.shutdown();
        }
    }

    #[test]
    fn object_request_without_token_material_is_400_everywhere() {
        // Missing `k=` and empty `k=` are the same malformed request; the
        // reply must be byte-identical across both spellings and all
        // backends (satellite regression: empty used to fall through to
        // token verification).
        let mut replies: Vec<(Status, String, Vec<u8>)> = Vec::new();
        for backend in park_backends() {
            let mut host = start_host_on(backend);
            let addr = host.addr().to_string();
            let mut conn =
                HttpConnection::connect_with_read_timeout(&addr, std::time::Duration::from_secs(2))
                    .unwrap();
            for target in ["/cache/0", "/cache/0?k="] {
                let resp = conn.round_trip(&rcb_http::Request::get(target)).unwrap();
                assert_eq!(
                    resp.status,
                    Status::BAD_REQUEST,
                    "{backend:?} {target}: no token material is malformed, not 401/404"
                );
                assert_eq!(resp.body_str(), crate::auth::OBJECT_TOKEN_REQUIRED);
                replies.push((resp.status, target.to_string(), resp.body.to_vec()));
            }
            assert_eq!(host.stats().bad_requests, 2, "{backend:?}");
            host.shutdown();
        }
        // Same bytes regardless of spelling or backend.
        let first = &replies[0];
        for r in &replies[1..] {
            assert_eq!((r.0, &r.2), (first.0, &first.2));
        }
    }

    #[test]
    fn parked_long_poll_times_out_to_empty_reply() {
        for backend in park_backends() {
            let mut host = start_host_on(backend);
            let addr = host.addr().to_string();
            let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
            alice.poll().unwrap();
            alice.enable_long_poll(SimDuration::from_millis(200));
            let started = std::time::Instant::now();
            let outcome = alice.poll().unwrap();
            let elapsed = started.elapsed();
            assert!(
                matches!(outcome, SnippetOutcome::NoNewContent),
                "{backend:?}: timed-out park must fall back to the empty reply"
            );
            assert!(
                elapsed >= std::time::Duration::from_millis(150),
                "{backend:?}: park returned after only {elapsed:?}"
            );
            let stats = host.stats();
            assert_eq!(stats.polls_parked, 1, "{backend:?}");
            assert_eq!(stats.polls_woken, 0, "{backend:?}");
            assert_eq!(stats.polls_park_timeouts, 1, "{backend:?}");
            assert_eq!(stats.body_bytes_copied, 0, "{backend:?}");
            host.shutdown();
        }
    }

    #[test]
    fn park_cap_zero_degrades_long_polls_to_immediate_empty() {
        use rcb_http::server::OverloadConfig;
        for backend in park_backends() {
            let key = SessionKey::generate_deterministic(&mut DetRng::new(77));
            let mut browser = Browser::new(BrowserKind::Firefox);
            browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
            browser.doc = Some(rcb_html::parse_document(PAGE));
            browser.mutate_dom(|_| {}).unwrap();
            let mut host = TcpHost::start_from_browser(
                "127.0.0.1:0",
                browser,
                key,
                AgentConfig::default(),
                ServerConfig {
                    backend,
                    workers: 2,
                    overload: OverloadConfig {
                        max_parked: 0,
                        ..OverloadConfig::default()
                    },
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let addr = host.addr().to_string();
            let mut alice = TcpParticipant::join(&addr, host.key().clone(), 1).unwrap();
            alice.poll().unwrap(); // initial sync; now up to date
            alice.enable_long_poll(SimDuration::from_secs(5));
            let started = std::time::Instant::now();
            let outcome = alice.poll().unwrap();
            let elapsed = started.elapsed();
            assert!(
                matches!(outcome, SnippetOutcome::NoNewContent),
                "{backend:?}: degraded park must equal the empty reply"
            );
            assert!(
                elapsed < std::time::Duration::from_secs(2),
                "{backend:?}: degraded park still waited {elapsed:?}"
            );
            let stats = host.stats();
            assert_eq!(
                stats.polls_parked, 1,
                "{backend:?}: the agent offered the park"
            );
            assert_eq!(stats.polls_shed_at_park_cap, 1, "{backend:?}");
            assert_eq!(host.server_stats().parks_shed, 1, "{backend:?}");
            host.shutdown();
        }
    }
}
