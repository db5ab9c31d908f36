//! The deterministic world sim: the real RCB stack over the seeded
//! in-process fabric.
//!
//! The very same serving stack the real-socket deployment runs — the
//! [`SessionRouter`] in front of each session's agent pipeline
//! (snapshots, shards, prefab replies, parked long-polls) — serves
//! here N simulated participants, over the one connection state machine
//! every engine drives, with **zero sockets, zero threads, and zero
//! wall-clock sleeps**. Time is the world's virtual clock, the network
//! is [`rcb_sim::SimNet`] (seeded latency/jitter/loss, partition/heal),
//! and the server is the pump-mode [`rcb_http::SimDriver`]. Nothing here
//! reads the environment: the driver's limits come from the scenario,
//! so a run replays the same under any `RCB_*` settings. Two runs of
//! the same [`WorldScenario`] replay byte-identical traces and identical
//! stats — which is what makes protocol bugs (duplicate merges, lost
//! wakes, reconnect storms) reproducible from a single seed instead of a
//! flaky CI run.
//!
//! The pieces:
//!
//! * [`WorldHost`] — a [`SessionRouter`] + [`SimDriver`] bound to a
//!   named fabric host: the production router, pumped instead of
//!   threaded, serving one default session or many routed ones;
//! * [`WorldParticipant`] — the fabric driver of the participant
//!   protocol ([`crate::participant`], the same core `TcpParticipant`
//!   drives over sockets, around the *real* [`AjaxSnippet`]) with the
//!   *real* client framing ([`rcb_http::client::try_parse_response`]):
//!   it adds the nonblocking connection, the polling cadence, and
//!   reconnects after partitions;
//! * [`ScriptEvent`] / [`WorldScenario`] — a closure-free, replayable
//!   scenario script (joins, actions, host mutations, partitions) plus
//!   the discrete-event runner that alternates "pump everything to
//!   quiescence" with "advance the clock to the next event";
//! * [`WorldReport`] — the run's outcome: host stats, convergence state,
//!   per-participant counters, and the fabric trace (the replay
//!   fingerprint).
//!
//! Client-side delivery is **at-most-once**: a poll lost to a partition
//! reset is not retransmitted (its piggybacked actions are gone, exactly
//! like a browser tab that lost its XHR), so any duplicate merge observed
//! on the host is the server's fault — which is precisely what the
//! partition/heal convergence test pins down via exact `dom_version`
//! accounting. A shed poll is different: its `503` answered before any
//! handler ran, so it is sent again unchanged, actions and all.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use rcb_browser::{Browser, BrowserKind, UserAction};
use rcb_crypto::SessionKey;
use rcb_http::client::try_parse_response;
use rcb_http::server::{OverloadConfig, ServerBackend, ServerConfig, ServerStats};
use rcb_http::{Response, SimDriver};
use rcb_sim::{LinkModel, NetProfile, SimConn, World};
use rcb_util::{Clock, DetRng, Result, SimDuration, SimTime};

use crate::agent::AgentConfig;
use crate::participant::{world_shed_seed, ParticipantCore, Reply};
use crate::router::{session_prefix, RouterConfig, SessionFactory, SessionHandle, SessionRouter};
use crate::snippet::AjaxSnippet;
use crate::tcp::TcpHostStats;

/// How long a participant waits before retrying a connection after a
/// reset or a refused connect (partitions refuse until healed).
const RECONNECT_DELAY: SimDuration = SimDuration::from_secs(1);

/// RCB-Agent served over the fabric: a [`SessionRouter`] pumped by a
/// [`SimDriver`] — the deterministic twin of [`crate::tcp::TcpHost`] and
/// [`crate::router::RouterHost`], which serve the same router over kernel
/// sockets. A one-session world installs its browser as the router's
/// default session, exactly as `TcpHost` does; a multi-tenant world
/// hands the router a [`SessionFactory`] and its participants join with
/// [`WorldParticipant::new_in_session`]. Per-session state is read and
/// mutated through the router's [`SessionHandle`]s; the host itself only
/// drives the pump.
pub struct WorldHost {
    router: Arc<SessionRouter>,
    driver: SimDriver,
}

impl WorldHost {
    /// Binds a session router at fabric host `name`. The driver runs on
    /// the world's clock with a fresh park hub and the given overload
    /// limits (chaos scenarios tighten admission marks, park caps and
    /// guard deadlines far below the production defaults); the router
    /// publishes through the same hub and draws its sheds from the same
    /// limits, so each session's parked long-polls wake on that session's
    /// own channel and time out on virtual deadlines.
    pub fn start(
        world: &World,
        name: &str,
        factory: SessionFactory,
        agent_config: AgentConfig,
        router_config: RouterConfig,
        overload: OverloadConfig,
    ) -> Result<WorldHost> {
        let config = in_process_config(world.clock(), overload);
        let router = SessionRouter::new(factory, agent_config, router_config, &config);
        let driver = SimDriver::new(world.bind(name)?, router.make_handler(), &config);
        Ok(WorldHost { router, driver })
    }

    /// The session layer (default session, create/look up sessions,
    /// eviction, stats).
    pub fn router(&self) -> &Arc<SessionRouter> {
        &self.router
    }

    /// One driver sweep; returns whether anything was served.
    pub fn pump(&mut self) -> bool {
        self.driver.pump()
    }

    /// Pumps the driver and then every participant, in pid order, round
    /// after round until a round serves nothing and moves no participant:
    /// the quiescence step a sim run takes between two clock advances.
    pub fn pump_to_quiescence(
        &mut self,
        world: &World,
        participants: &mut BTreeMap<u64, WorldParticipant>,
    ) -> Result<()> {
        loop {
            let mut progress = false;
            while self.pump() {
                progress = true;
            }
            for p in participants.values_mut() {
                progress |= p.pump(world)?;
            }
            if !progress {
                return Ok(());
            }
        }
    }

    /// Soonest parked long-poll deadline across every session (folded
    /// into the runner's next-event computation).
    pub fn next_park_deadline(&self) -> Option<SimTime> {
        self.driver.next_park_deadline()
    }

    /// Soonest connection-guard deadline (header-read or idle). The
    /// scenario runner does *not* fold this in — guards fire during
    /// pumps the script already schedules — but chaos tests that drive
    /// raw connections advance to it explicitly.
    pub fn next_guard_deadline(&self) -> Option<SimTime> {
        self.driver.next_guard_deadline()
    }

    /// Engine-level overload counters (sheds, guard trips, oversize
    /// rejections) from the pump driver — the same [`ServerStats`] shape
    /// the threaded backends report.
    pub fn server_stats(&self) -> ServerStats {
        self.driver.server_stats()
    }

    /// Requests the driver has answered (parked polls on resolution).
    pub fn requests_served(&self) -> u64 {
        self.driver.requests_served()
    }
}

/// The server configuration of a host served without sockets, on `clock`
/// with a fresh park hub: a literal, never `ServerConfig::default()`, so
/// the sims read no environment. The pump driver and the paper world have
/// no threads, queue or blocking reads, so only the clock, the hub and
/// the limits are used.
pub(crate) fn in_process_config(clock: Clock, overload: OverloadConfig) -> ServerConfig {
    ServerConfig {
        backend: ServerBackend::Workers,
        workers: 0,
        queue_capacity: 0,
        read_timeout: Duration::ZERO,
        park_hub: Arc::default(),
        clock,
        overload,
    }
}

/// A simulated participant: the fabric driver of the participant
/// protocol ([`crate::participant`]), pumped by the scenario loop. The
/// protocol — join, signed poll, Fig.-5 apply, agent-object fetches, the
/// shed back-off — is the shared core's; this driver owns the fabric
/// connection and its framing, the polling cadence (the next poll at
/// once under long-poll or with actions waiting, after the poll interval
/// otherwise), and reconnects after resets.
pub struct WorldParticipant {
    /// Fabric host name (`p{pid}`).
    name: String,
    /// Fabric host name of the agent.
    agent_host: String,
    link: LinkModel,
    conn: Option<SimConn>,
    /// Bytes read off the conn, not yet framed into a response.
    buf: Vec<u8>,
    core: ParticipantCore,
    /// When idle, backing off or disconnected: the next time this
    /// participant acts.
    next_wake: Option<SimTime>,
    /// The participant's browser model.
    pub browser: Browser,
    /// Snippet state (poll building, content application, M6 samples).
    pub snippet: AjaxSnippet,
    /// Polls answered (a parked poll counts when its reply arrives).
    pub polls_completed: u64,
    /// Objects fetched into the browser cache.
    pub objects_fetched: u64,
    /// Connections lost (reset, refused, or server-closed) and retried.
    pub resets: u64,
    /// `503` shed replies absorbed (each holds its request for an
    /// unchanged re-send after a jittered backoff, instead of surfacing
    /// as an error).
    pub sheds: u64,
    /// Virtual-time round-trip of every completed poll, in microseconds
    /// (send to reply; a parked long-poll's wait counts). Deterministic,
    /// so fairness assertions can gate percentiles of it exactly.
    pub poll_latencies: Vec<u64>,
    /// When the in-flight poll was sent (feeds `poll_latencies`).
    poll_sent_at: Option<SimTime>,
}

impl WorldParticipant {
    /// Creates a participant of `world` that will join `agent_host` over
    /// `link` the next time it is pumped. Its shed back-off is seeded from
    /// the world's seed and its pid.
    pub fn new(
        world: &World,
        pid: u64,
        key: SessionKey,
        agent_host: &str,
        link: LinkModel,
        poll_interval: SimDuration,
    ) -> WorldParticipant {
        WorldParticipant {
            name: format!("p{pid}"),
            agent_host: agent_host.to_string(),
            link,
            conn: None,
            buf: Vec::new(),
            core: ParticipantCore::new(world_shed_seed(world.seed(), pid), false),
            next_wake: None,
            browser: Browser::new(BrowserKind::Firefox),
            snippet: AjaxSnippet::new(pid, key, poll_interval),
            polls_completed: 0,
            objects_fetched: 0,
            resets: 0,
            sheds: 0,
            poll_latencies: Vec::new(),
            poll_sent_at: None,
        }
    }

    /// [`WorldParticipant::new`] scoped to one routed session: the join
    /// GET and every poll/object target live under `/s/{sid}` (and are
    /// therefore HMAC-bound to that session).
    pub fn new_in_session(
        world: &World,
        pid: u64,
        key: SessionKey,
        agent_host: &str,
        link: LinkModel,
        poll_interval: SimDuration,
        sid: &str,
    ) -> WorldParticipant {
        let mut p = WorldParticipant::new(world, pid, key, agent_host, link, poll_interval);
        p.snippet.base_path = session_prefix(sid);
        p
    }

    /// Queues an action to ride the next poll (sent on the next pump).
    pub fn act(&mut self, action: UserAction) {
        self.snippet.capture_action(action);
    }

    /// When this participant next acts on its own (reconnect backoff,
    /// shed backoff or the poll-interval timer); `None` while a response
    /// is in flight.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.next_wake
    }

    /// One nonblocking service pass: (re)connect if due, drain arrived
    /// bytes, handle complete responses, send the next request. Returns
    /// whether anything happened.
    pub fn pump(&mut self, world: &World) -> Result<bool> {
        let now = world.now();
        if self.conn.is_none() {
            if self.next_wake.is_none_or(|t| t <= now) {
                match world.connect(&self.name, &self.agent_host, self.link) {
                    Ok(conn) => {
                        self.conn = Some(conn);
                        self.next_wake = None;
                        self.send_next(now);
                        return Ok(true);
                    }
                    Err(_) => {
                        // Refused (partitioned): back off and retry.
                        self.next_wake = Some(now + RECONNECT_DELAY);
                    }
                }
            }
            return Ok(false);
        }
        let mut progress = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let conn = self.conn.as_mut().expect("checked above");
            match conn.try_read(&mut chunk) {
                Ok(0) => {
                    // Server closed; reconnect like a browser would.
                    self.on_disconnect(now);
                    return Ok(true);
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Reset (partition): the in-flight request is lost.
                    self.on_disconnect(now);
                    return Ok(true);
                }
            }
        }
        while let Some((resp, consumed)) = try_parse_response(&self.buf)? {
            self.buf.drain(..consumed);
            progress = true;
            self.handle_response(resp, now)?;
            if self.conn.is_none() {
                return Ok(true);
            }
        }
        // Nothing on the wire and a due timer (a back-off or the poll
        // interval), or actions to deliver between rounds: send now.
        let actions_waiting =
            self.core.joined() && !self.core.backing_off() && self.snippet.pending_actions() > 0;
        if !self.core.on_wire() && (self.next_wake.is_some_and(|t| t <= now) || actions_waiting) {
            self.next_wake = None;
            self.send_next(now);
            progress = true;
        }
        Ok(progress)
    }

    fn handle_response(&mut self, resp: Response, now: SimTime) -> Result<()> {
        let reply = self
            .core
            .on_response(resp, &mut self.snippet, &mut self.browser)?;
        match reply {
            Reply::Shed(delay) => {
                // Virtual time: the delay schedules a wake, no thread
                // sleeps; the wake re-sends the held request.
                self.sheds += 1;
                self.poll_sent_at = None;
                self.next_wake = Some(now + SimDuration::from_duration(delay));
                return Ok(());
            }
            Reply::Joined => {}
            Reply::Polled(_) => {
                if let Some(sent) = self.poll_sent_at.take() {
                    self.poll_latencies.push((now - sent).as_micros());
                }
                self.polls_completed += 1;
            }
            Reply::Object { stored } => self.objects_fetched += u64::from(stored),
        }
        // The round's next object, or the next poll: at once after the
        // join, under long-poll or with actions waiting, else after the
        // poll interval.
        if matches!(reply, Reply::Joined)
            || self.core.round_continues()
            || self.snippet.long_poll.is_some()
            || self.snippet.pending_actions() > 0
        {
            self.send_next(now);
        } else {
            self.next_wake = Some(now + self.snippet.poll_interval);
        }
        Ok(())
    }

    /// Writes the core's next request; a failed write (reset under our
    /// feet) tears the connection down for the reconnect path.
    fn send_next(&mut self, now: SimTime) {
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let wire = rcb_http::serialize::serialize_request(self.core.next(&mut self.snippet));
        if self.core.polling() {
            self.poll_sent_at = Some(now);
        }
        if conn.write_all(&wire).is_err() {
            self.on_disconnect(now);
        }
    }

    fn on_disconnect(&mut self, now: SimTime) {
        self.conn = None;
        self.core.on_disconnect();
        self.poll_sent_at = None;
        self.buf.clear();
        self.resets += 1;
        self.next_wake = Some(now + RECONNECT_DELAY);
    }
}

/// One scripted occurrence in a [`WorldScenario`] — data, not closures,
/// so a scenario can be run twice for replay comparison.
#[derive(Debug, Clone)]
pub enum ScriptEvent {
    /// A participant joins the session.
    Join {
        /// Participant id (also names the fabric host `p{pid}`).
        pid: u64,
    },
    /// The participant switches its polls to parked long-polls.
    EnableLongPoll {
        /// Participant id.
        pid: u64,
        /// Requested park duration (capped by the agent).
        wait: SimDuration,
    },
    /// The participant starts advertising delta capability (`d=1` on
    /// every later poll): a woken park may answer with a
    /// `deltaContent` (or batch) reply instead of the full XML.
    EnableDelta {
        /// Participant id.
        pid: u64,
    },
    /// The participant performs a user action (rides its next poll).
    Act {
        /// Participant id.
        pid: u64,
        /// The action.
        action: UserAction,
    },
    /// The host appends a `<div>` with this text to its page body.
    HostAppend {
        /// Text content of the appended element.
        text: String,
    },
    /// Cuts the listed participants off from the host.
    Partition {
        /// Participant ids to isolate.
        pids: Vec<u64>,
    },
    /// Heals the listed participants' links to the host.
    Heal {
        /// Participant ids to reconnect.
        pids: Vec<u64>,
    },
}

/// Per-participant outcome of a run (equality-comparable for replay
/// tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParticipantReport {
    /// Content timestamp the participant's snippet acknowledges.
    pub doc_time: u64,
    /// Polls answered.
    pub polls_completed: u64,
    /// Content updates applied.
    pub updates_applied: u64,
    /// Of those, updates that arrived as delta-encoded wake payloads.
    pub deltas_applied: u64,
    /// Objects fetched.
    pub objects_fetched: u64,
    /// Connections lost and retried.
    pub resets: u64,
    /// `503` shed replies absorbed and retried with backoff.
    pub sheds: u64,
}

/// Everything a finished [`WorldScenario`] run reports. `PartialEq` so
/// a replay test is one assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldReport {
    /// Virtual time when the run went quiescent.
    pub end: SimTime,
    /// Host-side request counters.
    pub stats: TcpHostStats,
    /// Engine-level overload counters (sheds, guard trips, oversize
    /// rejections) from the pump driver.
    pub server: ServerStats,
    /// Requests the driver answered.
    pub requests_served: u64,
    /// Final host DOM version (exact merge accounting).
    pub host_dom_version: u64,
    /// Final published document timestamp.
    pub host_doc_time: u64,
    /// Per-participant outcomes, keyed by pid.
    pub participants: BTreeMap<u64, ParticipantReport>,
    /// The fabric + scenario trace — the replay fingerprint: two
    /// same-seed runs must produce this byte-identically.
    pub trace: Vec<String>,
}

/// A seeded, scripted co-browsing scenario: the entry point of the
/// deterministic world sim.
///
/// ```no_run
/// use rcb_core::worldsim::{ScriptEvent, WorldScenario};
/// use rcb_util::SimDuration;
///
/// let mut sc = WorldScenario::new(42, "http://demo.local/", "<html>...</html>");
/// sc.at(SimDuration::ZERO, ScriptEvent::Join { pid: 1 });
/// sc.at(
///     SimDuration::from_secs(2),
///     ScriptEvent::HostAppend { text: "breaking news".into() },
/// );
/// let report = sc.run().unwrap();
/// assert_eq!(report, sc.run().unwrap(), "same seed, same world");
/// ```
#[derive(Debug, Clone)]
pub struct WorldScenario {
    /// Seed for every random draw (fabric jitter/loss, session key).
    pub seed: u64,
    /// URL the host browser shows.
    pub page_url: String,
    /// Document the host browser shows.
    pub page_html: String,
    /// When set, the host browser first *navigates* this URL against the
    /// simulated origin registry (filling its cache, so the generated
    /// content carries `/cache/..` object URLs participants fetch back
    /// through the agent) instead of parsing `page_html` directly.
    pub origin_url: Option<String>,
    /// Network environment; `participant_link()` shapes every
    /// participant↔host connection.
    pub profile: NetProfile,
    /// Snippet poll interval (the paper used 1 s).
    pub poll_interval: SimDuration,
    /// Virtual-time horizon: no event past it is processed.
    pub horizon: SimDuration,
    /// `None`: advance exactly event-to-event (finest replay traces).
    /// `Some(q)`: advance in fixed quanta of `q`, coalescing fabric
    /// events per tick — O(horizon/q) sweeps regardless of event count,
    /// which is what makes thousand-participant scenarios run in
    /// wall-clock seconds. Both modes are fully deterministic.
    pub tick: Option<SimDuration>,
    /// Overload limits for the host's serving driver; `None` uses
    /// `OverloadConfig::default()` (the sim reads no environment, so a
    /// scenario replays the same under any `RCB_*` settings). Chaos
    /// scenarios set tight marks here (e.g. `queue_high_water` far below
    /// the storm size) to force deterministic shedding.
    pub overload: Option<OverloadConfig>,
    /// The scripted events (sorted by time at run start; same-time
    /// events keep insertion order).
    pub script: Vec<(SimTime, ScriptEvent)>,
}

impl WorldScenario {
    /// A scenario with the defaults: WAN profile, 1 s polls, 30 s
    /// horizon, exact event stepping, default overload limits, empty
    /// script.
    pub fn new(seed: u64, page_url: &str, page_html: &str) -> WorldScenario {
        WorldScenario {
            seed,
            page_url: page_url.to_string(),
            page_html: page_html.to_string(),
            origin_url: None,
            profile: NetProfile::wan(),
            poll_interval: SimDuration::from_secs(1),
            horizon: SimDuration::from_secs(30),
            tick: None,
            overload: None,
            script: Vec::new(),
        }
    }

    /// Sets explicit overload limits for the host's serving driver.
    pub fn with_overload(&mut self, overload: OverloadConfig) -> &mut WorldScenario {
        self.overload = Some(overload);
        self
    }

    /// Schedules `event` at virtual offset `t`.
    pub fn at(&mut self, t: SimDuration, event: ScriptEvent) -> &mut WorldScenario {
        self.script.push((SimTime::ZERO + t, event));
        self
    }

    /// Runs the scenario to quiescence (or the horizon) and reports.
    /// `&self`: the same scenario value can run twice for a replay
    /// comparison.
    pub fn run(&self) -> Result<WorldReport> {
        let world = World::new(self.seed);
        let key =
            SessionKey::generate_deterministic(&mut DetRng::new(self.seed ^ 0x5eed_5e55_1040_e100));
        let overload = self.overload.clone().unwrap_or_default();
        let browser = match &self.origin_url {
            Some(url) => {
                // A host that really navigated: its cache holds the
                // page's supplementary objects, so generated content
                // rewrites their URLs to agent `/cache/..` paths.
                let mut origins = rcb_origin::OriginRegistry::with_alexa20();
                let mut pipe = rcb_sim::link::Pipe::new(self.profile.host_origin);
                let mut browser = Browser::new(BrowserKind::Firefox);
                browser.navigate(
                    &rcb_url::Url::parse(url)?,
                    &mut origins,
                    &mut pipe,
                    &self.profile,
                    SimTime::ZERO,
                )?;
                browser
            }
            None => {
                let mut browser = Browser::new(BrowserKind::Firefox);
                browser.url = Some(rcb_url::Url::parse(&self.page_url)?);
                browser.doc = Some(rcb_html::parse_document(&self.page_html));
                browser.mutate_dom(|_| {}).expect("document just loaded");
                browser
            }
        };
        let mut host = WorldHost::start(
            &world,
            "host",
            Box::new(|_| None),
            AgentConfig::default(),
            RouterConfig::default(),
            overload,
        )?;
        let session = host
            .router()
            .install_default_session(browser, key.clone())?;
        let mut participants: BTreeMap<u64, WorldParticipant> = BTreeMap::new();
        let mut script = self.script.clone();
        script.sort_by_key(|&(t, _)| t); // stable: same-time order kept
        let horizon = SimTime::ZERO + self.horizon;
        let mut cursor = 0usize;
        loop {
            // 1. Fire everything the script schedules at or before now.
            while cursor < script.len() && script[cursor].0 <= world.now() {
                let event = script[cursor].1.clone();
                cursor += 1;
                apply_event(&world, &session, &mut participants, &key, self, event)?;
            }
            // 2. Pump host and participants to quiescence.
            host.pump_to_quiescence(&world, &mut participants)?;
            // 3. Advance to the next thing that can happen.
            let next = match self.tick {
                Some(q) => {
                    // Quantized stepping: stop once nothing is pending.
                    let pending = cursor < script.len()
                        || world.next_event_time().is_some()
                        || host.next_park_deadline().is_some()
                        || participants.values().any(|p| p.next_wake().is_some());
                    pending.then(|| world.now() + q)
                }
                None => {
                    let mut next = script.get(cursor).map(|&(t, _)| t);
                    let mut fold = |t: Option<SimTime>| {
                        next = match (next, t) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                    };
                    fold(world.next_event_time());
                    fold(host.next_park_deadline());
                    for p in participants.values() {
                        fold(p.next_wake());
                    }
                    next
                }
            };
            match next {
                Some(t) if t <= horizon => {
                    // Guard against a same-instant target: always move.
                    let target = t.max(world.now() + SimDuration::from_micros(1));
                    world.advance_to(target);
                }
                _ => break,
            }
        }
        Ok(WorldReport {
            end: world.now(),
            stats: session.stats(),
            server: host.server_stats(),
            requests_served: host.requests_served(),
            host_dom_version: session.dom_version(),
            host_doc_time: session.published_doc_time(),
            participants: participants
                .iter()
                .map(|(&pid, p)| {
                    (
                        pid,
                        ParticipantReport {
                            doc_time: p.snippet.doc_time,
                            polls_completed: p.polls_completed,
                            updates_applied: p.snippet.updates_applied,
                            deltas_applied: p.snippet.deltas_applied,
                            objects_fetched: p.objects_fetched,
                            resets: p.resets,
                            sheds: p.sheds,
                        },
                    )
                })
                .collect(),
            trace: world.trace(),
        })
    }
}

fn apply_event(
    world: &World,
    session: &SessionHandle,
    participants: &mut BTreeMap<u64, WorldParticipant>,
    key: &SessionKey,
    scenario: &WorldScenario,
    event: ScriptEvent,
) -> Result<()> {
    match event {
        ScriptEvent::Join { pid } => {
            world.note(&format!("script join p{pid}"));
            participants.insert(
                pid,
                WorldParticipant::new(
                    world,
                    pid,
                    key.clone(),
                    "host",
                    scenario.profile.participant_link(),
                    scenario.poll_interval,
                ),
            );
        }
        ScriptEvent::EnableLongPoll { pid, wait } => {
            if let Some(p) = participants.get_mut(&pid) {
                p.snippet.long_poll = Some(wait);
            }
        }
        ScriptEvent::EnableDelta { pid } => {
            if let Some(p) = participants.get_mut(&pid) {
                p.snippet.delta = true;
            }
        }
        ScriptEvent::Act { pid, action } => {
            world.note(&format!("script act p{pid}"));
            if let Some(p) = participants.get_mut(&pid) {
                p.act(action);
            }
        }
        ScriptEvent::HostAppend { text } => {
            world.note(&format!("script host-append {text:?}"));
            session.mutate_page(|doc| {
                let body = doc.body().expect("host page has a body");
                let div = doc.create_element("div");
                let t = doc.create_text(text);
                doc.append_child(div, t).expect("fresh div");
                doc.append_child(body, div).expect("host body");
            })?;
        }
        ScriptEvent::Partition { pids } => {
            for pid in pids {
                world.partition(&format!("p{pid}"), "host");
            }
        }
        ScriptEvent::Heal { pids } => {
            for pid in pids {
                world.heal(&format!("p{pid}"), "host");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::tests::shed_first_action_poll;
    use std::sync::atomic::Ordering;

    const PAGE: &str = "<html><head><title>shed</title></head>\
        <body><form id=\"f\"><input name=\"q\" value=\"\"/></form></body></html>";

    /// The back-offs participant `pid` of a world seeded `seed` draws for
    /// six sheds in a row of its join.
    fn shed_back_offs(seed: u64, pid: u64) -> Vec<Duration> {
        let world = World::new(seed);
        let key = SessionKey::generate_deterministic(&mut DetRng::new(seed));
        let link = NetProfile::lan().participant_link();
        let mut p =
            WorldParticipant::new(&world, pid, key, "host", link, SimDuration::from_secs(1));
        p.core.begin(&mut p.snippet);
        (0..6)
            .map(|_| {
                let shed = Response::error(rcb_http::Status::SERVICE_UNAVAILABLE, "shed");
                let reply = p.core.on_response(shed, &mut p.snippet, &mut p.browser);
                p.core.resume().expect("the shed join is held");
                match reply.unwrap() {
                    Reply::Shed(delay) => delay,
                    other => panic!("a 503 is a shed, got {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn the_world_seed_reaches_the_shed_back_off() {
        for pid in [1, 3, 8] {
            assert_eq!(
                shed_back_offs(305, pid),
                shed_back_offs(305, pid),
                "replays"
            );
            assert_ne!(shed_back_offs(305, pid), shed_back_offs(306, pid), "p{pid}");
            assert_ne!(shed_back_offs(306, pid), shed_back_offs(307, pid), "p{pid}");
        }
    }

    #[test]
    fn a_shed_action_poll_is_sent_again_and_merged() {
        let world = World::new(24);
        let config = in_process_config(world.clock(), OverloadConfig::default());
        let router = SessionRouter::new(
            Box::new(|_| None),
            AgentConfig::default(),
            RouterConfig::default(),
            &config,
        );
        let key = SessionKey::generate_deterministic(&mut DetRng::new(24));
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.url = Some(rcb_url::Url::parse("http://demo.local/").unwrap());
        browser.doc = Some(rcb_html::parse_document(PAGE));
        browser.mutate_dom(|_| {}).unwrap();
        let session = router
            .install_default_session(browser, key.clone())
            .unwrap();
        let (handler, action_polls) = shed_first_action_poll(router.make_handler(), "1");
        let driver = SimDriver::new(world.bind("host").unwrap(), handler, &config);
        let mut host = WorldHost { router, driver };
        let link = NetProfile::lan().participant_link();
        let participant =
            WorldParticipant::new(&world, 1, key, "host", link, SimDuration::from_secs(1));
        let mut participants = BTreeMap::from([(1, participant)]);
        let acts_at = SimTime::ZERO + SimDuration::from_secs(2);
        let horizon = SimTime::ZERO + SimDuration::from_secs(10);
        let mut version_before = None;
        while world.now() < horizon {
            if version_before.is_none() && world.now() >= acts_at {
                version_before = Some(session.dom_version());
                participants
                    .get_mut(&1)
                    .unwrap()
                    .act(UserAction::FormInput {
                        form: "f".into(),
                        field: "q".into(),
                        value: "kept".into(),
                    });
            }
            host.pump_to_quiescence(&world, &mut participants).unwrap();
            world.advance_to(world.now() + SimDuration::from_millis(100));
        }
        let p = &participants[&1];
        assert_eq!(
            action_polls.load(Ordering::Relaxed),
            2,
            "shed, then sent again"
        );
        assert_eq!(p.sheds, 1);
        assert!(session.dom_version() > version_before.unwrap());
        assert_eq!(
            session.shared_host().form_fields("f"),
            vec![("q".to_string(), "kept".to_string())]
        );
        assert_eq!(p.snippet.doc_time, session.published_doc_time());
    }
}
