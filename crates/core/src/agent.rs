//! RCB-Agent: the HTTP server inside the host browser.
//!
//! Implements the request-processing procedure of paper Fig. 2. The agent
//! receives three request types from participant browsers and classifies
//! them "by simply checking the method token and request-URI token in the
//! request-line":
//!
//! * **new connection request** — `GET /` → the initial HTML page whose
//!   head carries Ajax-Snippet;
//! * **object request** — `GET /cache/{key}` (cache mode) → the cached
//!   object, answered with the prefab frozen into the current
//!   [`ContentSnapshot`] (its body shares the host browser cache entry);
//! * **Ajax polling request** — `POST /poll` → data merging, timestamp
//!   inspection, and either a Fig.-4 XML response with new content or an
//!   empty response ("to avoid hanging requests").
//!
//! The procedure itself lives in the crate's shared request path, which
//! the concurrent host in [`crate::tcp`] drives too.
//! [`RcbAgent::handle_request`] is its sequential driver: it maps a parsed
//! request plus mutable access to the host browser onto a response and a
//! list of host-side effects (navigations and form submissions the
//! *world* must perform, because they need the network). It merges with
//! exclusive access and rebuilds its snapshot inline on the first request
//! after the host DOM moved.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

use rcb_browser::{Browser, UserAction};
use rcb_cache::MappingTable;
use rcb_crypto::SessionKey;
use rcb_http::{Request, Response};
use rcb_util::{Counter, Histogram, Result, SimDuration, SimTime};

use crate::content::GeneratedContent;
use crate::fig2::{Answer, Deployment, RequestPath, TcpHostStats};
use crate::policy::{InteractionPolicy, NavigationPolicy};
use crate::snapshot::ContentSnapshot;

/// Whether supplementary objects are served from the host cache or fetched
/// from origin servers by the participant (paper §3.1 steps 7/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Rewrite cached objects to agent URLs; participants fetch from the
    /// host browser.
    Cache,
    /// Keep absolute origin URLs; participants fetch from the Web.
    NonCache,
}

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Object-serving mode.
    pub cache_mode: CacheMode,
    /// Polling interval hint delivered to snippets (the paper used 1 s).
    pub poll_interval: SimDuration,
    /// Navigation policy for participant actions.
    pub nav_policy: NavigationPolicy,
    /// Interaction policy.
    pub interaction_policy: InteractionPolicy,
    /// Sign responses with an `X-RCB-MAC` header so snippets can verify
    /// content integrity end to end. The paper leaves this to future work
    /// ("using JavaScript to compute an HMAC for a response ... is
    /// inefficient, especially if the size of the response is large",
    /// §3.4) — in native code the cost is a few microseconds, so this
    /// reproduction ships it as an opt-in extension.
    pub authenticate_responses: bool,
    /// Ceiling on how long the TCP deployment parks a long-poll (a poll
    /// carrying an `lp=<ms>` parameter) before answering with the empty
    /// reply. The client's requested wait is capped by this, so a
    /// misbehaving snippet cannot hold connections open indefinitely.
    /// Long-polling itself is opt-in per request; polls without `lp`
    /// answer immediately as the paper specifies.
    pub park_timeout: SimDuration,
    /// How long the participant-side client waits on a blocking read
    /// before treating the connection as dead (the one knob behind every
    /// `rcb_http::client` read timeout on the TCP deployment path).
    pub client_read_timeout: SimDuration,
    /// Path prefix every agent URL of this session lives under — `""`
    /// for the classic single-session deployment, `"/s/{sid}"` when a
    /// [`crate::router::SessionRouter`] hosts many sessions in one
    /// process. The prefix is part of every minted object URL (and so
    /// covered by the object token) and of every snippet poll target
    /// (and so covered by the request HMAC): a request cannot be replayed
    /// into another session without failing authentication.
    pub path_prefix: String,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            cache_mode: CacheMode::Cache,
            poll_interval: SimDuration::from_secs(1),
            nav_policy: NavigationPolicy::Immediate,
            interaction_policy: InteractionPolicy::AllParticipants,
            authenticate_responses: false,
            park_timeout: SimDuration::from_secs(25),
            client_read_timeout: SimDuration::from_secs(10),
            path_prefix: String::new(),
        }
    }
}

/// A host-side effect the world must carry out on the agent's behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEffect {
    /// Navigate the host browser to an absolute URL.
    Navigate(String),
    /// Submit the named form on the host page with the given fields.
    SubmitForm {
        /// Form element id on the host page.
        form: String,
        /// Field name-value pairs (already merged into the host DOM).
        fields: Vec<(String, String)>,
    },
    /// A click on a non-navigation element (dispatched to the host app).
    Click {
        /// Element id on the host page.
        target: String,
    },
}

/// Result of handling one request.
#[derive(Debug)]
pub struct AgentOutcome {
    /// The HTTP response to send back.
    pub response: Response,
    /// Host-side effects to execute (empty for most requests).
    pub effects: Vec<HostEffect>,
}

/// The participants a session has seen: the pids of authenticated polls,
/// sharded across independently locked sets, so concurrent polls from
/// different participants never contend on one lock.
///
/// Participant ids are spread across [`ParticipantShards::SHARDS`] sets by
/// a multiplicative hash; each poll touches exactly one shard lock, held
/// only for the set operation (never across content generation or I/O).
/// Both deployments keep their participants here, through the shared
/// request path.
#[derive(Debug)]
pub struct ParticipantShards {
    shards: Vec<Mutex<HashSet<u64>>>,
}

impl ParticipantShards {
    /// Number of independent locks. 16 is far beyond the core counts a
    /// host browser machine has, so two concurrent polls rarely collide.
    pub const SHARDS: usize = 16;

    /// Creates an empty shard set.
    pub fn new() -> ParticipantShards {
        ParticipantShards {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(HashSet::new()))
                .collect(),
        }
    }

    fn shard(&self, pid: u64) -> std::sync::MutexGuard<'_, HashSet<u64>> {
        // Fibonacci hashing spreads sequential pids across shards.
        let h = pid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.shards[(h >> 60) as usize % Self::SHARDS]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records an authenticated poll from `pid`: a participant on first
    /// contact, nothing after.
    pub fn insert(&self, pid: u64) {
        self.shard(pid).insert(pid);
    }

    /// Removes a participant (left the session).
    pub fn remove(&self, pid: u64) {
        self.shard(pid).remove(&pid);
    }

    /// Total participants across all shards.
    pub fn count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }
}

impl Default for ParticipantShards {
    fn default() -> Self {
        ParticipantShards::new()
    }
}

/// Counters of the agent's write-path work. Request counters live in the
/// shared request path: see [`RcbAgent::request_stats`].
#[derive(Debug, Default)]
pub struct AgentStats {
    /// Content generations performed (cache hits excluded).
    pub generations: Counter,
    /// Generated-content cache entries evicted by the generation bound.
    pub content_evictions: Counter,
    /// Timestamp entries evicted by the generation bound.
    pub timestamp_evictions: Counter,
    /// Wall-clock generation costs (the paper's M5 samples).
    pub m5: Histogram,
}

/// How many DOM generations the agent keeps generated content and
/// timestamps for: the live generation plus one predecessor, so a
/// participant mid-flight on the previous version can still be served
/// while memory stays bounded no matter how often the host page mutates.
pub const LIVE_GENERATIONS: usize = 2;

/// RCB-Agent.
pub struct RcbAgent {
    /// Configuration (mode, interval, policies).
    pub config: AgentConfig,
    /// The session's Fig.-2 request path: key, static prefabs,
    /// participants and request counters. A concurrent host clones the
    /// `Arc` and serves through the same path.
    fig2: Arc<RequestPath>,
    /// The URL↔key mapping table, behind its own leaf mutex so pipelined
    /// content generation (running outside the host lock) can mint keys
    /// concurrently with sequential agent work. Lock ordering: this is a
    /// leaf — never held while acquiring any other lock.
    mapping: Arc<Mutex<MappingTable>>,
    /// Generated content cached per (dom_version, mode) — "the generated
    /// XML format response content is reusable for multiple participant
    /// browsers" (§4.1.2).
    content_cache: HashMap<(u64, bool), Arc<GeneratedContent>>,
    /// The snapshot [`RcbAgent::handle_request`] answers from, rebuilt on
    /// the first request after the host DOM moved.
    snapshot: Option<Arc<ContentSnapshot>>,
    /// The latest participant pointer position, pending broadcast in the
    /// next content update. A later position supersedes an earlier one,
    /// so moves on an unchanged page never pile up.
    pointer: Option<UserAction>,
    /// Pending participant actions awaiting host confirmation (under
    /// [`NavigationPolicy::HostConfirm`]), queued by
    /// [`RcbAgent::merge_poll_actions`]. The concurrent host queues none:
    /// it has nothing to carry effects out with, and counts them dropped.
    pub pending_confirmation: Vec<(u64, HostEffect)>,
    /// The dom_version → document-timestamp map, bounded to
    /// [`LIVE_GENERATIONS`] entries.
    timestamps: HashMap<u64, u64>,
    /// DOM versions currently retained (front = oldest); minting a
    /// timestamp for a new version evicts beyond [`LIVE_GENERATIONS`].
    live_versions: VecDeque<u64>,
    /// Highest timestamp minted so far (timestamps must be strictly
    /// monotonic even when two DOM versions land in the same millisecond).
    last_timestamp: u64,
    /// Experiment counters.
    pub stats: AgentStats,
}

impl RcbAgent {
    /// Creates an agent with the given key and configuration.
    pub fn new(key: SessionKey, config: AgentConfig) -> RcbAgent {
        RcbAgent {
            fig2: Arc::new(RequestPath::new(key, &config)),
            config,
            mapping: Arc::new(Mutex::new(MappingTable::new())),
            content_cache: HashMap::new(),
            snapshot: None,
            pointer: None,
            pending_confirmation: Vec::new(),
            timestamps: HashMap::new(),
            live_versions: VecDeque::new(),
            last_timestamp: 0,
            stats: AgentStats::default(),
        }
    }

    /// The session key (shared out of band with participants).
    pub fn key(&self) -> &SessionKey {
        self.fig2.key()
    }

    /// The shared request path (a concurrent host serves through it).
    pub(crate) fn request_path(&self) -> &Arc<RequestPath> {
        &self.fig2
    }

    /// Number of participants that have polled and not left.
    pub fn participant_count(&self) -> usize {
        self.fig2.participants.count()
    }

    /// Removes a participant (left the session).
    pub fn remove_participant(&mut self, id: u64) {
        self.fig2.participants.remove(id);
    }

    /// The request counters — the same [`TcpHostStats`] the concurrent
    /// host reports.
    pub fn request_stats(&self) -> TcpHostStats {
        self.fig2.stats()
    }

    /// The document timestamp for the host's current DOM version, minting
    /// one if this version has not been seen yet (timestamps are
    /// "milliseconds since midnight of January 1, 1970", §4.1.1).
    pub fn current_doc_time(&mut self, host: &Browser, now: SimTime) -> u64 {
        let version = host.dom_version();
        if let Some(&t) = self.timestamps.get(&version) {
            return t;
        }
        let t = now.as_document_timestamp().max(self.last_timestamp + 1);
        self.last_timestamp = t;
        self.timestamps.insert(version, t);
        self.live_versions.push_back(version);
        while self.live_versions.len() > LIVE_GENERATIONS {
            let stale = self.live_versions.pop_front().expect("length just checked");
            if self.timestamps.remove(&stale).is_some() {
                self.stats.timestamp_evictions.incr();
            }
            for mode in [true, false] {
                if self.content_cache.remove(&(stale, mode)).is_some() {
                    self.stats.content_evictions.incr();
                }
            }
        }
        t
    }

    /// Number of generated-content cache entries currently retained.
    pub fn content_cache_len(&self) -> usize {
        self.content_cache.len()
    }

    /// Number of DOM-version timestamps currently retained.
    pub fn timestamps_len(&self) -> usize {
        self.timestamps.len()
    }

    /// The shared URL↔key mapping table (snapshot builders and pipelined
    /// generation clone the `Arc` and lock it briefly as a leaf).
    pub fn mapping(&self) -> &Arc<Mutex<MappingTable>> {
        &self.mapping
    }

    /// Cached generated content for `(version, mode)`, if retained.
    pub fn cached_content(&self, version: u64, mode: CacheMode) -> Option<Arc<GeneratedContent>> {
        self.content_cache
            .get(&(version, matches!(mode, CacheMode::Cache)))
            .cloned()
    }

    /// Drains the pending pointer position into its wire encoding
    /// (captured by a generation about to run).
    pub fn take_host_actions(&mut self) -> String {
        UserAction::encode_batch(self.pointer.take().as_slice())
    }

    /// Admits content generated outside the agent (the pipelined path:
    /// prepared under the host lock, finished without it) into the
    /// generated-content cache, and accounts the generation in the stats.
    /// The cache insert is skipped when `version` has already aged out of
    /// the live-generation window — a stale insert would never be evicted.
    pub fn admit_generated(
        &mut self,
        version: u64,
        mode: CacheMode,
        content: Arc<GeneratedContent>,
    ) {
        self.stats.generations.incr();
        self.stats.m5.record(content.generation_cost);
        if self.timestamps.contains_key(&version) {
            self.content_cache
                .insert((version, matches!(mode, CacheMode::Cache)), content);
        }
    }

    /// Handles one HTTP request from a participant browser (Fig. 2): the
    /// sequential driver of the shared request path.
    pub fn handle_request(
        &mut self,
        req: &Request,
        host: &mut Browser,
        now: SimTime,
    ) -> AgentOutcome {
        let fig2 = Arc::clone(&self.fig2);
        let mut sequential = Sequential {
            agent: self,
            host,
            now,
            effects: Vec::new(),
        };
        let response = match fig2.handle(req, &mut sequential) {
            Answer::Reply(response) => response,
            // Nothing here can hold a request open: a long-poll is
            // answered at once with its timeout reply.
            Answer::Park(_) => fig2.timeout_reply(),
        };
        AgentOutcome {
            response,
            effects: sequential.effects,
        }
    }

    /// The snapshot of the host's current DOM version: plan and finish run
    /// inline when the DOM moved since the last one, carrying the
    /// previous snapshot's objects forward. Generation is accounted by
    /// [`RcbAgent::admit_generated`], so the request that regenerates is
    /// the one a world charges M5 to.
    fn snapshot_at(&mut self, host: &Browser, now: SimTime) -> Result<Arc<ContentSnapshot>> {
        if let Some(snap) = self
            .snapshot
            .as_ref()
            .filter(|s| s.dom_version == host.dom_version())
        {
            return Ok(Arc::clone(snap));
        }
        let prev = self.snapshot.take();
        let built = ContentSnapshot::build(self, host, now, prev.as_deref());
        self.snapshot = built.as_ref().ok().cloned().or(prev);
        built
    }

    /// The initial HTML page carrying Ajax-Snippet (paper §3.1 step 2).
    ///
    /// The head contains the snippet script element (kept across every
    /// later content update); the body shows the key-entry form a
    /// participant fills with the out-of-band secret (§3.4).
    pub fn initial_page(&self) -> String {
        self.fig2.initial_page_html()
    }

    /// Applies a batch of piggybacked participant actions to the host side
    /// (the write half of a poll), returning the host effects the world
    /// must carry out now. Under [`NavigationPolicy::HostConfirm`] the
    /// effects wait in [`RcbAgent::pending_confirmation`] instead, for
    /// [`RcbAgent::decide_pending`].
    pub fn merge_poll_actions(
        &mut self,
        pid: u64,
        actions: Vec<UserAction>,
        host: &mut Browser,
    ) -> Vec<HostEffect> {
        let effects = self.merge_actions(pid, actions, host);
        match self.config.nav_policy {
            NavigationPolicy::Immediate => effects,
            NavigationPolicy::HostConfirm => {
                let pending = effects.into_iter().map(|effect| (pid, effect));
                self.pending_confirmation.extend(pending);
                Vec::new()
            }
        }
    }

    /// Applies the actions the interaction policy allows to the host
    /// side, returning every host effect they ask for, before any
    /// navigation policy. This is the only poll work that needs mutable
    /// host access; the concurrent host calls it under the host lock
    /// while read-only polls proceed from a published snapshot.
    pub(crate) fn merge_actions(
        &mut self,
        pid: u64,
        actions: Vec<UserAction>,
        host: &mut Browser,
    ) -> Vec<HostEffect> {
        if !self.config.interaction_policy.allows(pid) {
            return Vec::new();
        }
        actions
            .into_iter()
            .filter_map(|action| self.merge_action(action, host))
            .collect()
    }

    /// Applies one piggybacked participant action to the host side,
    /// returning the host effect it asks for, if any.
    fn merge_action(&mut self, action: UserAction, host: &mut Browser) -> Option<HostEffect> {
        match action {
            UserAction::FormInput { form, field, value } => {
                // Merge the field value into the corresponding form on the
                // host browser (the form co-filling path, §4.1.1).
                merge_field(host, &form, &field, value);
                None
            }
            UserAction::FormSubmit { form, fields } => {
                // Merge all fields, then hand the submission on.
                for (field, value) in &fields {
                    merge_field(host, &form, field, value.clone());
                }
                Some(HostEffect::SubmitForm { form, fields })
            }
            UserAction::Click { target } => Some(HostEffect::Click { target }),
            UserAction::Navigate { url } => Some(HostEffect::Navigate(url)),
            UserAction::MouseMove { x, y } => {
                // Mirror to the other users via the next content update;
                // only the latest position matters.
                self.pointer = Some(UserAction::MouseMove { x, y });
                None
            }
        }
    }

    /// Host decision on the oldest pending action (HostConfirm policy).
    pub fn decide_pending(&mut self, decision: crate::policy::HostDecision) -> Option<HostEffect> {
        if self.pending_confirmation.is_empty() {
            return None;
        }
        let (_, effect) = self.pending_confirmation.remove(0);
        match decision {
            crate::policy::HostDecision::Approve => Some(effect),
            crate::policy::HostDecision::Reject => None,
        }
    }
}

/// Sets field `field` of form `form` on the host page to `value`. Only a
/// real change moves the DOM version: a missing form or field, or the
/// value the field already holds, leaves the page as it was, so no
/// regeneration runs and no parked poll wakes for unchanged content.
fn merge_field(host: &mut Browser, form: &str, field: &str, value: String) {
    let Some(doc) = host.doc.as_ref() else {
        return;
    };
    let input = rcb_html::query::element_by_id(doc, doc.root(), form).and_then(|form| {
        doc.descendants(form)
            .into_iter()
            .find(|&input| doc.get_attr(input, "name") == Some(field))
    });
    match input {
        Some(input) if doc.get_attr(input, "value") != Some(value.as_str()) => {
            let _ = host.mutate_dom(|doc| doc.set_attr(input, "value", value));
        }
        _ => {}
    }
}

/// The sequential deployment of the shared request path: exclusive
/// access to the agent and the host browser for one request.
struct Sequential<'a> {
    agent: &'a mut RcbAgent,
    host: &'a mut Browser,
    now: SimTime,
    effects: Vec<HostEffect>,
}

impl Deployment for Sequential<'_> {
    /// Merges with exclusive access and keeps the host effects for the
    /// world to run.
    fn merge(&mut self, pid: u64, actions: Vec<UserAction>) {
        self.effects = self.agent.merge_poll_actions(pid, actions, self.host);
    }

    fn snapshot(&mut self) -> Result<Arc<ContentSnapshot>> {
        self.agent.snapshot_at(self.host, self.now)
    }
}

/// Splits a poll body into the carried content timestamp and actions.
///
/// Wire form: first line `t=<millis>`, remaining lines the action batch.
pub fn parse_poll_body(body: &str) -> (u64, Vec<UserAction>) {
    let mut lines = body.lines();
    let t = lines
        .next()
        .and_then(|l| l.strip_prefix("t="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let rest: Vec<&str> = lines.collect();
    let actions = UserAction::decode_batch(&rest.join("\n")).unwrap_or_default();
    (t, actions)
}

/// Builds a poll body from a timestamp and pending actions.
pub fn build_poll_body(doc_time: u64, actions: &[UserAction]) -> Vec<u8> {
    let mut s = format!("t={doc_time}");
    let batch = UserAction::encode_batch(actions);
    if !batch.is_empty() {
        s.push('\n');
        s.push_str(&batch);
    }
    s.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::sign_request;
    use rcb_browser::BrowserKind;
    use rcb_http::Status;
    use rcb_origin::OriginRegistry;
    use rcb_sim::link::Pipe;
    use rcb_sim::profiles::NetProfile;
    use rcb_url::Url;
    use rcb_util::DetRng;

    fn agent() -> RcbAgent {
        RcbAgent::new(
            SessionKey::generate_deterministic(&mut DetRng::new(3)),
            AgentConfig::default(),
        )
    }

    fn loaded_host(site: &str) -> Browser {
        let mut origins = OriginRegistry::with_alexa20();
        let profile = NetProfile::lan();
        let mut pipe = Pipe::new(profile.host_origin);
        let mut b = Browser::new(BrowserKind::Firefox);
        b.navigate(
            &Url::parse(&format!("http://{site}/")).unwrap(),
            &mut origins,
            &mut pipe,
            &profile,
            SimTime::ZERO,
        )
        .unwrap();
        b
    }

    fn signed_poll(agent: &RcbAgent, pid: u64, t: u64, actions: &[UserAction]) -> Request {
        let mut req = Request::post(format!("/poll?p={pid}"), build_poll_body(t, actions));
        sign_request(agent.key(), &mut req);
        req
    }

    #[test]
    fn initial_page_carries_snippet() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let out = a.handle_request(&Request::get("/"), &mut host, SimTime::ZERO);
        assert!(out.response.status.is_success());
        let body = out.response.body_str();
        assert!(body.contains("id=\"ajax-snippet\""));
        assert!(body.contains("type=\"password\""));
        assert_eq!(a.request_stats().connections, 1);
    }

    #[test]
    fn unauthenticated_poll_rejected() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let req = Request::post("/poll?p=1", build_poll_body(0, &[]));
        let out = a.handle_request(&req, &mut host, SimTime::ZERO);
        assert_eq!(out.response.status, Status::UNAUTHORIZED);
        assert_eq!(a.request_stats().auth_failures, 1);
        assert!(a.participant_count() == 0);
    }

    #[test]
    fn first_poll_delivers_content_second_is_empty() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let now = SimTime::from_secs(1);
        let out = a.handle_request(&signed_poll(&a, 1, 0, &[]), &mut host, now);
        assert_eq!(
            out.response.content_type().as_deref(),
            Some("application/xml")
        );
        assert!(!out.response.body.is_empty());
        let nc = rcb_xml::parse_new_content(&out.response.body_str())
            .unwrap()
            .unwrap();
        // Participant acknowledges the timestamp on the next poll.
        let out2 = a.handle_request(&signed_poll(&a, 1, nc.doc_time, &[]), &mut host, now);
        assert!(out2.response.body.is_empty());
        assert_eq!(a.request_stats().polls_with_content, 1);
        assert_eq!(a.request_stats().polls_empty, 1);
    }

    #[test]
    fn dom_change_triggers_new_content() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let t1 = SimTime::from_secs(1);
        let out = a.handle_request(&signed_poll(&a, 1, 0, &[]), &mut host, t1);
        let nc = rcb_xml::parse_new_content(&out.response.body_str())
            .unwrap()
            .unwrap();
        // Host page mutates (Ajax on the host side).
        host.mutate_dom(|doc| {
            let body = doc.body().unwrap();
            let div = doc.create_element("div");
            doc.append_child(body, div).unwrap();
        })
        .unwrap();
        let t2 = SimTime::from_secs(5);
        let out2 = a.handle_request(&signed_poll(&a, 1, nc.doc_time, &[]), &mut host, t2);
        let nc2 = rcb_xml::parse_new_content(&out2.response.body_str())
            .unwrap()
            .unwrap();
        assert!(nc2.doc_time > nc.doc_time);
    }

    #[test]
    fn content_is_generated_once_for_multiple_participants() {
        let mut a = agent();
        let mut host = loaded_host("live.com");
        let now = SimTime::from_secs(1);
        for pid in 1..=5 {
            let out = a.handle_request(&signed_poll(&a, pid, 0, &[]), &mut host, now);
            assert!(!out.response.body.is_empty());
        }
        assert_eq!(a.stats.generations.get(), 1, "reused for 5 participants");
        assert_eq!(a.participant_count(), 5);
    }

    #[test]
    fn form_input_merges_into_host_dom() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let v0 = host.dom_version();
        let action = UserAction::FormInput {
            form: "q".into(),
            field: "q".into(),
            value: "macbook air".into(),
        };
        a.handle_request(&signed_poll(&a, 1, 0, &[action]), &mut host, SimTime::ZERO);
        let doc = host.doc.as_ref().unwrap();
        let form = rcb_html::query::element_by_id(doc, doc.root(), "q").unwrap();
        let fields = rcb_html::query::form_fields(doc, form);
        assert!(fields.contains(&("q".to_string(), "macbook air".to_string())));
        assert!(host.dom_version() > v0, "merge bumps the DOM version");
    }

    #[test]
    fn navigation_effect_respects_policy() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let nav = UserAction::Navigate {
            url: "http://apple.com/".into(),
        };
        let out = a.handle_request(
            &signed_poll(&a, 1, 0, std::slice::from_ref(&nav)),
            &mut host,
            SimTime::ZERO,
        );
        assert_eq!(
            out.effects,
            vec![HostEffect::Navigate("http://apple.com/".into())]
        );

        // HostConfirm queues instead.
        let mut confirm_agent = RcbAgent::new(
            SessionKey::generate_deterministic(&mut DetRng::new(4)),
            AgentConfig {
                nav_policy: NavigationPolicy::HostConfirm,
                ..AgentConfig::default()
            },
        );
        let out2 = confirm_agent.handle_request(
            &signed_poll(&confirm_agent, 1, 0, &[nav]),
            &mut host,
            SimTime::ZERO,
        );
        assert!(out2.effects.is_empty());
        assert_eq!(confirm_agent.pending_confirmation.len(), 1);
        let approved = confirm_agent.decide_pending(crate::policy::HostDecision::Approve);
        assert_eq!(
            approved,
            Some(HostEffect::Navigate("http://apple.com/".into()))
        );
    }

    #[test]
    fn view_only_policy_drops_actions() {
        let mut a = RcbAgent::new(
            SessionKey::generate_deterministic(&mut DetRng::new(5)),
            AgentConfig {
                interaction_policy: InteractionPolicy::ViewOnly,
                ..AgentConfig::default()
            },
        );
        let mut host = loaded_host("google.com");
        let nav = UserAction::Navigate {
            url: "http://apple.com/".into(),
        };
        let out = a.handle_request(&signed_poll(&a, 1, 0, &[nav]), &mut host, SimTime::ZERO);
        assert!(out.effects.is_empty());
        assert!(a.pending_confirmation.is_empty());
    }

    #[test]
    fn cache_mode_objects_served_end_to_end() {
        let mut a = agent();
        let mut host = loaded_host("apple.com");
        let out = a.handle_request(&signed_poll(&a, 1, 0, &[]), &mut host, SimTime::ZERO);
        let nc = rcb_xml::parse_new_content(&out.response.body_str())
            .unwrap()
            .unwrap();
        let rcb_xml::TopLevel::Body(body) = &nc.top else {
            panic!("expected body page");
        };
        // Pull an agent URL out of the synchronized content and fetch it.
        let idx = body.inner_html.find("/cache/").expect("agent URL present");
        let tail = &body.inner_html[idx..];
        let url = tail.split('"').next().unwrap().to_string();
        let resp = a
            .handle_request(&Request::get(url.clone()), &mut host, SimTime::ZERO)
            .response;
        assert!(resp.status.is_success(), "object fetch failed for {url}");
        assert!(!resp.body.is_empty());
        assert_eq!(a.request_stats().object_requests, 1);

        // Tampered token is rejected.
        let bad = url.replace("?k=", "?k=0");
        let resp2 = a
            .handle_request(&Request::get(bad), &mut host, SimTime::ZERO)
            .response;
        assert_eq!(resp2.status, Status::UNAUTHORIZED);
    }

    #[test]
    fn mouse_moves_are_broadcast_via_user_actions() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        // Participant 1 syncs first, then reports a mouse move on an
        // up-to-date poll (so the move is queued, not consumed by p1's own
        // content generation).
        let out0 = a.handle_request(&signed_poll(&a, 1, 0, &[]), &mut host, SimTime::ZERO);
        let nc0 = rcb_xml::parse_new_content(&out0.response.body_str())
            .unwrap()
            .unwrap();
        let mv = UserAction::MouseMove { x: 7, y: 9 };
        let quiet = a.handle_request(
            &signed_poll(&a, 1, nc0.doc_time, &[mv]),
            &mut host,
            SimTime::ZERO,
        );
        assert!(quiet.response.body.is_empty());
        host.mutate_dom(|_| {}).unwrap();
        let out = a.handle_request(
            &signed_poll(&a, 2, 0, &[]),
            &mut host,
            SimTime::from_secs(2),
        );
        let nc = rcb_xml::parse_new_content(&out.response.body_str())
            .unwrap()
            .unwrap();
        assert!(nc.user_actions.contains("mouse|7|9"));
    }

    #[test]
    fn unknown_paths_rejected() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let out = a.handle_request(&Request::get("/favicon.ico"), &mut host, SimTime::ZERO);
        assert_eq!(out.response.status, Status::NOT_FOUND);
    }

    #[test]
    fn poll_without_participant_id_is_rejected() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        // Correctly signed but missing the `p` parameter entirely: before
        // the fix this collapsed into a shared pid-0 participant.
        let mut missing = Request::post("/poll", build_poll_body(0, &[]));
        sign_request(a.key(), &mut missing);
        let out = a.handle_request(&missing, &mut host, SimTime::ZERO);
        assert_eq!(out.response.status, Status::BAD_REQUEST);

        // Malformed (non-numeric) id is rejected the same way.
        let mut malformed = Request::post("/poll?p=alice", build_poll_body(0, &[]));
        sign_request(a.key(), &mut malformed);
        let out2 = a.handle_request(&malformed, &mut host, SimTime::ZERO);
        assert_eq!(out2.response.status, Status::BAD_REQUEST);

        assert!(
            a.participant_count() == 0,
            "no phantom pid-0 participant registered"
        );
        assert_eq!(a.request_stats().bad_requests, 2);
        assert_eq!(a.request_stats().polls_with_content, 0);
        assert_eq!(a.request_stats().polls_empty, 0);
    }

    #[test]
    fn generation_caches_stay_bounded_across_many_versions() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        for i in 0..1_200u64 {
            host.mutate_dom(|_| {}).unwrap();
            let now = SimTime::from_millis(i);
            ContentSnapshot::build(&mut a, &host, now, None).unwrap();
            assert!(
                a.timestamps_len() <= LIVE_GENERATIONS,
                "timestamps unbounded at iteration {i}"
            );
            assert!(
                a.content_cache_len() <= LIVE_GENERATIONS,
                "content cache unbounded at iteration {i}"
            );
        }
        assert_eq!(
            a.stats.timestamp_evictions.get(),
            1_200 - LIVE_GENERATIONS as u64
        );
        assert!(a.stats.content_evictions.get() > 0);
    }

    #[test]
    fn predecessor_generation_content_stays_cached() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        ContentSnapshot::build(&mut a, &host, SimTime::from_millis(1), None).unwrap();
        host.mutate_dom(|_| {}).unwrap();
        ContentSnapshot::build(&mut a, &host, SimTime::from_millis(2), None).unwrap();
        // Both the live generation and its predecessor are retained...
        assert_eq!(a.content_cache_len(), 2);
        assert_eq!(a.timestamps_len(), 2);
        // ...and a third generation evicts only the oldest.
        host.mutate_dom(|_| {}).unwrap();
        ContentSnapshot::build(&mut a, &host, SimTime::from_millis(3), None).unwrap();
        assert_eq!(a.content_cache_len(), 2);
        assert_eq!(a.stats.content_evictions.get(), 1);
    }

    #[test]
    fn participant_shards_isolate_and_count() {
        let shards = ParticipantShards::new();
        for pid in 1..=64u64 {
            shards.insert(pid);
            shards.insert(pid);
        }
        assert_eq!(shards.count(), 64);
        shards.remove(7);
        assert_eq!(shards.count(), 63);
        // Removing a pid that left changes nothing; it can come back.
        shards.remove(7);
        assert_eq!(shards.count(), 63);
        shards.insert(7);
        assert_eq!(shards.count(), 64);
    }

    #[test]
    fn poll_body_roundtrip() {
        let actions = vec![
            UserAction::Click {
                target: "#x".into(),
            },
            UserAction::MouseMove { x: 1, y: 2 },
        ];
        let body = build_poll_body(777, &actions);
        let (t, decoded) = parse_poll_body(&String::from_utf8(body).unwrap());
        assert_eq!(t, 777);
        assert_eq!(decoded, actions);
    }
}
