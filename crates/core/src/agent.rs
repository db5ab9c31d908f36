//! RCB-Agent: the HTTP server inside the host browser.
//!
//! Paper Fig. 2 has the agent answer three request types: the initial
//! page (`GET /`), cached objects (`GET /cache/{key}`), and Ajax polls
//! (`POST /poll`) that merge piggybacked actions and are answered with new
//! content or an empty reply. The procedure itself is the session's
//! Fig.-2 request path, which every host serves through
//! [`crate::tcp`]'s session host. [`RcbAgent`] is its write half: it
//! merges participant actions into the host page, returning the host
//! effects they ask for (navigations, form submissions, clicks), mints
//! document timestamps, and keeps the URL↔key mapping table, its newest
//! generated content and the generation stats that content snapshots are
//! built from.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use rcb_browser::{Browser, UserAction};
use rcb_cache::MappingTable;
use rcb_crypto::SessionKey;
use rcb_util::{Counter, Histogram, SimDuration, SimTime};

use crate::content::GeneratedContent;
use crate::policy::{InteractionPolicy, NavigationPolicy};

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

/// The participants a session has seen: the pids of authenticated polls,
/// sharded across independently locked sets, so concurrent polls from
/// different participants never contend on one lock.
///
/// Participant ids are spread across [`ParticipantShards::SHARDS`] sets by
/// a multiplicative hash; each poll touches exactly one shard lock, held
/// only for the set operation (never across content generation or I/O).
/// A session's request path keeps its participants here.
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
/// session's request path ([`crate::tcp::TcpHostStats`]).
#[derive(Debug)]
pub struct AgentStats {
    /// Content generations performed.
    pub generations: Counter,
    /// Top-level body children copied from a base generation, summed
    /// over generations.
    pub children_reused: Counter,
    /// Top-level body children cloned and generated afresh, summed over
    /// generations.
    pub children_regenerated: Counter,
    /// Wall-clock generation costs (the paper's M5 samples), the most
    /// recent [`SAMPLE_LOG`] of them.
    pub m5: Histogram,
}

impl Default for AgentStats {
    fn default() -> Self {
        AgentStats {
            generations: Counter::new(),
            children_reused: Counter::new(),
            children_regenerated: Counter::new(),
            m5: Histogram::recent(SAMPLE_LOG),
        }
    }
}

/// How many of its most recent samples a long-lived per-operation log
/// keeps (the agent's M5, the snippet's M6): enough for any measurement
/// phase, bounded for a host or client that runs for days.
pub const SAMPLE_LOG: usize = 16_384;

/// RCB-Agent's write path (see module docs).
pub struct RcbAgent {
    /// Configuration (mode, interval, policies).
    pub config: AgentConfig,
    /// The session key object URLs are minted under.
    key: SessionKey,
    /// The URL↔key mapping table, behind its own leaf mutex so pipelined
    /// content generation (running outside the host lock) can mint keys
    /// while merges proceed. Lock ordering: this is a leaf — never held
    /// while acquiring any other lock.
    mapping: Arc<Mutex<MappingTable>>,
    /// The newest generation admitted, `(dom_version, mode, content)`:
    /// the base the next plan copies unchanged subtrees from. Older
    /// generations live on only in the snapshots that hold them.
    newest: Option<(u64, CacheMode, Arc<GeneratedContent>)>,
    /// The latest participant pointer position, pending broadcast in the
    /// next content update. A later position supersedes an earlier one,
    /// so moves on an unchanged page never pile up.
    pointer: Option<UserAction>,
    /// The DOM version last planned and the document timestamp minted for
    /// it. A session host skips planning a version held here, so one
    /// generation runs per version; a failed one is un-planned.
    planned: Option<(u64, u64)>,
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
            config,
            key,
            mapping: Arc::new(Mutex::new(MappingTable::new())),
            newest: None,
            pointer: None,
            planned: None,
            last_timestamp: 0,
            stats: AgentStats::default(),
        }
    }

    /// The session key (shared out of band with participants).
    pub fn key(&self) -> &SessionKey {
        &self.key
    }

    /// The document timestamp for the host's current DOM version, which
    /// this plans: the one minted when it was planned last, or a new one
    /// (timestamps are "milliseconds since midnight of January 1, 1970",
    /// §4.1.1).
    pub fn current_doc_time(&mut self, host: &Browser, now: SimTime) -> u64 {
        let version = host.dom_version();
        match self.planned {
            Some((planned, t)) if planned == version => t,
            _ => {
                let t = now.as_document_timestamp().max(self.last_timestamp + 1);
                self.last_timestamp = t;
                self.planned = Some((version, t));
                t
            }
        }
    }

    /// Whether `version` is the DOM version planned last.
    pub(crate) fn planned(&self, version: u64) -> bool {
        self.planned.is_some_and(|(planned, _)| planned == version)
    }

    /// Forgets that `version` was planned, after its generation failed,
    /// so the next write plans it again. A newer plan is left alone.
    pub(crate) fn unplan(&mut self, version: u64) {
        if self.planned(version) {
            self.planned = None;
        }
    }

    /// Number of generated contents retained: the newest, once one is
    /// admitted.
    pub fn content_cache_len(&self) -> usize {
        usize::from(self.newest.is_some())
    }

    /// Number of DOM-version timestamps retained: the planned one.
    pub fn timestamps_len(&self) -> usize {
        usize::from(self.planned.is_some())
    }

    /// The shared URL↔key mapping table (snapshot builders and pipelined
    /// generation clone the `Arc` and lock it briefly as a leaf).
    pub fn mapping(&self) -> &Arc<Mutex<MappingTable>> {
        &self.mapping
    }

    /// The newest admitted generation, when it is for `mode`: the base a
    /// plan copies unchanged subtrees from.
    pub(crate) fn newest_content(&self, mode: CacheMode) -> Option<Arc<GeneratedContent>> {
        let (_, newest_mode, content) = self.newest.as_ref()?;
        (*newest_mode == mode).then(|| Arc::clone(content))
    }

    /// Drains the pending pointer position into its wire encoding
    /// (captured by a generation about to run).
    pub fn take_host_actions(&mut self) -> String {
        UserAction::encode_batch(self.pointer.take().as_slice())
    }

    /// Admits content generated outside the agent (the pipelined path:
    /// prepared under the host lock, finished without it) as the newest
    /// generation, and accounts the generation in the stats. A late admit
    /// of an older version than the newest leaves the newest in place.
    pub fn admit_generated(
        &mut self,
        version: u64,
        mode: CacheMode,
        content: Arc<GeneratedContent>,
    ) {
        self.stats.generations.incr();
        self.stats
            .children_reused
            .add(content.children_reused as u64);
        self.stats
            .children_regenerated
            .add(content.children_regenerated as u64);
        self.stats.m5.record(content.generation_cost);
        let older = self.newest.as_ref().is_some_and(|(v, ..)| *v > version);
        if !older {
            self.newest = Some((version, mode, content));
        }
    }

    /// Applies a batch of piggybacked participant actions to the host side
    /// (the write half of a poll): the actions the interaction policy
    /// allows are merged, and every host effect they ask for is returned,
    /// whatever the navigation policy — the caller that carries effects
    /// out applies it. This is the only poll work that needs mutable host
    /// access; a session host calls it under the host lock while
    /// read-only polls proceed from a published snapshot.
    pub fn merge_poll_actions(
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
    use crate::router::tests::{one_session, respond};
    use crate::router::SessionHandle;
    use crate::snapshot::ContentSnapshot;
    use rcb_browser::BrowserKind;
    use rcb_http::server::Handler;
    use rcb_http::{Request, Status};
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

    /// A session hosting `site` with this seed's key and `config`, and
    /// the handler every engine serves it through.
    fn session_with(site: &str, seed: u64, config: AgentConfig) -> (SessionHandle, Handler) {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(seed));
        let (session, handler, _) = one_session(loaded_host(site), key, config);
        (session, handler)
    }

    fn session(site: &str) -> (SessionHandle, Handler) {
        session_with(site, 3, AgentConfig::default())
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

    fn signed_poll(key: &SessionKey, pid: u64, t: u64, actions: &[UserAction]) -> Request {
        let mut req = Request::post(format!("/poll?p={pid}"), build_poll_body(t, actions));
        sign_request(key, &mut req);
        req
    }

    #[test]
    fn initial_page_carries_snippet() {
        let (a, handler) = session("google.com");
        let response = respond(&handler, Request::get("/"));
        assert!(response.status.is_success());
        let body = response.body_str();
        assert!(body.contains("id=\"ajax-snippet\""));
        assert!(body.contains("type=\"password\""));
        assert_eq!(a.stats().connections, 1);
    }

    #[test]
    fn unauthenticated_poll_rejected() {
        let (a, handler) = session("google.com");
        let req = Request::post("/poll?p=1", build_poll_body(0, &[]));
        let response = respond(&handler, req);
        assert_eq!(response.status, Status::UNAUTHORIZED);
        assert_eq!(a.stats().auth_failures, 1);
        assert!(a.participant_count() == 0);
    }

    #[test]
    fn first_poll_delivers_content_second_is_empty() {
        let (a, handler) = session("google.com");
        let response = respond(&handler, signed_poll(a.key(), 1, 0, &[]));
        assert_eq!(response.content_type().as_deref(), Some("application/xml"));
        assert!(!response.body.is_empty());
        let nc = rcb_xml::parse_new_content(&response.body_str())
            .unwrap()
            .unwrap();
        // Participant acknowledges the timestamp on the next poll.
        let response2 = respond(&handler, signed_poll(a.key(), 1, nc.doc_time, &[]));
        assert!(response2.body.is_empty());
        assert_eq!(a.stats().polls_with_content, 1);
        assert_eq!(a.stats().polls_empty, 1);
    }

    #[test]
    fn dom_change_triggers_new_content() {
        let (a, handler) = session("google.com");
        let response = respond(&handler, signed_poll(a.key(), 1, 0, &[]));
        let nc = rcb_xml::parse_new_content(&response.body_str())
            .unwrap()
            .unwrap();
        // Host page mutates (Ajax on the host side).
        a.mutate_page(|doc| {
            let body = doc.body().unwrap();
            let div = doc.create_element("div");
            doc.append_child(body, div).unwrap();
        })
        .unwrap();
        let response2 = respond(&handler, signed_poll(a.key(), 1, nc.doc_time, &[]));
        let nc2 = rcb_xml::parse_new_content(&response2.body_str())
            .unwrap()
            .unwrap();
        assert!(nc2.doc_time > nc.doc_time);
    }

    #[test]
    fn content_is_generated_once_for_multiple_participants() {
        let (a, handler) = session("live.com");
        for pid in 1..=5 {
            let response = respond(&handler, signed_poll(a.key(), pid, 0, &[]));
            assert!(!response.body.is_empty());
        }
        assert_eq!(
            a.with_agent_stats(|s| s.generations.get()),
            1,
            "reused for 5 participants"
        );
        assert_eq!(a.participant_count(), 5);
    }

    #[test]
    fn form_input_merges_into_host_dom() {
        let (a, handler) = session("google.com");
        let v0 = a.dom_version();
        let action = UserAction::FormInput {
            form: "q".into(),
            field: "q".into(),
            value: "macbook air".into(),
        };
        respond(&handler, signed_poll(a.key(), 1, 0, &[action]));
        let fields = a.form_fields("q");
        assert!(fields.contains(&("q".to_string(), "macbook air".to_string())));
        assert!(a.dom_version() > v0, "merge bumps the DOM version");
    }

    /// The write path hands every effect back, whatever the navigation
    /// policy; the world that carries effects out applies the policy, and
    /// under HostConfirm queues them for the host's decision.
    #[test]
    fn navigation_effect_respects_policy() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let nav = UserAction::Navigate {
            url: "http://apple.com/".into(),
        };
        let effects = a.merge_poll_actions(1, vec![nav.clone()], &mut host);
        assert_eq!(
            effects,
            vec![HostEffect::Navigate("http://apple.com/".into())]
        );

        // HostConfirm queues instead.
        let mut world = crate::session::CoBrowsingWorld::with_alexa20(
            NetProfile::lan(),
            AgentConfig {
                nav_policy: NavigationPolicy::HostConfirm,
                ..AgentConfig::default()
            },
            4,
        );
        let p = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.participant_action(p, nav);
        let (_, effects2) = world.poll_participant(p).unwrap();
        assert!(effects2.is_empty());
        assert_eq!(world.pending_confirmation.len(), 1);
        let approved = world.decide_pending(crate::policy::HostDecision::Approve);
        assert_eq!(
            approved,
            Some(HostEffect::Navigate("http://apple.com/".into()))
        );
    }

    #[test]
    fn view_only_policy_drops_actions() {
        let config = AgentConfig {
            interaction_policy: InteractionPolicy::ViewOnly,
            ..AgentConfig::default()
        };
        let (a, handler) = session_with("google.com", 5, config.clone());
        let nav = UserAction::Navigate {
            url: "http://apple.com/".into(),
        };
        respond(
            &handler,
            signed_poll(a.key(), 1, 0, std::slice::from_ref(&nav)),
        );
        assert_eq!(a.stats().host_effects_dropped, 0);
        // The write path itself refuses the actions too.
        let mut agent = RcbAgent::new(a.key().clone(), config);
        let mut host = loaded_host("google.com");
        assert!(agent.merge_poll_actions(1, vec![nav], &mut host).is_empty());
    }

    #[test]
    fn cache_mode_objects_served_end_to_end() {
        let (a, handler) = session("apple.com");
        let response = respond(&handler, signed_poll(a.key(), 1, 0, &[]));
        let nc = rcb_xml::parse_new_content(&response.body_str())
            .unwrap()
            .unwrap();
        let rcb_xml::TopLevel::Body(body) = &nc.top else {
            panic!("expected body page");
        };
        // Pull an agent URL out of the synchronized content and fetch it.
        let idx = body.inner_html.find("/cache/").expect("agent URL present");
        let tail = &body.inner_html[idx..];
        let url = tail.split('"').next().unwrap().to_string();
        let resp = respond(&handler, Request::get(url.clone()));
        assert!(resp.status.is_success(), "object fetch failed for {url}");
        assert!(!resp.body.is_empty());
        assert_eq!(a.stats().object_requests, 1);

        // Tampered token is rejected.
        let bad = url.replace("?k=", "?k=0");
        let resp2 = respond(&handler, Request::get(bad));
        assert_eq!(resp2.status, Status::UNAUTHORIZED);
    }

    #[test]
    fn mouse_moves_are_broadcast_via_user_actions() {
        let (a, handler) = session("google.com");
        // Participant 1 syncs first, then reports a mouse move on an
        // up-to-date poll (so the move is queued, not consumed by p1's own
        // content generation).
        let response0 = respond(&handler, signed_poll(a.key(), 1, 0, &[]));
        let nc0 = rcb_xml::parse_new_content(&response0.body_str())
            .unwrap()
            .unwrap();
        let mv = UserAction::MouseMove { x: 7, y: 9 };
        let quiet = respond(&handler, signed_poll(a.key(), 1, nc0.doc_time, &[mv]));
        assert!(quiet.body.is_empty());
        a.mutate_page(|_| {}).unwrap();
        let response = respond(&handler, signed_poll(a.key(), 2, 0, &[]));
        let nc = rcb_xml::parse_new_content(&response.body_str())
            .unwrap()
            .unwrap();
        assert!(nc.user_actions.contains("mouse|7|9"));
    }

    #[test]
    fn unknown_paths_rejected() {
        let (_, handler) = session("google.com");
        let response = respond(&handler, Request::get("/favicon.ico"));
        assert_eq!(response.status, Status::NOT_FOUND);
    }

    #[test]
    fn poll_without_participant_id_is_rejected() {
        let (a, handler) = session("google.com");
        // Correctly signed but missing the `p` parameter entirely: before
        // the fix this collapsed into a shared pid-0 participant.
        let mut missing = Request::post("/poll", build_poll_body(0, &[]));
        sign_request(a.key(), &mut missing);
        let response = respond(&handler, missing);
        assert_eq!(response.status, Status::BAD_REQUEST);

        // Malformed (non-numeric) id is rejected the same way.
        let mut malformed = Request::post("/poll?p=alice", build_poll_body(0, &[]));
        sign_request(a.key(), &mut malformed);
        let response2 = respond(&handler, malformed);
        assert_eq!(response2.status, Status::BAD_REQUEST);

        assert!(
            a.participant_count() == 0,
            "no phantom pid-0 participant registered"
        );
        assert_eq!(a.stats().bad_requests, 2);
        assert_eq!(a.stats().polls_with_content, 0);
        assert_eq!(a.stats().polls_empty, 0);
    }

    #[test]
    fn generation_caches_stay_bounded_across_many_versions() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        for i in 0..1_200u64 {
            host.mutate_dom(|_| {}).unwrap();
            let now = SimTime::from_millis(i);
            ContentSnapshot::build(&mut a, &host, now, None).unwrap();
            assert_eq!(a.timestamps_len(), 1, "timestamps at iteration {i}");
            assert_eq!(a.content_cache_len(), 1, "content at iteration {i}");
        }
    }

    #[test]
    fn only_the_newest_generation_stays_and_a_late_admit_leaves_it() {
        let mut a = agent();
        let mut host = loaded_host("google.com");
        let plan = ContentSnapshot::plan(&mut a, &host, SimTime::from_millis(1)).unwrap();
        let (old, old_content) = plan.finish(None).unwrap();
        host.mutate_dom(|_| {}).unwrap();
        let new = ContentSnapshot::build(&mut a, &host, SimTime::from_millis(2), None).unwrap();
        let newest = a.newest_content(CacheMode::Cache).unwrap();
        assert_eq!(newest.doc_time, new.doc_time);
        assert_eq!((a.content_cache_len(), a.timestamps_len()), (1, 1));
        // The older generation, admitted after the newer one, is counted
        // and dropped.
        a.admit_generated(old.dom_version, CacheMode::Cache, old_content.unwrap());
        assert_eq!(a.stats.generations.get(), 2);
        let kept = a.newest_content(CacheMode::Cache).unwrap();
        assert!(Arc::ptr_eq(&kept, &newest));
        assert_eq!(a.content_cache_len(), 1);
        assert!(a.newest_content(CacheMode::NonCache).is_none());
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
