//! The co-browsing world: host + agent + participants on simulated links.
//!
//! Reproduces the nine-step session of paper §3.1 in virtual time:
//! the host runs RCB-Agent (step 1), participants connect and receive the
//! initial page with Ajax-Snippet (step 2), the host browses (steps 3–4),
//! polls carry content to participants (steps 5–6), supplementary objects
//! flow from origins (step 7, non-cache) or from the host cache
//! (step 8, cache mode), and dynamic changes plus user actions keep
//! synchronizing (step 9).
//!
//! The host is the session host every engine serves: the default session
//! of a one-session [`SessionRouter`]. The world calls it in-process,
//! making the two calls the router makes for every request (classify,
//! then answer), on an engine clock it moves to each request's arrival on
//! the simulated links, never back. Host-side browsing lends the host
//! browser through one session call, which publishes a new content
//! snapshot when the page changed. A long-poll is answered at once with
//! its timeout reply: nothing here holds a request open. What the router
//! counts dropped, the world carries out: the host effects of merged
//! participant actions (navigations, form submissions), under the
//! session's navigation policy — with [`NavigationPolicy::HostConfirm`]
//! they wait in [`CoBrowsingWorld::pending_confirmation`] for
//! [`CoBrowsingWorld::decide_pending`].
//!
//! The world is the measurement harness for the paper's metrics: each
//! host navigation records M1; each participant synchronization records
//! M2 (document content), M3/M4 (objects, by mode), M5 (generation CPU,
//! from the agent, charged to the first poll that receives the
//! generation) and M6 (update CPU, from the snippet).

use std::sync::Arc;

use rcb_browser::engine::ThinkClass;
use rcb_browser::{Browser, BrowserKind, LoadStats, UserAction};
use rcb_http::server::{HandlerOutcome, OverloadConfig};
use rcb_http::{Request, Response};
use rcb_origin::OriginRegistry;
use rcb_sim::link::{Direction, Pipe};
use rcb_sim::profiles::NetProfile;
use rcb_url::Url;
use rcb_util::{Clock, DetRng, RcbError, Result, SimDuration, SimTime, VirtualClock};

use crate::agent::{AgentConfig, CacheMode, HostEffect};
use crate::participant::agent_object_to_fetch;
use crate::policy::{HostDecision, NavigationPolicy};
use crate::recorder::{SessionEvent, SessionRecorder};
use crate::router::{RouterConfig, SessionHandle, SessionRouter};
use crate::snippet::{AjaxSnippet, SnippetOutcome};
use crate::worldsim::in_process_config;

use rcb_crypto::SessionKey;

/// One participant: browser plus Ajax-Snippet state.
pub struct ParticipantSide {
    /// Participant id (the `p` parameter of polls).
    pub id: u64,
    /// The participant's regular browser.
    pub browser: Browser,
    /// Snippet state.
    pub snippet: AjaxSnippet,
    /// Participant ↔ origin path (non-cache object downloads).
    pub origin_pipe: Pipe,
}

/// Timing record of one participant synchronization.
#[derive(Debug, Clone, Copy)]
pub struct SyncRecord {
    /// Content timestamp received.
    pub doc_time: u64,
    /// M2: poll request sent → document content applied.
    pub m2: SimDuration,
    /// M3 or M4 (by mode): content applied → all objects fetched.
    pub object_time: SimDuration,
    /// Number of objects fetched during this sync.
    pub objects: usize,
    /// When the sync (including objects) completed.
    pub finished_at: SimTime,
}

/// The co-browsing world.
pub struct CoBrowsingWorld {
    /// Origin servers reachable from both sides.
    pub origins: OriginRegistry,
    /// Network environment.
    pub profile: NetProfile,
    /// Current virtual time.
    pub now: SimTime,
    /// The host session: browser, agent and Fig.-2 request path.
    session: SessionHandle,
    /// The engine clock the host mints document timestamps on.
    clock: Arc<VirtualClock>,
    /// The session's configuration (poll interval, navigation policy).
    config: AgentConfig,
    /// Host ↔ origin path.
    host_origin_pipe: Pipe,
    /// The host's access link on the RCB path — shared by *all*
    /// participants, so concurrent deliveries queue on the host uplink
    /// (the WAN bottleneck the paper calls out in §5.1.2).
    rcb_pipe: Pipe,
    /// Connected participants.
    pub participants: Vec<ParticipantSide>,
    /// Host effects awaiting the host's decision under
    /// [`NavigationPolicy::HostConfirm`], oldest first, each with the id
    /// of the participant that asked.
    pub pending_confirmation: Vec<(u64, HostEffect)>,
    /// Append-only session event log.
    pub recorder: SessionRecorder,
    /// Generations counted when a poll was last charged an M5.
    m5_charged: u64,
    last_content_recorded: u64,
    next_pid: u64,
    rng: DetRng,
}

impl CoBrowsingWorld {
    /// Creates a world with the given origins, environment and agent
    /// configuration (step 1: the host starts RCB-Agent, before it loads
    /// any page).
    pub fn new(
        origins: OriginRegistry,
        profile: NetProfile,
        config: AgentConfig,
        seed: u64,
    ) -> Self {
        let mut rng = DetRng::new(seed);
        let key = SessionKey::generate_deterministic(&mut rng);
        let (engine_clock, clock) = Clock::new_virtual();
        let router = SessionRouter::new(
            Box::new(|_| None),
            config.clone(),
            RouterConfig::default(),
            &in_process_config(engine_clock, OverloadConfig::default()),
        );
        let session = router
            .install_default_session(Browser::new(BrowserKind::Firefox), key)
            .expect("a page-less host publishes an empty snapshot");
        CoBrowsingWorld {
            origins,
            session,
            clock,
            config,
            host_origin_pipe: Pipe::new(profile.host_origin),
            rcb_pipe: Pipe::new(profile.host_participant),
            profile,
            now: SimTime::ZERO,
            participants: Vec::new(),
            pending_confirmation: Vec::new(),
            recorder: SessionRecorder::new(),
            m5_charged: 0,
            last_content_recorded: 0,
            next_pid: 1,
            rng,
        }
    }

    /// Convenience: Alexa-20 origins, default agent config.
    pub fn with_alexa20(profile: NetProfile, config: AgentConfig, seed: u64) -> Self {
        CoBrowsingWorld::new(OriginRegistry::with_alexa20(), profile, config, seed)
    }

    /// The host session: its key, request counters, agent stats and form
    /// fields.
    pub fn session(&self) -> &SessionHandle {
        &self.session
    }

    /// Reads the live host browser (its page, URL and cache).
    pub fn host_browser<R>(&self, f: impl FnOnce(&Browser) -> R) -> R {
        self.session.shared_host().with_browser(f)
    }

    /// The URL of the host's current page.
    pub fn host_url(&self) -> Option<Url> {
        self.host_browser(|browser| browser.url.clone())
    }

    /// Advances virtual time (never backwards).
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Lets virtual time pass (user think time etc.).
    pub fn sleep(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Deterministic think time in `[lo_ms, hi_ms]` for scenario scripts.
    pub fn think(&mut self, lo_ms: u64, hi_ms: u64) {
        let ms = self.rng.range_inclusive(lo_ms, hi_ms);
        self.sleep(SimDuration::from_millis(ms));
    }

    /// Host-side browsing at the current instant: lends `f` the host
    /// browser, the origins, the host's origin link and the profile, then
    /// publishes the host's content when its DOM moved. `f` returns its
    /// result and when the page was ready: the new content's timestamp is
    /// minted then, and virtual time advances there.
    pub(crate) fn browse_host<R>(
        &mut self,
        f: impl FnOnce(
            &mut Browser,
            &mut OriginRegistry,
            &mut Pipe,
            &NetProfile,
            SimTime,
        ) -> Result<(R, SimTime)>,
    ) -> Result<R> {
        let CoBrowsingWorld {
            origins,
            profile,
            now,
            session,
            clock,
            host_origin_pipe,
            ..
        } = self;
        let (out, ready) = session.shared_host().browse(|browser| {
            let (out, ready) = f(browser, origins, host_origin_pipe, profile, *now)?;
            clock.advance_to(ready);
            Ok::<_, RcbError>((out, ready))
        })??;
        self.advance_to(ready);
        Ok(out)
    }

    /// Mutates the live host page now (page script, step 9) and
    /// publishes the change.
    pub fn mutate_host_page(&mut self, f: impl FnOnce(&mut rcb_html::Document)) -> Result<()> {
        self.browse_host(|browser, _, _, _, now| Ok((browser.mutate_dom(f)?, now)))
    }

    /// Host navigates to a URL (steps 3–4). Records and returns M1 stats.
    pub fn host_navigate(&mut self, url: &str) -> Result<LoadStats> {
        let url = Url::parse(url)?;
        self.recorder.record(
            self.now,
            SessionEvent::HostNavigate {
                url: url.to_string(),
            },
        );
        let stats = self.browse_host(|browser, origins, pipe, profile, now| {
            let stats = browser.navigate(&url, origins, pipe, profile, now)?;
            Ok((stats, stats.finished_at))
        })?;
        let doc_time = self.session.published_doc_time();
        self.recorder
            .record(self.now, SessionEvent::ContentChange { doc_time });
        self.last_content_recorded = self.last_content_recorded.max(doc_time);
        Ok(stats)
    }

    /// Host presses the back button: re-navigates to the previous history
    /// entry (participants follow on their next poll, like any other host
    /// navigation).
    pub fn host_back(&mut self) -> Result<Option<LoadStats>> {
        match self.session.shared_host().browse(Browser::go_back)? {
            Some(url) => Ok(Some(self.host_navigate(&url.to_string())?)),
            None => Ok(None),
        }
    }

    /// Host presses the forward button.
    pub fn host_forward(&mut self) -> Result<Option<LoadStats>> {
        match self.session.shared_host().browse(Browser::go_forward)? {
            Some(url) => Ok(Some(self.host_navigate(&url.to_string())?)),
            None => Ok(None),
        }
    }

    /// Sends one request to the host, arriving at `arrival`: the engine
    /// clock moves there (never back), and the host answers it as a
    /// routed request. Returns the reply and a merged poll's host
    /// effects.
    fn send(&self, req: &Request, arrival: SimTime) -> (Response, Vec<HostEffect>) {
        self.clock.advance_to(arrival);
        let host = self.session.shared_host();
        let (outcome, effects) = host.answer(req, host.classify(req));
        let response = match outcome {
            HandlerOutcome::Respond(response) => response,
            HandlerOutcome::Park(park) => (park.on_timeout)(),
        };
        (response, effects)
    }

    /// The generation cost (M5) that delays a poll answered with
    /// `response`: the latest generation's, when this is the first reply
    /// to carry content since it ran; none when the content was served
    /// before (reused content costs ~nothing).
    fn charge_m5(&mut self, response: &Response) -> SimDuration {
        if response.body.is_empty() {
            return SimDuration::ZERO;
        }
        let (generations, m5) = self
            .session
            .with_agent_stats(|s| (s.generations.get(), s.m5.samples().last().copied()));
        if generations == self.m5_charged {
            return SimDuration::ZERO;
        }
        self.m5_charged = generations;
        m5.unwrap_or(SimDuration::ZERO)
    }

    /// A participant joins (step 2): connects to the agent URL, receives
    /// the initial page, and instantiates the snippet with the
    /// out-of-band session key. Returns the participant index.
    pub fn add_participant(&mut self, kind: BrowserKind) -> usize {
        let id = self.next_pid;
        self.next_pid += 1;
        let mut browser = Browser::new(kind);
        // GET / to the agent over the shared RCB path.
        let connect = self.rcb_pipe.connect(self.now);
        let req = Request::get("/");
        let req_arrival = self
            .rcb_pipe
            .transfer(connect, req.wire_len(), Direction::Up);
        let (response, _) = self.send(&req, req_arrival);
        let resp_arrival =
            self.rcb_pipe
                .transfer(req_arrival, response.wire_len(), Direction::Down);
        browser.doc = Some(rcb_html::parse_document(&response.body_str()));
        self.advance_to(resp_arrival);
        let snippet = AjaxSnippet::new(id, self.session.key().clone(), self.config.poll_interval);
        self.participants.push(ParticipantSide {
            id,
            browser,
            snippet,
            origin_pipe: Pipe::new(self.profile.participant_origin),
        });
        self.recorder
            .record(self.now, SessionEvent::Join { pid: id });
        self.participants.len() - 1
    }

    /// A participant leaves the session.
    pub fn remove_participant(&mut self, idx: usize) {
        let p = self.participants.remove(idx);
        self.recorder
            .record(self.now, SessionEvent::Leave { pid: p.id });
        self.session.shared_host().remove_participant(p.id);
    }

    /// Queues an action on a participant's snippet, to ride the next poll.
    pub fn participant_action(&mut self, idx: usize, action: UserAction) {
        self.recorder.record(
            self.now,
            SessionEvent::Action {
                pid: self.participants[idx].id,
                encoded: action.encode(),
            },
        );
        self.participants[idx].snippet.capture_action(action);
    }

    /// Executes one poll round for participant `idx` starting at `now`
    /// (steps 5–8). Returns the sync record if new content was applied,
    /// plus any app-level host effects the caller must interpret.
    pub fn poll_participant(
        &mut self,
        idx: usize,
    ) -> Result<(Option<SyncRecord>, Vec<HostEffect>)> {
        let start = self.now;
        let pid = self.participants[idx].id;
        let req = self.participants[idx].snippet.build_poll();
        let req_arrival = self.rcb_pipe.transfer(start, req.wire_len(), Direction::Up);
        let (response, effects) = self.send(&req, req_arrival);
        // The agent's CPU cost (content generation, M5) delays the reply —
        // the first reply to carry a new generation; reused content is
        // served from the published snapshot at ~zero cost.
        let served_at = req_arrival + self.charge_m5(&response);
        let resp_arrival = self
            .rcb_pipe
            .transfer(served_at, response.wire_len(), Direction::Down);
        let p = &mut self.participants[idx];
        let result = p.snippet.process_response(&response, &mut p.browser)?;
        let mut sync = None;
        match result {
            SnippetOutcome::NoNewContent => {
                self.advance_to(resp_arrival);
            }
            SnippetOutcome::Updated {
                doc_time,
                object_urls,
                host_actions: _,
            } => {
                // Applying the update costs the snippet's M6 on the clock.
                let m6 = p
                    .snippet
                    .m6
                    .samples()
                    .last()
                    .copied()
                    .unwrap_or(SimDuration::ZERO);
                let applied_at = resp_arrival + m6;
                let m2 = applied_at.since(start);
                let (objects_done, fetched) =
                    self.fetch_participant_objects(idx, &object_urls, applied_at)?;
                self.advance_to(objects_done);
                // Content changes that did not come from a recorded host
                // navigation (merges, dynamic mutations) are logged here,
                // when their timestamp first surfaces.
                if doc_time > self.last_content_recorded {
                    self.recorder
                        .record(start, SessionEvent::ContentChange { doc_time });
                    self.last_content_recorded = doc_time;
                }
                self.recorder.record(
                    objects_done,
                    SessionEvent::Sync {
                        pid: self.participants[idx].id,
                        doc_time,
                    },
                );
                sync = Some(SyncRecord {
                    doc_time,
                    m2,
                    object_time: objects_done.since(applied_at),
                    objects: fetched,
                    finished_at: objects_done,
                });
            }
        }
        // Host effects wait for the host's decision under HostConfirm;
        // otherwise the world carries out those it can interpret and
        // returns the rest.
        let effects = match self.config.nav_policy {
            NavigationPolicy::Immediate => effects,
            NavigationPolicy::HostConfirm => {
                let pending = effects.into_iter().map(|effect| (pid, effect));
                self.pending_confirmation.extend(pending);
                Vec::new()
            }
        };
        let mut app_effects = Vec::new();
        for effect in effects {
            match effect {
                HostEffect::Navigate(url) => {
                    self.host_navigate(&url)?;
                }
                HostEffect::SubmitForm { form, .. } => {
                    self.host_submit_form(&form)?;
                }
                other => app_effects.push(other),
            }
        }
        Ok((sync, app_effects))
    }

    /// Host decision on the oldest pending action (HostConfirm policy):
    /// the effect to carry out when approved.
    pub fn decide_pending(&mut self, decision: HostDecision) -> Option<HostEffect> {
        if self.pending_confirmation.is_empty() {
            return None;
        }
        let (_, effect) = self.pending_confirmation.remove(0);
        match decision {
            HostDecision::Approve => Some(effect),
            HostDecision::Reject => None,
        }
    }

    /// Fetches a participant's supplementary objects: agent-relative URLs
    /// from the host browser cache over the RCB path (step 8), absolute
    /// URLs from origin servers (step 7).
    fn fetch_participant_objects(
        &mut self,
        idx: usize,
        urls: &[String],
        start: SimTime,
    ) -> Result<(SimTime, usize)> {
        let connections = self.profile.browser_connections;
        let browser = &self.participants[idx].browser;
        let agent_urls: Vec<&String> = urls
            .iter()
            .filter(|u| agent_object_to_fetch(u, browser))
            .collect();
        let origin_urls: Vec<String> = urls
            .iter()
            .filter(|u| !u.starts_with('/'))
            .cloned()
            .collect();
        let mut finished = start;
        let mut fetched = 0usize;

        // Agent-served objects (cache mode), over the shared RCB path.
        let mut free_at: Vec<SimTime> = Vec::new();
        for u in agent_urls {
            let slot = if free_at.len() < connections {
                free_at.push(self.rcb_pipe.connect(start));
                free_at.len() - 1
            } else {
                free_at
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .map(|(i, _)| i)
                    .expect("pool non-empty")
            };
            let begin = free_at[slot].max(start);
            let req = Request::get(u.clone());
            let req_arrival = self.rcb_pipe.transfer(begin, req.wire_len(), Direction::Up);
            let (resp, _) = self.send(&req, req_arrival);
            let done = self
                .rcb_pipe
                .transfer(req_arrival, resp.wire_len(), Direction::Down);
            free_at[slot] = done;
            finished = finished.max(done);
            fetched += 1;
            if resp.status.is_success() {
                let ct = resp.content_type().unwrap_or_default();
                self.participants[idx]
                    .browser
                    .cache
                    .store(u, &ct, resp.body, done);
            }
        }

        // Origin-served objects (non-cache mode), over the participant's
        // own access link.
        if !origin_urls.is_empty() {
            let base = self
                .host_url()
                .unwrap_or_else(|| Url::parse("http://localhost/").expect("static URL parses"));
            let p = &mut self.participants[idx];
            let (done, n, _, _) = p.browser.fetch_objects(
                &base,
                &origin_urls,
                &mut self.origins,
                &mut p.origin_pipe,
                &self.profile,
                start,
            )?;
            finished = finished.max(done);
            fetched += n;
        }
        Ok((finished, fetched))
    }

    /// Submits the named form from the host page to its origin (the
    /// co-filled form path: data was already merged into the host DOM by
    /// the agent; the host sends it out, §5.2.2).
    pub fn host_submit_form(&mut self, form_id: &str) -> Result<LoadStats> {
        let (target, method, fields) = self.host_browser(|browser| {
            let doc = browser
                .doc
                .as_ref()
                .ok_or_else(|| RcbError::InvalidInput("host has no document".into()))?;
            let form = rcb_html::query::element_by_id(doc, doc.root(), form_id)
                .ok_or_else(|| RcbError::NotFound(format!("form {form_id}")))?;
            let action = doc.get_attr(form, "action").unwrap_or("/");
            let method = doc
                .get_attr(form, "method")
                .unwrap_or("get")
                .to_ascii_lowercase();
            let fields = rcb_html::query::form_fields(doc, form);
            let page = browser
                .url
                .as_ref()
                .ok_or_else(|| RcbError::InvalidInput("host has no page URL".into()))?;
            Ok::<_, RcbError>((page.join(action)?, method, fields))
        })?;
        if method == "post" {
            let body = rcb_url::percent::build_query(&fields).into_bytes();
            let req = Request::post(target.request_target(), body)
                .with_header("Content-Type", "application/x-www-form-urlencoded");
            let resp = self.browse_host(|browser, origins, pipe, profile, now| {
                let (resp, arrived) = browser.http_request(
                    &target,
                    req,
                    origins,
                    pipe,
                    profile,
                    ThinkClass::HtmlDocument,
                    now,
                );
                // A redirect is followed below; any other response is
                // rendered as the new host page.
                if resp.status.0 != 302 {
                    browser.url = Some(target.clone());
                    browser.doc = Some(rcb_html::parse_document(&resp.body_str()));
                    browser.mutate_dom(|_| {})?;
                }
                Ok((resp, arrived))
            })?;
            // Follow one redirect (e.g. cart/add → /cart).
            if resp.status.0 == 302 {
                let loc = resp.headers.get("location").unwrap_or("/").to_string();
                let next = target.join(&loc)?;
                return self.host_navigate(&next.to_string());
            }
            Ok(LoadStats {
                html_time: SimDuration::ZERO,
                objects_time: SimDuration::ZERO,
                finished_at: self.now,
                objects_fetched: 0,
                objects_cached: 0,
                bytes_moved: rcb_util::ByteSize::bytes(resp.body.len() as u64),
            })
        } else {
            let query = rcb_url::percent::build_query(&fields);
            let mut dest = target;
            dest.query = Some(query);
            self.host_navigate(&dest.to_string())
        }
    }

    /// Runs `rounds` poll cycles for every participant, spaced by the
    /// snippet poll interval. Returns the sync records collected.
    pub fn run_poll_rounds(&mut self, rounds: usize) -> Result<Vec<SyncRecord>> {
        let mut records = Vec::new();
        for _ in 0..rounds {
            for idx in 0..self.participants.len() {
                let (sync, _) = self.poll_participant(idx)?;
                if let Some(s) = sync {
                    records.push(s);
                }
            }
            self.sleep(self.config.poll_interval);
        }
        Ok(records)
    }
}

/// Measures one site end-to-end: host navigates, a fresh participant
/// synchronizes; returns `(M1 stats, sync record)`. The building block of
/// the Figure-6/7/8 and Table-1 experiments.
pub fn measure_site(
    profile: NetProfile,
    mode: CacheMode,
    site: &str,
    seed: u64,
) -> Result<(LoadStats, SyncRecord)> {
    let config = AgentConfig {
        cache_mode: mode,
        ..AgentConfig::default()
    };
    let mut world = CoBrowsingWorld::with_alexa20(profile, config, seed);
    let idx = world.add_participant(BrowserKind::Firefox);
    let load = world.host_navigate(&format!("http://{site}/"))?;
    let (sync, _) = world.poll_participant(idx)?;
    let sync = sync.ok_or_else(|| RcbError::Protocol("no content on first poll".into()))?;
    Ok((load, sync))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan_world() -> CoBrowsingWorld {
        CoBrowsingWorld::with_alexa20(NetProfile::lan(), AgentConfig::default(), 42)
    }

    fn body_text(doc: &rcb_html::Document) -> String {
        doc.text_content(doc.body().unwrap())
    }

    #[test]
    fn end_to_end_sync_on_lan() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        let load = world.host_navigate("http://google.com/").unwrap();
        let (sync, effects) = world.poll_participant(idx).unwrap();
        let sync = sync.expect("first poll delivers content");
        assert!(effects.is_empty());
        // The participant document now mirrors the host body text.
        let host_text = world.host_browser(|b| body_text(b.doc.as_ref().unwrap()));
        let part_doc = world.participants[idx].browser.doc.as_ref().unwrap();
        let part_text = part_doc.text_content(part_doc.body().unwrap());
        assert_eq!(host_text, part_text);
        // Figure 6's claim: M2 << M1 in the LAN.
        assert!(
            sync.m2.as_micros() * 5 < load.html_time.as_micros(),
            "m2={} m1={}",
            sync.m2,
            load.html_time
        );
    }

    #[test]
    fn cache_mode_serves_objects_from_host() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://apple.com/").unwrap();
        let (sync, _) = world.poll_participant(idx).unwrap();
        let sync = sync.unwrap();
        assert!(sync.objects > 0);
        // All objects came from the agent: participant never touched the
        // origin (its origin pipe stayed idle) — checkable via its cache
        // holding agent-relative keys.
        let p = &world.participants[idx];
        assert!(p
            .browser
            .cache
            .urls()
            .iter()
            .all(|u| u.starts_with("/cache/")));
    }

    #[test]
    fn non_cache_mode_fetches_from_origin() {
        let config = AgentConfig {
            cache_mode: CacheMode::NonCache,
            ..AgentConfig::default()
        };
        let mut world = CoBrowsingWorld::with_alexa20(NetProfile::lan(), config, 7);
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://apple.com/").unwrap();
        let (sync, _) = world.poll_participant(idx).unwrap();
        let sync = sync.unwrap();
        assert!(sync.objects > 0);
        let p = &world.participants[idx];
        assert!(p
            .browser
            .cache
            .urls()
            .iter()
            .all(|u| u.starts_with("http://apple.com/")));
    }

    #[test]
    fn cache_mode_is_faster_for_objects_on_lan() {
        // Figure 8's claim: M4 < M3 in the LAN, for every site.
        let (_, cache_sync) =
            measure_site(NetProfile::lan(), CacheMode::Cache, "msn.com", 1).unwrap();
        let (_, noncache_sync) =
            measure_site(NetProfile::lan(), CacheMode::NonCache, "msn.com", 1).unwrap();
        assert!(
            cache_sync.object_time < noncache_sync.object_time,
            "M4 {} !< M3 {}",
            cache_sync.object_time,
            noncache_sync.object_time
        );
    }

    #[test]
    fn wan_m2_grows_but_stays_reasonable() {
        let (lan_load, lan_sync) =
            measure_site(NetProfile::lan(), CacheMode::Cache, "wikipedia.org", 2).unwrap();
        let (wan_load, wan_sync) =
            measure_site(NetProfile::wan(), CacheMode::Cache, "wikipedia.org", 2).unwrap();
        assert!(wan_sync.m2 > lan_sync.m2, "WAN M2 exceeds LAN M2");
        // Mid-sized page: M2 still below M1 in both environments.
        assert!(lan_sync.m2 < lan_load.html_time);
        assert!(wan_sync.m2 < wan_load.html_time);
    }

    #[test]
    fn multiple_participants_share_generated_content() {
        let mut world = lan_world();
        let a = world.add_participant(BrowserKind::Firefox);
        let b = world.add_participant(BrowserKind::InternetExplorer);
        world.host_navigate("http://facebook.com/").unwrap();
        world.poll_participant(a).unwrap().0.unwrap();
        world.poll_participant(b).unwrap().0.unwrap();
        assert_eq!(world.session().with_agent_stats(|s| s.generations.get()), 1);
        // Both browser kinds render the same body.
        let da = world.participants[a].browser.doc.as_ref().unwrap();
        let db = world.participants[b].browser.doc.as_ref().unwrap();
        assert_eq!(
            rcb_html::inner_html(da, da.body().unwrap()),
            rcb_html::inner_html(db, db.body().unwrap())
        );
    }

    #[test]
    fn dynamic_mutation_resyncs() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.poll_participant(idx).unwrap().0.unwrap();
        // Host-side script mutates the page (step 9).
        world
            .mutate_host_page(|doc| {
                let body = doc.body().unwrap();
                let div = doc.create_element("div");
                doc.set_attr(div, "id", "breaking");
                let t = doc.create_text("breaking news");
                doc.append_child(div, t).unwrap();
                doc.append_child(body, div).unwrap();
            })
            .unwrap();
        world.sleep(SimDuration::from_secs(1));
        let (sync, _) = world.poll_participant(idx).unwrap();
        assert!(sync.is_some(), "mutation produced new content");
        let pd = world.participants[idx].browser.doc.as_ref().unwrap();
        assert!(pd.text_content(pd.root()).contains("breaking news"));
    }

    #[test]
    fn participant_navigation_effect_drives_host() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.poll_participant(idx).unwrap();
        world.participant_action(
            idx,
            UserAction::Navigate {
                url: "http://apple.com/".into(),
            },
        );
        world.sleep(SimDuration::from_secs(1));
        world.poll_participant(idx).unwrap();
        assert_eq!(
            world.host_url().unwrap().host,
            "apple.com",
            "host navigated on participant request"
        );
        // Next poll syncs the new page to the participant.
        world.sleep(SimDuration::from_secs(1));
        let (sync, _) = world.poll_participant(idx).unwrap();
        assert!(sync.is_some());
        let pd = world.participants[idx].browser.doc.as_ref().unwrap();
        assert!(pd.text_content(pd.root()).contains("apple.com"));
    }

    #[test]
    fn form_cofill_roundtrip() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.poll_participant(idx).unwrap();
        world.participant_action(
            idx,
            UserAction::FormInput {
                form: "q".into(),
                field: "q".into(),
                value: "rcb framework".into(),
            },
        );
        world.sleep(SimDuration::from_secs(1));
        world.poll_participant(idx).unwrap();
        // Merged into the host DOM...
        assert!(world
            .session()
            .form_fields("q")
            .contains(&("q".to_string(), "rcb framework".to_string())));
        // ...and synchronized back to the participant on the next poll.
        world.sleep(SimDuration::from_secs(1));
        world.poll_participant(idx).unwrap();
        let pd = world.participants[idx].browser.doc.as_ref().unwrap();
        let pform = rcb_html::query::element_by_id(pd, pd.root(), "q").unwrap();
        assert!(rcb_html::query::form_fields(pd, pform)
            .contains(&("q".to_string(), "rcb framework".to_string())));
    }

    #[test]
    fn polls_without_changes_are_cheap_empty_replies() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.poll_participant(idx).unwrap();
        let records = world.run_poll_rounds(5).unwrap();
        assert!(records.is_empty(), "no content changes, no syncs");
        assert_eq!(world.session().stats().polls_empty, 5);
    }

    #[test]
    fn agent_memory_stays_bounded_across_a_long_session() {
        // A long-lived session (1000+ DOM versions, each generating
        // content for a participant) must not grow the agent: it keeps
        // one generation and one planned version.
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.poll_participant(idx).unwrap().0.unwrap();
        for _ in 0..1_000 {
            world.mutate_host_page(|_| {}).unwrap();
            world.sleep(SimDuration::from_millis(3));
            world.poll_participant(idx).unwrap();
            assert_eq!(world.session().agent_cache_lens(), (1, 1));
        }
        // The participant is still fully synchronized at the end.
        let pd = world.participants[idx].browser.doc.as_ref().unwrap();
        assert_eq!(
            world.host_browser(|b| body_text(b.doc.as_ref().unwrap())),
            pd.text_content(pd.body().unwrap())
        );
    }

    /// Before the host loads any page its snapshot is empty: every poll
    /// is up to date and answered empty, and nothing was generated.
    #[test]
    fn a_page_less_host_answers_polls_empty() {
        let mut world = lan_world();
        let snap = world.session().shared_host().current_snapshot();
        assert_eq!((snap.doc_time, snap.object_count()), (0, 0));
        assert_eq!(world.session().with_agent_stats(|s| s.generations.get()), 0);
        let idx = world.add_participant(BrowserKind::Firefox);
        let (sync, effects) = world.poll_participant(idx).unwrap();
        assert!(sync.is_none() && effects.is_empty());
        let stats = world.session().stats();
        assert_eq!((stats.polls_empty, stats.polls_with_content), (1, 0));
        world.host_navigate("http://google.com/").unwrap();
        assert!(world.poll_participant(idx).unwrap().0.is_some());
    }

    /// A generation's M5 delays the first poll that receives it and no
    /// later one: on an idle LAN pipe, two participants' syncs of one
    /// navigation differ by exactly the M5 sample, once their own M6 is
    /// taken out.
    #[test]
    fn the_first_poll_to_receive_a_generation_is_charged_its_m5() {
        for site in ["google.com", "wikipedia.org", "cnn.com"] {
            let mut world = lan_world();
            let a = world.add_participant(BrowserKind::Firefox);
            let b = world.add_participant(BrowserKind::Firefox);
            world.host_navigate(&format!("http://{site}/")).unwrap();
            let mut m2_net_of_m6 = |idx: usize| {
                let sync = world.poll_participant(idx).unwrap().0.expect("content");
                let m6 = world.participants[idx].snippet.m6.samples().last().copied();
                sync.m2.as_micros() - m6.unwrap().as_micros()
            };
            let (net_a, net_b) = (m2_net_of_m6(a), m2_net_of_m6(b));
            let (generations, m5) = world
                .session()
                .with_agent_stats(|s| (s.generations.get(), s.m5.samples()[0]));
            assert_eq!(generations, 1, "{site}");
            assert_eq!(net_a - net_b, m5.as_micros(), "{site}");
        }
    }

    /// Nothing in the paper world holds a request open: an up-to-date
    /// long-poll is answered at once with the timeout (empty) reply, and
    /// counted as a park that timed out.
    #[test]
    fn a_long_poll_is_answered_at_once_with_the_timeout_reply() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.poll_participant(idx).unwrap().0.unwrap();
        world.participants[idx].snippet.long_poll = Some(SimDuration::from_secs(5));
        let sent = world.now;
        let (sync, _) = world.poll_participant(idx).unwrap();
        assert!(sync.is_none());
        assert!(world.now.since(sent) < SimDuration::from_millis(100));
        let stats = world.session().stats();
        assert_eq!((stats.polls_parked, stats.polls_park_timeouts), (1, 1));
    }

    /// The engine clock only moves forward: a world whose `now` is
    /// rewound, as `ablation_fanout` rewinds it, still mints rising
    /// doc-times.
    #[test]
    fn a_rewound_world_still_mints_rising_doc_times() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        let first = world.poll_participant(idx).unwrap().0.unwrap();
        world.now = SimTime::ZERO;
        world.participant_action(
            idx,
            UserAction::FormInput {
                form: "q".into(),
                field: "q".into(),
                value: "rewound".into(),
            },
        );
        let second = world.poll_participant(idx).unwrap().0.unwrap();
        assert!(second.doc_time > first.doc_time);
    }

    #[test]
    fn join_and_leave_lifecycle() {
        let mut world = lan_world();
        let a = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://live.com/").unwrap();
        world.poll_participant(a).unwrap();
        assert_eq!(world.session().participant_count(), 1);
        world.remove_participant(a);
        assert!(world.session().participant_count() == 0);
        assert!(world.participants.is_empty());
    }
}
