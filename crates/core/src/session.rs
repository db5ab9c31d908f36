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
//! The world is the measurement harness for the paper's metrics: each
//! host navigation records M1; each participant synchronization records
//! M2 (document content), M3/M4 (objects, by mode), M5 (generation CPU,
//! from the agent) and M6 (update CPU, from the snippet).

use rcb_browser::engine::ThinkClass;
use rcb_browser::{Browser, BrowserKind, LoadStats, UserAction};
use rcb_http::Request;
use rcb_origin::OriginRegistry;
use rcb_sim::link::{Direction, Pipe};
use rcb_sim::profiles::NetProfile;
use rcb_url::Url;
use rcb_util::{DetRng, RcbError, Result, SimDuration, SimTime};

use crate::agent::{AgentConfig, CacheMode, HostEffect, RcbAgent};
use crate::recorder::{SessionEvent, SessionRecorder};
use crate::snippet::{AjaxSnippet, SnippetOutcome};

use rcb_crypto::SessionKey;

/// The host side: browser plus the agent extension inside it.
pub struct HostSide {
    /// The host browser.
    pub browser: Browser,
    /// The RCB-Agent extension.
    pub agent: RcbAgent,
    /// Host ↔ origin path.
    pub origin_pipe: Pipe,
    /// The host's access link on the RCB path — shared by *all*
    /// participants, so concurrent deliveries queue on the host uplink
    /// (the WAN bottleneck the paper calls out in §5.1.2).
    pub rcb_pipe: Pipe,
}

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
    /// The host side.
    pub host: HostSide,
    /// Connected participants.
    pub participants: Vec<ParticipantSide>,
    /// Append-only session event log.
    pub recorder: SessionRecorder,
    last_content_recorded: u64,
    next_pid: u64,
    rng: DetRng,
}

impl CoBrowsingWorld {
    /// Creates a world with the given origins, environment and agent
    /// configuration (step 1: the host starts RCB-Agent).
    pub fn new(
        origins: OriginRegistry,
        profile: NetProfile,
        config: AgentConfig,
        seed: u64,
    ) -> Self {
        let mut rng = DetRng::new(seed);
        let key = SessionKey::generate_deterministic(&mut rng);
        CoBrowsingWorld {
            origins,
            host: HostSide {
                browser: Browser::new(BrowserKind::Firefox),
                agent: RcbAgent::new(key, config),
                origin_pipe: Pipe::new(profile.host_origin),
                rcb_pipe: Pipe::new(profile.host_participant),
            },
            profile,
            now: SimTime::ZERO,
            participants: Vec::new(),
            recorder: SessionRecorder::new(),
            last_content_recorded: 0,
            next_pid: 1,
            rng,
        }
    }

    /// Convenience: Alexa-20 origins, default agent config.
    pub fn with_alexa20(profile: NetProfile, config: AgentConfig, seed: u64) -> Self {
        CoBrowsingWorld::new(OriginRegistry::with_alexa20(), profile, config, seed)
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

    /// Host navigates to a URL (steps 3–4). Records and returns M1 stats.
    pub fn host_navigate(&mut self, url: &str) -> Result<LoadStats> {
        let url = Url::parse(url)?;
        self.recorder.record(
            self.now,
            SessionEvent::HostNavigate {
                url: url.to_string(),
            },
        );
        let stats = self.host.browser.navigate(
            &url,
            &mut self.origins,
            &mut self.host.origin_pipe,
            &self.profile,
            self.now,
        )?;
        self.advance_to(stats.finished_at);
        let doc_time = self
            .host
            .agent
            .current_doc_time(&self.host.browser, self.now);
        self.recorder
            .record(self.now, SessionEvent::ContentChange { doc_time });
        self.last_content_recorded = self.last_content_recorded.max(doc_time);
        Ok(stats)
    }

    /// Host presses the back button: re-navigates to the previous history
    /// entry (participants follow on their next poll, like any other host
    /// navigation).
    pub fn host_back(&mut self) -> Result<Option<LoadStats>> {
        match self.host.browser.go_back() {
            Some(url) => Ok(Some(self.host_navigate(&url.to_string())?)),
            None => Ok(None),
        }
    }

    /// Host presses the forward button.
    pub fn host_forward(&mut self) -> Result<Option<LoadStats>> {
        match self.host.browser.go_forward() {
            Some(url) => Ok(Some(self.host_navigate(&url.to_string())?)),
            None => Ok(None),
        }
    }

    /// A participant joins (step 2): connects to the agent URL, receives
    /// the initial page, and instantiates the snippet with the
    /// out-of-band session key. Returns the participant index.
    pub fn add_participant(&mut self, kind: BrowserKind) -> usize {
        let id = self.next_pid;
        self.next_pid += 1;
        let mut browser = Browser::new(kind);
        // GET / to the agent over the shared RCB path.
        let connect = self.host.rcb_pipe.connect(self.now);
        let req = Request::get("/");
        let req_arrival = self
            .host
            .rcb_pipe
            .transfer(connect, req.wire_len(), Direction::Up);
        let outcome = self
            .host
            .agent
            .handle_request(&req, &mut self.host.browser, req_arrival);
        let resp_arrival =
            self.host
                .rcb_pipe
                .transfer(req_arrival, outcome.response.wire_len(), Direction::Down);
        browser.doc = Some(rcb_html::parse_document(&outcome.response.body_str()));
        self.advance_to(resp_arrival);
        let snippet = AjaxSnippet::new(
            id,
            self.host.agent.key().clone(),
            self.host.agent.config.poll_interval,
        );
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
        self.host.agent.remove_participant(p.id);
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
        let p = &mut self.participants[idx];
        let req = p.snippet.build_poll();
        let req_arrival = self
            .host
            .rcb_pipe
            .transfer(start, req.wire_len(), Direction::Up);
        let generations_before = self.host.agent.stats.generations.get();
        let outcome = self
            .host
            .agent
            .handle_request(&req, &mut self.host.browser, req_arrival);
        // The agent's CPU cost (content generation, M5) delays the reply —
        // but only when this poll actually triggered a generation; reused
        // content is served from the agent's content cache at ~zero cost.
        let served_at = if self.host.agent.stats.generations.get() > generations_before {
            let m5_cost = self
                .host
                .agent
                .stats
                .m5
                .samples()
                .last()
                .copied()
                .unwrap_or(SimDuration::ZERO);
            req_arrival + m5_cost
        } else {
            req_arrival
        };
        let resp_arrival =
            self.host
                .rcb_pipe
                .transfer(served_at, outcome.response.wire_len(), Direction::Down);
        let result = p
            .snippet
            .process_response(&outcome.response, &mut p.browser)?;
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
        // Execute host effects the world can interpret; return the rest.
        let mut app_effects = Vec::new();
        for effect in outcome.effects {
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
        let mut agent_urls: Vec<String> = Vec::new();
        let mut origin_urls: Vec<String> = Vec::new();
        for u in urls {
            if u.starts_with('/') {
                agent_urls.push(u.clone());
            } else {
                origin_urls.push(u.clone());
            }
        }
        let mut finished = start;
        let mut fetched = 0usize;

        // Agent-served objects (cache mode), over the shared RCB path.
        {
            let mut free_at: Vec<SimTime> = Vec::new();
            for u in &agent_urls {
                if self.participants[idx].browser.cache.contains(u) {
                    continue;
                }
                let slot = if free_at.len() < connections {
                    free_at.push(self.host.rcb_pipe.connect(start));
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
                let req_arrival = self
                    .host
                    .rcb_pipe
                    .transfer(begin, req.wire_len(), Direction::Up);
                let outcome =
                    self.host
                        .agent
                        .handle_request(&req, &mut self.host.browser, req_arrival);
                let resp = outcome.response;
                let done =
                    self.host
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
        }

        // Origin-served objects (non-cache mode), over the participant's
        // own access link.
        if !origin_urls.is_empty() {
            let base = self
                .host
                .browser
                .url
                .clone()
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
        let doc = self
            .host
            .browser
            .doc
            .as_ref()
            .ok_or_else(|| RcbError::InvalidInput("host has no document".into()))?;
        let form = rcb_html::query::element_by_id(doc, doc.root(), form_id)
            .ok_or_else(|| RcbError::NotFound(format!("form {form_id}")))?;
        let action = doc.get_attr(form, "action").unwrap_or("/").to_string();
        let method = doc
            .get_attr(form, "method")
            .unwrap_or("get")
            .to_ascii_lowercase();
        let fields = rcb_html::query::form_fields(doc, form);
        let page = self
            .host
            .browser
            .url
            .clone()
            .ok_or_else(|| RcbError::InvalidInput("host has no page URL".into()))?;
        let target = page.join(&action)?;
        if method == "post" {
            let body = rcb_url::percent::build_query(&fields).into_bytes();
            let req = Request::post(target.request_target(), body)
                .with_header("Content-Type", "application/x-www-form-urlencoded");
            let (resp, arrived) = self.host.browser.http_request(
                &target,
                req,
                &mut self.origins,
                &mut self.host.origin_pipe,
                &self.profile,
                ThinkClass::HtmlDocument,
                self.now,
            );
            self.advance_to(arrived);
            // Follow one redirect (e.g. cart/add → /cart).
            if resp.status.0 == 302 {
                let loc = resp.headers.get("location").unwrap_or("/").to_string();
                let next = target.join(&loc)?;
                return self.host_navigate(&next.to_string());
            }
            // Render the response as the new host page.
            let body = resp.body_str();
            self.host.browser.url = Some(target);
            self.host.browser.doc = Some(rcb_html::parse_document(&body));
            let _ = self.host.browser.mutate_dom(|_| {});
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
            let interval = self.host.agent.config.poll_interval;
            self.sleep(interval);
        }
        Ok(records)
    }

    /// Index of the participant with id `pid`.
    pub fn participant_index(&self, pid: u64) -> Option<usize> {
        self.participants.iter().position(|p| p.id == pid)
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

    #[test]
    fn end_to_end_sync_on_lan() {
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        let load = world.host_navigate("http://google.com/").unwrap();
        let (sync, effects) = world.poll_participant(idx).unwrap();
        let sync = sync.expect("first poll delivers content");
        assert!(effects.is_empty());
        // The participant document now mirrors the host body text.
        let host_doc = world.host.browser.doc.as_ref().unwrap();
        let part_doc = world.participants[idx].browser.doc.as_ref().unwrap();
        let host_text = host_doc.text_content(host_doc.body().unwrap());
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
        assert_eq!(world.host.agent.stats.generations.get(), 1);
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
            .host
            .browser
            .mutate_dom(|doc| {
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
            world.host.browser.url.as_ref().unwrap().host,
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
        let hd = world.host.browser.doc.as_ref().unwrap();
        let form = rcb_html::query::element_by_id(hd, hd.root(), "q").unwrap();
        assert!(rcb_html::query::form_fields(hd, form)
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
        assert_eq!(world.host.agent.request_stats().polls_empty, 5);
    }

    #[test]
    fn agent_memory_stays_bounded_across_a_long_session() {
        // A long-lived session (1000+ DOM versions, each generating
        // content for a participant) must not grow the agent's
        // generated-content or timestamp maps: both are bounded to the
        // live generation plus one predecessor.
        use crate::agent::LIVE_GENERATIONS;
        let mut world = lan_world();
        let idx = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://google.com/").unwrap();
        world.poll_participant(idx).unwrap().0.unwrap();
        for _ in 0..1_000 {
            world.host.browser.mutate_dom(|_| {}).unwrap();
            world.sleep(SimDuration::from_millis(3));
            world.poll_participant(idx).unwrap();
            assert!(world.host.agent.content_cache_len() <= LIVE_GENERATIONS);
            assert!(world.host.agent.timestamps_len() <= LIVE_GENERATIONS);
        }
        assert!(world.host.agent.stats.timestamp_evictions.get() >= 999);
        assert!(world.host.agent.stats.content_evictions.get() > 0);
        // The participant is still fully synchronized at the end.
        let hd = world.host.browser.doc.as_ref().unwrap();
        let pd = world.participants[idx].browser.doc.as_ref().unwrap();
        assert_eq!(
            hd.text_content(hd.body().unwrap()),
            pd.text_content(pd.body().unwrap())
        );
    }

    #[test]
    fn join_and_leave_lifecycle() {
        let mut world = lan_world();
        let a = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://live.com/").unwrap();
        world.poll_participant(a).unwrap();
        assert_eq!(world.host.agent.participant_count(), 1);
        world.remove_participant(a);
        assert!(world.host.agent.participant_count() == 0);
        assert!(world.participants.is_empty());
    }
}
