//! The Fig.-2 request path of one session.
//!
//! Paper Fig. 2 is one procedure: classify the request line, then serve
//! the initial page, a cached object, or an Ajax poll that merges the
//! piggybacked actions, inspects timestamps, and answers with new content
//! or an empty reply. [`RequestPath`] is that procedure, written once,
//! and the session host in [`crate::tcp`] (`SharedHost`) owns one per
//! session. Every engine and the world sim reach it through the session
//! router; the paper world ([`crate::session`]) calls the host
//! in-process, in virtual time.
//!
//! Per session the path holds what the procedure reads: the key, the
//! path prefix, the interaction policy, the park ceiling, and the
//! initial-page and empty-poll prefabs. It also holds the per-participant
//! state and one set of request counters. The host supplies the rest: it
//! merges a poll's allowed actions into the host page, handing back the
//! host effects they ask for, and it hands out the [`ContentSnapshot`] it
//! published last. Every success reply is a prefab frozen into the
//! session or the snapshot: a head serialized once (pre-signed when
//! response authentication is on) over a shared body, so answering copies
//! no body bytes.
//!
//! **Lock ordering:** the path takes only participant-shard locks, which
//! are leaves. A merge takes the host mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rcb_browser::UserAction;
use rcb_cache::MappingTable;
use rcb_crypto::SessionKey;
use rcb_http::{Method, Request, Response, Status};
use rcb_util::SimDuration;

use crate::agent::{parse_poll_body, AgentConfig, HostEffect, ParticipantShards};
use crate::auth;
use crate::policy::InteractionPolicy;
use crate::snapshot::{prefab_response, ContentSnapshot};
use crate::tcp::SharedHost;

/// A request as Fig. 2 classifies it, parsed without side effects: what
/// answering it will take. Classifying moves no counter and records no
/// participant state, so a caller may classify, decide not to answer yet
/// (an event loop that must not block), and hand the request on.
pub(crate) enum Work<'r> {
    /// `GET /`: the initial page.
    Join,
    /// `GET /cache/...`: an object, by its prefix-stripped path.
    Object(&'r str),
    /// `POST /poll`.
    Poll(PollWork),
    /// Anything else: `404`.
    Unknown,
}

/// A poll's parsed parts.
pub(crate) struct PollWork {
    /// The participant id, when `p` is well-formed.
    pid: Option<u64>,
    /// The participant's content timestamp (`t=`).
    client_time: u64,
    /// The piggybacked actions the interaction policy allows: what the
    /// host must merge. Actions the policy would discard never reach the
    /// host (nor its mutex).
    merge: Vec<UserAction>,
}

impl Work<'_> {
    /// Whether answering merges into the host page: the one step of Fig.
    /// 2 that can block (the host mutex, then maybe a regeneration).
    pub(crate) fn merges(&self) -> bool {
        matches!(self, Work::Poll(poll) if !poll.merge.is_empty())
    }
}

/// How the request path answers one request.
pub(crate) enum Answer {
    /// Send this response now.
    Reply(Response),
    /// An up-to-date poll asked to wait (`lp=`). An engine that holds it
    /// answers at the next publication with [`RequestPath::wake_reply`],
    /// or at the deadline with [`RequestPath::timeout_reply`]; one that
    /// cannot sends the timeout reply at once, as an engine at its park
    /// cap and the paper world do.
    Park(ParkRequest),
}

/// A long-poll the request path offered to park.
pub(crate) struct ParkRequest {
    /// The acked generation: the snapshot's `dom_version` when the poll
    /// parked. A version, not a `doc_time`: versions are strictly
    /// monotonic under the publish guard, while doc-times are wall-clock
    /// milliseconds and can collide across rapid publishes.
    pub(crate) version: u64,
    /// The client's requested wait, capped by the park ceiling.
    pub(crate) max_wait: Duration,
    /// Delta capability, negotiated per request (`d=1`, MAC-covered like
    /// `lp=`): the wake reply may be the delta from `version`.
    delta_ok: bool,
}

/// Atomic request counters (read out as [`TcpHostStats`]).
#[derive(Debug, Default)]
struct RequestStats {
    connections: AtomicU64,
    object_requests: AtomicU64,
    polls_with_content: AtomicU64,
    polls_empty: AtomicU64,
    auth_failures: AtomicU64,
    bad_requests: AtomicU64,
    polls_in_flight: AtomicU64,
    max_concurrent_polls: AtomicU64,
    body_bytes_copied: AtomicU64,
    polls_parked: AtomicU64,
    polls_woken: AtomicU64,
    polls_park_timeouts: AtomicU64,
    polls_woken_delta: AtomicU64,
    delta_fallbacks: AtomicU64,
    host_effects_dropped: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time copy of one session's request counters
/// ([`crate::tcp::TcpHost::stats`], [`crate::router::SessionHandle::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpHostStats {
    /// New-connection (`GET /`) requests served.
    pub connections: u64,
    /// Object (`GET /cache/{key}`) requests served successfully.
    pub object_requests: u64,
    /// Polls answered with new content.
    pub polls_with_content: u64,
    /// Polls answered empty.
    pub polls_empty: u64,
    /// Requests rejected by authentication.
    pub auth_failures: u64,
    /// Malformed requests: polls without a well-formed participant id,
    /// and object requests without token material or with a malformed
    /// cache path.
    pub bad_requests: u64,
    /// The highest number of polls ever observed inside the handler at
    /// once — direct evidence the poll path is not serialized.
    pub max_concurrent_polls: u64,
    /// Response-body bytes heap-copied while building responses, summed
    /// over every request served. A prefab's body is always shared (freezing
    /// turns an owned body into an `Arc`), so cloning one copies nothing,
    /// and on the hot read path this stays at zero no matter how large the
    /// content is or how many polls are served — only the owned bodies of
    /// unfrozen error replies ever add to it.
    pub body_bytes_copied: u64,
    /// Up-to-date polls that asked to park as long-polls (`lp=` requests)
    /// instead of being answered empty immediately. The paper world holds
    /// no request open and answers each at once with the timeout reply
    /// (counted in `polls_park_timeouts` too).
    pub polls_parked: u64,
    /// Parked polls completed by a snapshot publication (each also counts
    /// in `polls_with_content`).
    pub polls_woken: u64,
    /// Parked polls that hit their park deadline and fell back to the
    /// empty reply (each also counts in `polls_empty`).
    pub polls_park_timeouts: u64,
    /// Woken polls answered with a delta (or batched-delta) prefab
    /// instead of the full Fig.-4 XML — requires the request to have
    /// advertised `d=1` and the acked generation to still be in the
    /// snapshot's delta ring (each also counts in `polls_woken`).
    pub polls_woken_delta: u64,
    /// Woken delta-capable polls that fell back to the full XML because
    /// the acked generation had left the ring — the missed-generation
    /// path of the negotiation (each also counts in `polls_woken`).
    pub delta_fallbacks: u64,
    /// Long-polls the serving engine degraded to the immediate empty
    /// reply because the park cap was reached (each also counts in
    /// `polls_parked` — the agent offered the park; the engine declined
    /// it). Read from the shared [`rcb_http::server::ParkHub`], so it
    /// spans every backend; always zero in the paper world, which holds
    /// no park.
    pub polls_shed_at_park_cap: u64,
    /// Host effects of merged participant actions (navigations, form
    /// submissions, clicks) that nothing carried out. The session router
    /// counts every one, under any navigation policy: no engine has a
    /// host-effect executor yet. The paper world runs its effects under
    /// its navigation policy and counts none.
    pub host_effects_dropped: u64,
}

/// Decrements the in-flight poll gauge even on early returns.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One session's Fig.-2 procedure (see module docs).
pub(crate) struct RequestPath {
    key: SessionKey,
    path_prefix: String,
    interaction_policy: InteractionPolicy,
    park_timeout: SimDuration,
    /// Prefab of the initial page (static per session), cloned per join.
    initial_page: Response,
    /// Prefab of the empty poll reply (§4.1.1's "response with empty
    /// content"), identical for every up-to-date participant.
    empty_poll: Response,
    /// Per-participant state, sharded so concurrent polls from different
    /// participants rarely contend.
    pub(crate) participants: ParticipantShards,
    stats: RequestStats,
}

impl RequestPath {
    /// Freezes the session's configuration and static prefabs.
    pub(crate) fn new(key: SessionKey, config: &AgentConfig) -> RequestPath {
        let sign_with = config.authenticate_responses.then_some(&key);
        let initial_page = prefab_response(
            Status::OK,
            "text/html; charset=utf-8",
            Arc::from(initial_page_for(config.poll_interval).into_bytes()),
            sign_with,
        );
        let empty_poll = prefab_response(
            Status::OK,
            "application/xml; charset=utf-8",
            Arc::from(Vec::new()),
            sign_with,
        );
        RequestPath {
            path_prefix: config.path_prefix.clone(),
            interaction_policy: config.interaction_policy.clone(),
            park_timeout: config.park_timeout,
            initial_page,
            empty_poll,
            participants: ParticipantShards::new(),
            stats: RequestStats::default(),
            key,
        }
    }

    /// The session key.
    pub(crate) fn key(&self) -> &SessionKey {
        &self.key
    }

    /// Classifies one request (see [`Work`]). Classification is
    /// session-local: the configured path prefix is stripped first (`""`
    /// for the classic deployment), so a routed `/s/{sid}/poll`
    /// classifies like `/poll`.
    pub(crate) fn classify<'r>(&self, req: &'r Request) -> Work<'r> {
        let local = req.path().strip_prefix(self.path_prefix.as_str());
        match (req.method, local) {
            (Method::Get, Some("/")) => Work::Join,
            (Method::Get, Some(path)) if path.starts_with("/cache/") => Work::Object(path),
            (Method::Post, Some("/poll")) => {
                let pid = req.query_param("p").and_then(|v| v.parse::<u64>().ok());
                // Borrowed parse: `from_utf8_lossy` only allocates when the
                // body is not valid UTF-8 (never for snippet-built polls).
                let (client_time, mut merge) = parse_poll_body(&String::from_utf8_lossy(&req.body));
                if !pid.is_some_and(|pid| self.interaction_policy.allows(pid)) {
                    merge.clear();
                }
                Work::Poll(PollWork {
                    pid,
                    client_time,
                    merge,
                })
            }
            _ => Work::Unknown,
        }
    }

    /// Answers a request classified as `work` against `host`, with the
    /// host effects of a merged poll's actions (empty for every other
    /// request).
    pub(crate) fn answer(
        &self,
        req: &Request,
        work: Work<'_>,
        host: &SharedHost,
    ) -> (Answer, Vec<HostEffect>) {
        let response = match work {
            Work::Join => {
                bump(&self.stats.connections);
                self.initial_page.clone()
            }
            Work::Object(path) => self.object(req, path, &host.current_snapshot()),
            Work::Poll(poll) => return self.poll(req, poll, host),
            Work::Unknown => Response::error(Status::NOT_FOUND, "unknown request type"),
        };
        (Answer::Reply(self.sent(response)), Vec::new())
    }

    /// Object requests (Fig. 2, middle path): token check, key parse,
    /// snapshot lookup. `local` is the request path with the session
    /// prefix stripped; the token is verified over the *full* path, so a
    /// token minted in one session cannot fetch from another.
    fn object(&self, req: &Request, local: &str, snap: &ContentSnapshot) -> Response {
        // A missing `k` and an empty `k=` are the same defect — no token
        // material to verify — and answer alike: 400, before any MAC work.
        let token = match req.query_param("k") {
            Some(t) if !t.is_empty() => t,
            _ => {
                bump(&self.stats.bad_requests);
                return Response::error(Status::BAD_REQUEST, auth::OBJECT_TOKEN_REQUIRED);
            }
        };
        if !auth::verify_object_token(&self.key, req.path(), &token) {
            bump(&self.stats.auth_failures);
            return Response::error(Status::UNAUTHORIZED, "bad object token");
        }
        let Some(cache_key) = MappingTable::parse_agent_path(local) else {
            bump(&self.stats.bad_requests);
            return Response::error(Status::BAD_REQUEST, "malformed cache path");
        };
        // The snapshot maps the keys of its two live generations only: a
        // key never minted, or aged out since, is unmapped here.
        match snap.object(cache_key) {
            Some(obj) => {
                bump(&self.stats.object_requests);
                obj.clone()
            }
            None => Response::error(Status::NOT_FOUND, "unmapped cache key"),
        }
    }

    /// Ajax polls (Fig. 2, right path): HMAC verification, data merging,
    /// timestamp inspection, and the content, empty or park answer, with
    /// the host effects the merged actions ask for.
    fn poll(&self, req: &Request, poll: PollWork, host: &SharedHost) -> (Answer, Vec<HostEffect>) {
        let in_flight = self.stats.polls_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats
            .max_concurrent_polls
            .fetch_max(in_flight, Ordering::Relaxed);
        let _guard = InFlightGuard(&self.stats.polls_in_flight);

        if !auth::verify_request(&self.key, req) {
            bump(&self.stats.auth_failures);
            let reply = Response::error(Status::UNAUTHORIZED, "HMAC verification failed");
            return (self.reply(reply), Vec::new());
        }
        // Every participant must carry a well-formed `p` id: falling back
        // to a default would collapse all such participants into one
        // shared pid 0.
        let Some(pid) = poll.pid else {
            bump(&self.stats.bad_requests);
            let reply = Response::error(Status::BAD_REQUEST, "missing or malformed participant id");
            return (self.reply(reply), Vec::new());
        };
        self.participants.insert(pid);

        // Data merging: the allowed actions only.
        let effects = if poll.merge.is_empty() {
            Vec::new()
        } else {
            host.merge(pid, poll.merge)
        };
        let answer = self.inspect(req, poll.client_time, &host.current_snapshot());
        (answer, effects)
    }

    /// Timestamp inspection: the participant's content timestamp against
    /// the current snapshot's.
    fn inspect(&self, req: &Request, client_time: u64, snap: &ContentSnapshot) -> Answer {
        if client_time < snap.doc_time {
            bump(&self.stats.polls_with_content);
            // Every participant's content poll for this generation is
            // byte-identical, frozen once when the snapshot was built.
            return self.reply(snap.poll_response());
        }
        // Up to date. Park if (and only if) the request asked to.
        let requested_ms = req
            .query_param("lp")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0);
        if let Some(ms) = requested_ms {
            bump(&self.stats.polls_parked);
            return Answer::Park(ParkRequest {
                version: snap.dom_version,
                max_wait: Duration::from_millis(ms)
                    .min(Duration::from_micros(self.park_timeout.as_micros())),
                delta_ok: req.query_param("d").is_some_and(|v| v == "1"),
            });
        }
        bump(&self.stats.polls_empty);
        self.reply(self.empty_poll.clone())
    }

    /// The reply to a parked poll woken by a publication: `snap` must be
    /// the snapshot published *now*, not a capture from park time.
    pub(crate) fn wake_reply(&self, park: &ParkRequest, snap: &ContentSnapshot) -> Response {
        bump(&self.stats.polls_woken);
        bump(&self.stats.polls_with_content);
        // The delta for the generation this poll acked when it parked, when
        // the client can apply it and the ring still covers that base; the
        // full XML otherwise (a ring miss is the negotiated fallback).
        let response = if !park.delta_ok {
            snap.poll_response()
        } else if let Some(delta) = snap.delta_response_for(park.version) {
            bump(&self.stats.polls_woken_delta);
            delta
        } else {
            bump(&self.stats.delta_fallbacks);
            snap.poll_response()
        };
        self.sent(response)
    }

    /// The reply to a park that hit its deadline (or was never admitted):
    /// the empty-poll prefab.
    pub(crate) fn timeout_reply(&self) -> Response {
        bump(&self.stats.polls_park_timeouts);
        bump(&self.stats.polls_empty);
        self.sent(self.empty_poll.clone())
    }

    fn reply(&self, response: Response) -> Answer {
        Answer::Reply(self.sent(response))
    }

    /// Copy accounting for every response leaving the path: prefab and
    /// shared bodies contribute zero.
    fn sent(&self, response: Response) -> Response {
        self.stats
            .body_bytes_copied
            .fetch_add(response.body.copied_len() as u64, Ordering::Relaxed);
        response
    }

    /// The request counters; `polls_shed_at_park_cap` is the serving
    /// engine's to fill in.
    pub(crate) fn stats(&self) -> TcpHostStats {
        let s = &self.stats;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TcpHostStats {
            connections: get(&s.connections),
            object_requests: get(&s.object_requests),
            polls_with_content: get(&s.polls_with_content),
            polls_empty: get(&s.polls_empty),
            auth_failures: get(&s.auth_failures),
            bad_requests: get(&s.bad_requests),
            max_concurrent_polls: get(&s.max_concurrent_polls),
            body_bytes_copied: get(&s.body_bytes_copied),
            polls_parked: get(&s.polls_parked),
            polls_woken: get(&s.polls_woken),
            polls_park_timeouts: get(&s.polls_park_timeouts),
            polls_woken_delta: get(&s.polls_woken_delta),
            delta_fallbacks: get(&s.delta_fallbacks),
            polls_shed_at_park_cap: 0,
            host_effects_dropped: get(&s.host_effects_dropped),
        }
    }

    /// Counts host effects that nothing carries out; most requests carry
    /// none and touch no counter.
    pub(crate) fn drop_host_effects(&self, effects: Vec<HostEffect>) {
        if !effects.is_empty() {
            self.stats
                .host_effects_dropped
                .fetch_add(effects.len() as u64, Ordering::Relaxed);
        }
    }
}

/// The initial HTML page carrying Ajax-Snippet (paper §3.1 step 2).
///
/// The head contains the snippet script element (kept across every later
/// content update); the body shows the key-entry form a participant fills
/// with the out-of-band secret (§3.4).
fn initial_page_for(poll_interval: SimDuration) -> String {
    format!(
        "<!DOCTYPE html><html><head><title>RCB co-browsing session</title>\
         <script id=\"ajax-snippet\" type=\"text/javascript\">\
         /* Ajax-Snippet: polls RCB-Agent every {interval} ms, piggybacks \
         user actions, applies newContent updates. */\
         var RCB_POLL_INTERVAL = {interval};\
         function rcbPoll() {{ /* XMLHttpRequest POST /poll */ }}\
         function rcbSubmit(id) {{ /* capture form, piggyback */ return false; }}\
         function rcbClick(id) {{ /* send click action */ return false; }}\
         function rcbInput(id) {{ /* send field edit */ return true; }}\
         </script></head><body>\
         <form id=\"rcb-join\" action=\"/join\" method=\"post\">\
         <input type=\"password\" name=\"session-key\" value=\"\">\
         <input type=\"submit\" value=\"Join session\"></form>\
         <div id=\"rcb-status\">waiting for first synchronization…</div>\
         </body></html>",
        interval = poll_interval.as_millis()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::tests::{one_session, respond};
    use crate::router::SessionHandle;
    use crate::snippet::{AjaxSnippet, SnippetOutcome};
    use rcb_browser::{Browser, BrowserKind};
    use rcb_http::server::Handler;
    use rcb_origin::OriginRegistry;
    use rcb_sim::link::Pipe;
    use rcb_sim::profiles::NetProfile;
    use rcb_util::{DetRng, SimTime, VirtualClock};

    fn loaded_host(site: &str) -> Browser {
        let mut origins = OriginRegistry::with_alexa20();
        let profile = NetProfile::lan();
        let mut pipe = Pipe::new(profile.host_origin);
        let mut b = Browser::new(BrowserKind::Firefox);
        b.navigate(
            &rcb_url::Url::parse(&format!("http://{site}/")).unwrap(),
            &mut origins,
            &mut pipe,
            &profile,
            SimTime::ZERO,
        )
        .unwrap();
        b
    }

    /// One session over a loaded host browser, its handler, the virtual
    /// clock it runs on, and a participant synchronizing from the
    /// replies.
    struct One {
        session: SessionHandle,
        handler: Handler,
        clock: Arc<VirtualClock>,
        snippet: AjaxSnippet,
        participant: Browser,
    }

    impl One {
        fn new(site: &str) -> One {
            let key = SessionKey::generate_deterministic(&mut DetRng::new(11));
            let (session, handler, clock) =
                one_session(loaded_host(site), key.clone(), AgentConfig::default());
            let mut participant = Browser::new(BrowserKind::Firefox);
            let join = respond(&handler, Request::get("/"));
            participant.doc = Some(rcb_html::parse_document(&join.body_str()));
            One {
                session,
                handler,
                clock,
                snippet: AjaxSnippet::new(1, key, SimDuration::from_secs(1)),
                participant,
            }
        }

        /// One snippet poll round; whether the reply was an update.
        fn poll(&mut self) -> bool {
            let reply = respond(&self.handler, self.snippet.build_poll());
            let outcome = self
                .snippet
                .process_response(&reply, &mut self.participant)
                .unwrap();
            matches!(outcome, SnippetOutcome::Updated { .. })
        }

        fn advance(&self, secs: u64) {
            self.clock
                .advance_to(self.clock.now() + SimDuration::from_secs(secs));
        }
    }

    fn append_div(doc: &mut rcb_html::Document) {
        let body = doc.body().unwrap();
        let div = doc.create_element("div");
        let text = doc.create_text("host edit");
        doc.append_child(div, text).unwrap();
        doc.append_child(body, div).unwrap();
    }

    /// A merge that changes nothing — a field of a missing form, a
    /// missing field, the value the field already holds, a submission of
    /// such fields — leaves the DOM version, the generation count and the
    /// published document where they were; a real change still moves all
    /// three.
    #[test]
    fn merges_that_change_nothing_leave_the_dom_version_alone() {
        let mut one = One::new("google.com");
        assert!(one.poll(), "first poll delivers content");
        let state = |one: &One| {
            (
                one.session.dom_version(),
                one.session.with_agent_stats(|s| s.generations.get()),
                one.session.published_doc_time(),
            )
        };
        let fill = |form: &str, field: &str, value: &str| UserAction::FormInput {
            form: form.into(),
            field: field.into(),
            value: value.into(),
        };
        let no_ops = |value: &str| {
            [
                fill("nope", "q", "x"),
                fill("q", "nope", "x"),
                fill("q", "q", value),
                UserAction::FormSubmit {
                    form: "q".into(),
                    fields: vec![("q".into(), value.into()), ("nope".into(), "x".into())],
                },
            ]
        };
        // The search field starts out holding "".
        let before = state(&one);
        for action in no_ops("") {
            one.advance(1);
            one.snippet.capture_action(action.clone());
            assert!(!one.poll(), "{action:?} changed the page");
            assert_eq!(state(&one), before, "{action:?}");
        }
        one.advance(1);
        one.snippet.capture_action(fill("q", "q", "co-fill"));
        assert!(one.poll(), "a real change ships");
        let after = state(&one);
        assert_eq!(after.0, before.0 + 1);
        assert_eq!(after.1, before.1 + 1);
        assert!(after.2 > before.2, "a new document was published");
        for action in no_ops("co-fill") {
            one.advance(1);
            one.snippet.capture_action(action.clone());
            assert!(!one.poll(), "{action:?} changed the page");
            assert_eq!(state(&one), after, "{action:?}");
        }
    }

    #[test]
    fn pointer_moves_on_an_unchanged_page_keep_only_the_latest() {
        let mut one = One::new("google.com");
        assert!(one.poll(), "first poll delivers content");
        const MOVES: u32 = 10_000;
        for i in 1..=MOVES {
            let pos = i as i32;
            one.snippet
                .capture_action(UserAction::MouseMove { x: pos, y: pos });
            assert!(!one.poll(), "moves leave the page unchanged");
        }
        one.advance(1);
        one.session.mutate_page(append_div).unwrap();
        let update = respond(&one.handler, one.snippet.build_poll());
        let content = rcb_xml::parse_new_content(&update.body_str())
            .unwrap()
            .expect("the edit ships");
        let last = MOVES as i32;
        assert_eq!(
            content.user_actions,
            UserAction::encode_batch(&[UserAction::MouseMove { x: last, y: last }])
        );
    }
}
