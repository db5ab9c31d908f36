//! The participant side of the protocol (paper §4.2, with §3.1 steps
//! 5–8), written once as a sans-IO state machine.
//!
//! A participant joins with `GET {prefix}/`, then polls: Ajax-Snippet
//! sends a signed poll carrying the actions captured since the last one,
//! applies the reply with the Fig.-5 update, and the browser fetches the
//! agent objects the new page names (`/`-relative URLs it has not
//! cached). A `503` shed is waited out with [`RetryPolicy`]'s seeded
//! back-off, and the shed request is then sent again unchanged.
//!
//! `ParticipantCore` never touches a socket or a clock. A driver hands
//! it each reply, and it answers with the next request to write or the
//! back-off to wait before the re-send. Two drivers give it I/O:
//! `TcpParticipant` ([`crate::tcp`]) over a blocking kernel socket, and
//! `WorldParticipant` ([`crate::worldsim`]) over the seeded fabric.
//! Each keeps only connect, read, framing, its polling cadence and
//! reconnects.
//!
//! Re-sending a shed request unchanged is safe: every `503` the host
//! sends (the admission mark, the session cap, the fairness gate)
//! answers before the handler runs, so the actions a shed poll carries
//! were never merged.

use std::collections::VecDeque;
use std::time::Duration;

use rcb_browser::Browser;
use rcb_http::{Method, Request, Response, Status};
use rcb_util::{DetRng, RcbError, Result, SimTime};

use crate::snippet::{AjaxSnippet, SnippetOutcome};

/// Seed of every participant's shed back-off, mixed with its pid so a
/// cohort shed in the same instant fans back out.
const SHED_SEED: u64 = 0x5ced_ba11;

/// The shed back-off seed of participant `pid` on a socket.
pub(crate) fn shed_seed(pid: u64) -> u64 {
    SHED_SEED ^ pid
}

/// The shed back-off seed of participant `pid` in a world seeded
/// `world_seed`: each world seed sheds a herd on its own schedule, and
/// the same seed replays it.
pub(crate) fn world_shed_seed(world_seed: u64, pid: u64) -> u64 {
    shed_seed(pid) ^ world_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Seeded jittered exponential backoff for shed (`503`) replies.
///
/// Deterministic given its seed: every delay is drawn from the policy's
/// own [`DetRng`], so tests replay byte-identically while distinct
/// clients (distinct seeds) still spread out after a shed storm.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry nominal delay; doubles per attempt.
    pub base: Duration,
    /// Ceiling on the nominal delay (the jitter span, and the whole
    /// delay when the server sent no `Retry-After`).
    pub max_delay: Duration,
    /// Re-sends before a participant that gives up returns the `503`.
    pub max_retries: u32,
    rng: DetRng,
}

impl RetryPolicy {
    /// 100 ms base, 6.4 s cap (six doublings), 5 retries — enough for a
    /// shed storm to drain at the default `Retry-After` horizon.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(100),
            max_delay: Duration::from_millis(6400),
            max_retries: 5,
            rng: DetRng::new(seed),
        }
    }

    /// The delay before retry number `attempt` (0-based), around the
    /// nominal `base * 2^attempt` capped at `max_delay`. A server
    /// `Retry-After` is honored as a floor with additive jitter spanning
    /// the nominal delay (never retry *earlier* than the server asked,
    /// and each further shed spreads the cohort wider); otherwise half
    /// jitter (uniform in `[nominal/2, nominal]`) decorrelates clients
    /// shed in the same instant. One draw per call.
    pub fn delay_for(&mut self, attempt: u32, retry_after: Option<u64>) -> Duration {
        let nominal = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let ms = nominal.as_millis() as u64;
        match retry_after {
            Some(secs) => {
                Duration::from_secs(secs) + Duration::from_millis(self.rng.next_below(ms + 1))
            }
            None => Duration::from_millis(ms / 2 + self.rng.next_below(ms / 2 + 1)),
        }
    }
}

/// Whether `url`, named by an applied update, is an object the agent
/// still has to serve this participant: a `/`-relative (agent) URL that
/// is not in its browser cache yet. Absolute URLs are the origins' to
/// serve (non-cache mode).
pub(crate) fn agent_object_to_fetch(url: &str, browser: &Browser) -> bool {
    url.starts_with('/') && !browser.cache.contains(url)
}

/// What one reply did.
#[derive(Debug)]
pub(crate) enum Reply {
    /// The join's page is loaded.
    Joined,
    /// A poll's reply was applied; the objects it names are queued.
    Polled(SnippetOutcome),
    /// An object reply; `stored` when it went into the browser cache.
    Object { stored: bool },
    /// A `503`: the request is held, to be sent again unchanged after
    /// this back-off.
    Shed(Duration),
}

/// One participant's protocol state: joined or not, the request on the
/// wire (or held after a shed), the agent objects still to fetch, and
/// the shed back-off. The browser and the snippet stay with the driver,
/// which lends them to each call.
pub(crate) struct ParticipantCore {
    joined: bool,
    /// The request on the wire, or held for its re-send after a shed.
    /// Until the join succeeds it is the join; after, a `POST` is the
    /// poll and a `GET` an object fetch.
    sent: Option<Request>,
    /// Whether `sent` is held, waiting out its back-off.
    held: bool,
    /// Agent object URLs the last poll named, still to fetch.
    objects: VecDeque<String>,
    retry: RetryPolicy,
    /// Sheds since the last reply that was not one: the back-off's
    /// exponent.
    sheds_in_a_row: u32,
    /// Whether a request shed `max_retries` times in a row fails with
    /// the `503` (a blocking caller wants an answer) instead of backing
    /// off again.
    give_up: bool,
}

impl ParticipantCore {
    /// A participant that has not joined yet, its shed back-off seeded
    /// with `shed_seed`; `give_up` as on the field.
    pub(crate) fn new(shed_seed: u64, give_up: bool) -> ParticipantCore {
        ParticipantCore {
            joined: false,
            sent: None,
            held: false,
            objects: VecDeque::new(),
            retry: RetryPolicy::seeded(shed_seed),
            sheds_in_a_row: 0,
            give_up,
        }
    }

    /// Whether the join succeeded.
    pub(crate) fn joined(&self) -> bool {
        self.joined
    }

    /// Whether a request is on the wire, its reply not yet fed.
    pub(crate) fn on_wire(&self) -> bool {
        self.sent.is_some() && !self.held
    }

    /// Whether the request on the wire is a poll.
    pub(crate) fn polling(&self) -> bool {
        !self.held && self.joined && matches!(&self.sent, Some(req) if req.method == Method::Post)
    }

    /// Whether a shed request waits out its back-off.
    pub(crate) fn backing_off(&self) -> bool {
        self.held
    }

    /// Whether the round goes on: a shed request to re-send, or an
    /// object to fetch.
    pub(crate) fn round_continues(&self) -> bool {
        self.held || !self.objects.is_empty()
    }

    /// Starts a round: the join until one succeeded, then a signed poll
    /// carrying the snippet's pending actions.
    pub(crate) fn begin(&mut self, snippet: &mut AjaxSnippet) -> &Request {
        let request = if self.joined {
            snippet.build_poll()
        } else {
            Request::get(format!("{}/", snippet.base_path))
        };
        self.held = false;
        self.sent.insert(request)
    }

    /// The next request of the round: the shed one, unchanged, once its
    /// back-off is over, else the next queued object; `None` when the
    /// round is over.
    pub(crate) fn resume(&mut self) -> Option<&Request> {
        if !self.held {
            self.sent = Some(Request::get(self.objects.pop_front()?));
        }
        self.held = false;
        self.sent.as_ref()
    }

    /// [`ParticipantCore::resume`] while the round goes on, else
    /// [`ParticipantCore::begin`] the next one.
    pub(crate) fn next(&mut self, snippet: &mut AjaxSnippet) -> &Request {
        if self.round_continues() {
            return self.resume().expect("the round goes on");
        }
        self.begin(snippet)
    }

    /// Feeds the reply to the request on the wire. A shed is held for
    /// its re-send unless this core gives up and the request was shed
    /// `max_retries` times in a row already; then the `503` is handled
    /// like any other failure: a join or a poll fails with it, and an
    /// object is skipped.
    pub(crate) fn on_response(
        &mut self,
        resp: Response,
        snippet: &mut AjaxSnippet,
        browser: &mut Browser,
    ) -> Result<Reply> {
        let Some(sent) = self.sent.take_if(|_| !self.held) else {
            return Err(RcbError::Protocol(
                "response arrived with no request outstanding".into(),
            ));
        };
        let exhausted = self.give_up && self.sheds_in_a_row >= self.retry.max_retries;
        if resp.status == Status::SERVICE_UNAVAILABLE && !exhausted {
            let delay = self
                .retry
                .delay_for(self.sheds_in_a_row, resp.retry_after());
            self.sheds_in_a_row = self.sheds_in_a_row.saturating_add(1);
            self.sent = Some(sent);
            self.held = true;
            return Ok(Reply::Shed(delay));
        }
        self.sheds_in_a_row = 0;
        if !self.joined {
            if !resp.status.is_success() {
                return Err(RcbError::Protocol(format!(
                    "join failed with status {}",
                    resp.status.0
                )));
            }
            browser.doc = Some(rcb_html::parse_document(&resp.body_str()));
            self.joined = true;
            Ok(Reply::Joined)
        } else if sent.method == Method::Post {
            let outcome = snippet.process_response(&resp, browser)?;
            if let SnippetOutcome::Updated { object_urls, .. } = &outcome {
                let agent_objects = object_urls
                    .iter()
                    .filter(|url| agent_object_to_fetch(url, browser));
                self.objects.extend(agent_objects.cloned());
            }
            Ok(Reply::Polled(outcome))
        } else {
            let stored = resp.status.is_success();
            if stored {
                let content_type = resp.content_type().unwrap_or_default();
                browser
                    .cache
                    .store(&sent.target, &content_type, resp.body, SimTime::ZERO);
            }
            Ok(Reply::Object { stored })
        }
    }

    /// The connection dropped: the request on the wire, a held one and
    /// the queued objects are lost (delivery is at most once), and the
    /// next round starts afresh.
    pub(crate) fn on_disconnect(&mut self) {
        self.sent = None;
        self.held = false;
        self.objects.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use rcb_browser::{BrowserKind, UserAction};
    use rcb_crypto::SessionKey;
    use rcb_http::Handler;
    use rcb_util::SimDuration;

    const PAGE: &str = "<html><head><title>t</title></head><body><p>hi</p></body></html>";

    /// A handler that sheds the first poll carrying an action with
    /// `503 + Retry-After: {retry_after}` before `inner` sees it, as the
    /// admission mark, the session cap and the fairness gate do; with the
    /// count of action-carrying polls it saw.
    pub(crate) fn shed_first_action_poll(
        inner: Handler,
        retry_after: &'static str,
    ) -> (Handler, Arc<AtomicU64>) {
        let action_polls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&action_polls);
        let handler: Handler = Arc::new(move |req: Request| {
            let carries_action = req.path().ends_with("/poll") && req.body.contains(&b'\n');
            if carries_action && seen.fetch_add(1, Ordering::Relaxed) == 0 {
                return Response::error(Status::SERVICE_UNAVAILABLE, "shed")
                    .with_header("Retry-After", retry_after)
                    .into();
            }
            inner(req)
        });
        (handler, action_polls)
    }

    fn participant(give_up: bool) -> (ParticipantCore, AjaxSnippet, Browser) {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(5));
        (
            ParticipantCore::new(shed_seed(1), give_up),
            AjaxSnippet::new(1, key, SimDuration::from_secs(1)),
            Browser::new(BrowserKind::Firefox),
        )
    }

    fn shed() -> Response {
        Response::error(Status::SERVICE_UNAVAILABLE, "overloaded").with_header("Retry-After", "0")
    }

    fn page() -> Response {
        Response::with_body(Status::OK, "text/html", PAGE.as_bytes().to_vec())
    }

    /// Joins `core` with one `200`.
    fn join(core: &mut ParticipantCore, snippet: &mut AjaxSnippet, browser: &mut Browser) {
        core.begin(snippet);
        let reply = core.on_response(page(), snippet, browser).unwrap();
        assert!(matches!(reply, Reply::Joined));
    }

    #[test]
    fn retry_policy_is_seeded_jittered_exponential() {
        let mut a = RetryPolicy::seeded(7);
        let mut b = RetryPolicy::seeded(7);
        let da: Vec<_> = (0..4).map(|i| a.delay_for(i, None)).collect();
        let db: Vec<_> = (0..4).map(|i| b.delay_for(i, None)).collect();
        assert_eq!(da, db, "same seed, same schedule");
        for (i, d) in da.iter().enumerate() {
            let nominal = 100u64 << i;
            let ms = d.as_millis() as u64;
            assert!(
                ms >= nominal / 2 && ms <= nominal,
                "attempt {i}: {ms}ms outside [{}, {nominal}]",
                nominal / 2
            );
        }
        // Retry-After is a floor: never retry earlier than the server
        // asked, jitter only stretches it.
        let d = a.delay_for(0, Some(2));
        assert!(d >= Duration::from_secs(2));
        assert!(d <= Duration::from_secs(2) + Duration::from_millis(100));
        // Under Retry-After the jitter spans the nominal delay of the
        // attempt (800 ms at attempt 3), not one base.
        let draws: Vec<_> = (0..64).map(|_| a.delay_for(3, Some(2))).collect();
        assert!(draws
            .iter()
            .all(|d| (Duration::from_secs(2)..=Duration::from_millis(2800)).contains(d)));
        assert!(draws.iter().any(|d| *d > Duration::from_millis(2100)));
        // The nominal delay stops doubling at the 6.4 s cap.
        for _ in 0..64 {
            let d = a.delay_for(9, None);
            assert!(
                (Duration::from_millis(3200)..=Duration::from_millis(6400)).contains(&d),
                "attempt 9: {d:?} outside [3.2 s, 6.4 s]"
            );
        }
    }

    #[test]
    fn waits_out_a_shed_then_succeeds() {
        let (mut core, mut snippet, mut browser) = participant(true);
        let join = core.begin(&mut snippet).clone();
        assert_eq!(join.target, "/");
        let reply = core
            .on_response(shed(), &mut snippet, &mut browser)
            .unwrap();
        let Reply::Shed(delay) = reply else {
            panic!("a 503 is a shed, got {reply:?}");
        };
        assert!(
            delay <= Duration::from_millis(100),
            "Retry-After 0: {delay:?}"
        );
        assert!(core.backing_off() && !core.on_wire());
        assert_eq!(core.resume(), Some(&join), "the same join, again");
        let reply = core
            .on_response(page(), &mut snippet, &mut browser)
            .unwrap();
        assert!(matches!(reply, Reply::Joined));
        assert!(core.joined());
        assert_eq!(core.resume(), None, "the join round is over");
    }

    #[test]
    fn a_shed_poll_is_resent_with_its_actions() {
        let (mut core, mut snippet, mut browser) = participant(false);
        join(&mut core, &mut snippet, &mut browser);
        snippet.capture_action(UserAction::FormInput {
            form: "f".into(),
            field: "q".into(),
            value: "kept".into(),
        });
        let poll = core.begin(&mut snippet).clone();
        assert!(String::from_utf8_lossy(&poll.body).contains("kept"));
        assert_eq!(snippet.pending_actions(), 0, "drained into the poll");
        for _ in 0..3 {
            let reply = core
                .on_response(shed(), &mut snippet, &mut browser)
                .unwrap();
            assert!(matches!(reply, Reply::Shed(_)));
            assert!(core.round_continues());
            assert_eq!(core.next(&mut snippet), &poll, "re-sent unchanged");
            assert!(core.polling());
        }
        assert_eq!(snippet.polls_sent, 1, "built once");
    }

    #[test]
    fn a_giving_up_core_fails_after_max_retries() {
        let (mut core, mut snippet, mut browser) = participant(true);
        let max = RetryPolicy::seeded(0).max_retries;
        core.begin(&mut snippet);
        for _ in 0..max {
            let reply = core
                .on_response(shed(), &mut snippet, &mut browser)
                .unwrap();
            assert!(matches!(reply, Reply::Shed(_)));
            core.resume().unwrap();
        }
        let err = core
            .on_response(shed(), &mut snippet, &mut browser)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "protocol error: join failed with status 503"
        );
        // The count starts over: the next join gets its own re-sends.
        join(&mut core, &mut snippet, &mut browser);
        core.begin(&mut snippet);
        for _ in 0..max {
            let reply = core
                .on_response(shed(), &mut snippet, &mut browser)
                .unwrap();
            assert!(matches!(reply, Reply::Shed(_)));
            core.resume().unwrap();
        }
        let err = core
            .on_response(shed(), &mut snippet, &mut browser)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "protocol error: poll failed with status 503"
        );
    }

    #[test]
    fn a_persistent_core_keeps_backing_off() {
        let (mut core, mut snippet, mut browser) = participant(false);
        core.begin(&mut snippet);
        let max = RetryPolicy::seeded(0).max_retries;
        for _ in 0..3 * max {
            let reply = core
                .on_response(shed(), &mut snippet, &mut browser)
                .unwrap();
            assert!(matches!(reply, Reply::Shed(_)));
            core.resume().unwrap();
        }
        core.on_response(page(), &mut snippet, &mut browser)
            .unwrap();
        assert!(core.joined());
    }

    #[test]
    fn a_disconnect_forgets_the_round() {
        let (mut core, mut snippet, mut browser) = participant(false);
        join(&mut core, &mut snippet, &mut browser);
        core.begin(&mut snippet);
        core.on_response(shed(), &mut snippet, &mut browser)
            .unwrap();
        core.on_disconnect();
        assert!(!core.round_continues() && !core.on_wire());
        assert!(core
            .on_response(page(), &mut snippet, &mut browser)
            .is_err());
        assert!(core.next(&mut snippet).target.contains("/poll?p=1"));
    }
}
