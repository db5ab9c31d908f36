//! The one connection state machine behind every server engine.
//!
//! RCB-Agent answers the paper's Fig.-2 requests on one TCP port (§3.1,
//! §3.2.2), and a connection's life — read, parse, admit or shed,
//! dispatch, park, write, guard — is defined once, here, in [`ConnCore`].
//! The core is sans-IO: it never touches a socket or a thread. Its driver
//! feeds it the bytes it read ([`ConnCore::feed`]), end of stream
//! ([`ConnCore::eof`]), the engine-`Clock` time, the admission load, and
//! handler outcomes ([`ConnCore::complete`]); the core answers with the
//! next [`Step`] — a request to dispatch, a staged [`ResponseWriter`] for
//! the driver to drain ([`ConnCore::drain`]), idle, or close — and with
//! its next deadline ([`ConnCore::deadline`]). Three drivers supply the
//! I/O:
//!
//! * the epoll shards ([`crate::epoll`]): readiness-driven nonblocking
//!   sockets, handler calls on a dispatch pool;
//! * the workers engine ([`crate::server`]): blocking reads that rotate
//!   the connection on a read timeout, handler calls inline, parks
//!   blocked in `ParkHub::wait_until`;
//! * the pump-mode [`crate::simdrive::SimDriver`]: nonblocking fabric
//!   reads on virtual time, handler calls inline.
//!
//! What the core owns, so no driver repeats it:
//!
//! * the size-limited parser and the [`PIPELINE_LIMIT`] cap on parsed
//!   requests awaiting an answer (past it the core stops asking for
//!   bytes: TCP backpressure on the socket engines);
//! * the single dispatch position: one request at the handler at a time,
//!   and a parked long-poll holds the position too, so pipelined
//!   responses leave in request order;
//! * parks: admission under `max_parked` (at the cap a park degrades to
//!   its immediate `on_timeout` reply), resolution read off the park's
//!   own `ParkChannel` (a publish beats a simultaneous timeout; a closed
//!   channel resolves as a timeout), and the cap slot released on
//!   resolution or teardown;
//! * the prefab `503 + Retry-After` shed past the admission high-water
//!   mark, and the deferred `400`/`413`/`431` reject, answered after
//!   everything parsed before the refused bytes;
//! * the header-read, idle and write-stall guards and their counters.
//!   The idle clock restarts whenever a response finishes writing, so a
//!   long-poll that waited longer than `idle_timeout` keeps its
//!   connection.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rcb_util::{Clock, SimDuration, SimTime};

use crate::message::{Request, Response, Status};
use crate::parse::{ParseReject, RequestParser};
use crate::serialize::{ResponseWriter, WriteProgress};
use crate::server::{
    HandlerOutcome, OverloadConfig, Park, ParkChannel, ParkHub, ServerConfig, ServerStats,
    ShedResponder,
};

/// Cap on parsed-but-unanswered requests buffered per connection: past
/// this the core stops asking for bytes until the queue drains, so one
/// pipelining flooder cannot balloon memory.
const PIPELINE_LIMIT: usize = 64;

/// What every connection of one server shares: the overload limits, the
/// park hub, the shed-response pool, and the live counters that
/// [`ServerStats`] reports.
pub(crate) struct ConnCtx {
    config: OverloadConfig,
    hub: Arc<ParkHub>,
    shed: ShedResponder,
    requests_shed: AtomicU64,
    header_timeouts: AtomicU64,
    idle_timeouts: AtomicU64,
    write_stall_timeouts: AtomicU64,
    oversize_head: AtomicU64,
    oversize_body: AtomicU64,
}

impl ConnCtx {
    pub(crate) fn new(config: &ServerConfig) -> Arc<ConnCtx> {
        Arc::new(ConnCtx {
            shed: ShedResponder::new(&config.overload),
            config: config.overload.clone(),
            hub: Arc::clone(&config.park_hub),
            requests_shed: AtomicU64::new(0),
            header_timeouts: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
            write_stall_timeouts: AtomicU64::new(0),
            oversize_head: AtomicU64::new(0),
            oversize_body: AtomicU64::new(0),
        })
    }

    /// Folds the live counters (plus the hub's park-shed count) into a
    /// stats struct whose engine-level fields the caller fills in.
    pub(crate) fn fill_stats(&self, stats: &mut ServerStats) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        stats.requests_shed = load(&self.requests_shed);
        stats.parks_shed = self.hub.parks_shed();
        stats.header_timeouts = load(&self.header_timeouts);
        stats.idle_timeouts = load(&self.idle_timeouts);
        stats.write_stall_timeouts = load(&self.write_stall_timeouts);
        stats.oversize_head = load(&self.oversize_head);
        stats.oversize_body = load(&self.oversize_body);
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The answer for a parser rejection: prefab `431` for an oversized head,
/// prefab `413` for an oversized declared body (frozen once, cloned per
/// use), and the classic non-prefab `400` for malformed input.
fn reject_response(reason: ParseReject) -> Response {
    static HEAD: OnceLock<Response> = OnceLock::new();
    static BODY: OnceLock<Response> = OnceLock::new();
    match reason {
        ParseReject::Malformed => Response::error(Status::BAD_REQUEST, "malformed request"),
        ParseReject::HeadTooLarge => HEAD
            .get_or_init(|| {
                Response::error(Status::HEADER_TOO_LARGE, "request head too large").into_prefab()
            })
            .clone(),
        ParseReject::BodyTooLarge => BODY
            .get_or_init(|| {
                Response::error(Status::PAYLOAD_TOO_LARGE, "request body too large").into_prefab()
            })
            .clone(),
    }
}

/// What the driver should do next with a connection.
#[derive(Debug)]
pub(crate) enum Step {
    /// Run the handler on this request, then report the outcome with
    /// [`ConnCore::complete`].
    Dispatch(Request),
    /// A response is staged: drain it with [`ConnCore::drain`].
    Write,
    /// Nothing to do until bytes arrive, the dispatch completes, the park
    /// resolves, or [`ConnCore::deadline`] passes.
    Idle,
    /// Tear the connection down (dropping the core releases a held park
    /// slot).
    Close,
}

/// Where the connection's single dispatch position stands.
enum Position {
    /// The next pending request may be dispatched.
    Free,
    /// A request is at the handler; `close` ends the connection after its
    /// reply (`Connection: close`).
    Dispatched { close: bool },
    /// A long-poll holds the position, and one slot of the hub's park
    /// cap, until its key is published, its channel closes, or `deadline`
    /// passes.
    Parked {
        park: Park,
        deadline: SimTime,
        close: bool,
    },
}

/// One connection's protocol state: everything between the bytes a
/// driver reads and the response bytes it writes (see the module docs).
pub(crate) struct ConnCore {
    ctx: Arc<ConnCtx>,
    parser: RequestParser,
    /// Parsed requests waiting their turn, each with its
    /// `Connection: close` flag.
    pending: VecDeque<(Request, bool)>,
    position: Position,
    /// The response being written, if any.
    write: Option<ResponseWriter>,
    close_after_write: bool,
    /// A response flagged close finished writing: the verdict is Close.
    closing: bool,
    /// The parser refused the stream: answer this reject once `pending`
    /// drains, then close. Sticky — no further bytes are wanted.
    rejected: Option<ParseReject>,
    /// End of stream: finish what was received, then close.
    peer_closed: bool,
    /// The idle clock: the last byte read or the last response written.
    last_activity: SimTime,
    /// The slowloris clock: set at the first byte of a partial request,
    /// not restarted by later dribbled bytes.
    partial_since: Option<SimTime>,
    /// The write-stall clock: when the staged write last moved a byte.
    write_progress_at: SimTime,
    /// Handler replies staged so far (a park counts when it resolves).
    answered: u64,
}

impl ConnCore {
    /// A fresh connection accepted at `now`.
    pub(crate) fn new(ctx: Arc<ConnCtx>, now: SimTime) -> ConnCore {
        let parser =
            RequestParser::with_limits(ctx.config.max_header_bytes, ctx.config.max_body_bytes);
        ConnCore {
            ctx,
            parser,
            pending: VecDeque::new(),
            position: Position::Free,
            write: None,
            close_after_write: false,
            closing: false,
            rejected: None,
            peer_closed: false,
            last_activity: now,
            partial_since: None,
            write_progress_at: now,
            answered: 0,
        }
    }

    /// Whether the driver should read more bytes: not after end of stream
    /// or a refused stream, nor with the pipeline cap reached.
    pub(crate) fn wants_read(&self) -> bool {
        !self.peer_closed && self.rejected.is_none() && self.pending.len() < PIPELINE_LIMIT
    }

    /// Whether a staged response waits to be drained.
    pub(crate) fn wants_write(&self) -> bool {
        self.write.is_some()
    }

    /// Feeds bytes read at `now`, parsing every request they complete.
    pub(crate) fn feed(&mut self, bytes: &[u8], now: SimTime) {
        self.parser.feed(bytes);
        self.last_activity = now;
        while self.rejected.is_none() {
            match self.parser.next_request() {
                Ok(Some(request)) => {
                    let close = request.wants_close();
                    self.pending.push_back((request, close));
                }
                Ok(None) => break,
                Err(_) => {
                    let reason = self.parser.reject_reason();
                    self.rejected = Some(reason.unwrap_or(ParseReject::Malformed));
                }
            }
        }
        // Leftover bytes of an accepted stream are a partial request in
        // flight.
        self.partial_since = (self.parser.buffered() > 0 && self.rejected.is_none())
            .then(|| self.partial_since.unwrap_or(now));
    }

    /// Records end of stream: requests already received are still
    /// answered, then the verdict is Close.
    pub(crate) fn eof(&mut self) {
        self.peer_closed = true;
    }

    /// Reports the handler's answer to the last [`Step::Dispatch`] (the
    /// `bool` is "the handler panicked", which closes the connection
    /// after its 500). A park is admitted under the hub's cap, or, at the
    /// cap, degraded to its immediate `on_timeout` reply.
    pub(crate) fn complete(&mut self, (outcome, panicked): (HandlerOutcome, bool), now: SimTime) {
        let Position::Dispatched { close } = self.position else {
            return;
        };
        self.position = Position::Free;
        let close = close || panicked;
        match outcome {
            HandlerOutcome::Respond(response) => self.answer(response, close, now),
            HandlerOutcome::Park(park)
                if self.ctx.hub.try_admit_park(self.ctx.config.max_parked) =>
            {
                let deadline = now + SimDuration::from_duration(park.max_wait);
                self.position = Position::Parked {
                    park,
                    deadline,
                    close,
                };
            }
            HandlerOutcome::Park(park) => self.answer((park.on_timeout)(), close, now),
        }
    }

    /// Advances the machine as far as `now` allows and says what the
    /// driver must do next. `queued` reports the driver's admission load
    /// (consulted only when a request is about to be dispatched): at or
    /// above the high-water mark the request is answered with the prefab
    /// shed reply instead of reaching the handler. A guard deadline that
    /// has passed is counted and answered with [`Step::Close`].
    pub(crate) fn next(&mut self, now: SimTime, queued: impl FnOnce() -> usize) -> Step {
        self.resolve_park(now);
        if self.write.is_some() {
            let stall = SimDuration::from_duration(self.ctx.config.write_stall_timeout);
            if now >= self.write_progress_at + stall {
                bump(&self.ctx.write_stall_timeouts);
                return Step::Close;
            }
            return Step::Write;
        }
        if self.closing {
            return Step::Close;
        }
        if !matches!(self.position, Position::Free) {
            return Step::Idle;
        }
        if let Some((request, close)) = self.pending.pop_front() {
            if queued() >= self.ctx.config.queue_high_water {
                bump(&self.ctx.requests_shed);
                let shed = self.ctx.shed.next();
                self.stage(shed, close, now);
                return Step::Write;
            }
            self.position = Position::Dispatched { close };
            return Step::Dispatch(request);
        }
        if let Some(reason) = self.rejected {
            match reason {
                ParseReject::HeadTooLarge => bump(&self.ctx.oversize_head),
                ParseReject::BodyTooLarge => bump(&self.ctx.oversize_body),
                // Malformed input is a client bug, not an overload signal.
                ParseReject::Malformed => {}
            }
            self.stage(reject_response(reason), true, now);
            return Step::Write;
        }
        if self.peer_closed {
            return Step::Close;
        }
        let (deadline, counter) = self.guard();
        if now >= deadline {
            bump(counter);
            return Step::Close;
        }
        Step::Idle
    }

    /// Hands the staged writer to the driver's `write` and books the
    /// outcome at `clock`'s reading once `write` returns (a blocking write
    /// may take a while): a moved byte restarts the write-stall clock, and
    /// a finished response restarts the idle clock (and turns a
    /// close-flagged reply into the Close verdict). The result is
    /// `write`'s own.
    pub(crate) fn drain(
        &mut self,
        clock: &Clock,
        write: impl FnOnce(&mut ResponseWriter) -> io::Result<WriteProgress>,
    ) -> io::Result<WriteProgress> {
        let Some(writer) = self.write.as_mut() else {
            return Ok(WriteProgress::Done);
        };
        let before = writer.written();
        let result = write(writer);
        let now = clock.now();
        if writer.written() > before {
            self.write_progress_at = now;
        }
        if let Ok(WriteProgress::Done) = result {
            self.write = None;
            self.last_activity = now;
            self.closing = self.close_after_write;
        }
        result
    }

    /// Resolves a parked long-poll that is due — its key was published,
    /// its channel closed, or its deadline passed — releasing the cap
    /// slot and staging the park's own reply (a publish beats a
    /// simultaneous timeout). Returns whether it resolved.
    pub(crate) fn resolve_park(&mut self, now: SimTime) -> bool {
        let Some(woken) = self.park_verdict(now) else {
            return false;
        };
        let Position::Parked { park, close, .. } =
            std::mem::replace(&mut self.position, Position::Free)
        else {
            unreachable!("a verdict implies a park");
        };
        self.ctx.hub.release_park();
        let response = if woken {
            (park.on_wake)()
        } else {
            (park.on_timeout)()
        };
        self.answer(response, close, now);
        true
    }

    /// `(channel, wait_key, deadline)` of the long-poll parked here, if
    /// any — what a blocking driver waits on.
    pub(crate) fn parked_on(&self) -> Option<(&ParkChannel, u64, SimTime)> {
        match &self.position {
            Position::Parked { park, deadline, .. } => {
                Some((&park.channel, park.wait_key, *deadline))
            }
            _ => None,
        }
    }

    /// The next instant time alone changes this connection: its park
    /// deadline, its write-stall deadline, or its header-read or idle
    /// deadline. `None` while a dispatch is out (the handler's time is
    /// not the peer's fault).
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        match &self.position {
            Position::Parked { deadline, .. } => Some(*deadline),
            Position::Dispatched { .. } => None,
            Position::Free if self.write.is_some() => Some(
                self.write_progress_at
                    + SimDuration::from_duration(self.ctx.config.write_stall_timeout),
            ),
            Position::Free => Some(self.guard().0),
        }
    }

    /// Whether [`ConnCore::next`] has time- or publish-driven work at
    /// `now`: a due park or a passed deadline.
    pub(crate) fn due(&self, now: SimTime) -> bool {
        self.park_verdict(now).is_some() || self.deadline().is_some_and(|d| now >= d)
    }

    /// Handler replies staged so far on this connection (sheds and
    /// rejects excluded; a park counts when it resolves).
    pub(crate) fn answered(&self) -> u64 {
        self.answered
    }

    /// `Some(woken)` when the parked long-poll is due: `true` when a newer
    /// key was published on its open channel, `false` when the channel
    /// closed or the deadline passed. Two atomic loads on the park's own
    /// channel — no hub lock.
    fn park_verdict(&self, now: SimTime) -> Option<bool> {
        let Position::Parked { park, deadline, .. } = &self.position else {
            return None;
        };
        park.channel
            .verdict(park.wait_key)
            .or((now >= *deadline).then_some(false))
    }

    /// The header-read or idle deadline of a connection at rest, with the
    /// counter its trip bumps.
    fn guard(&self) -> (SimTime, &AtomicU64) {
        let cfg = &self.ctx.config;
        match self.partial_since {
            Some(since) => (
                since + SimDuration::from_duration(cfg.header_read_timeout),
                &self.ctx.header_timeouts,
            ),
            None => (
                self.last_activity + SimDuration::from_duration(cfg.idle_timeout),
                &self.ctx.idle_timeouts,
            ),
        }
    }

    fn answer(&mut self, response: Response, close: bool, now: SimTime) {
        self.answered += 1;
        self.stage(response, close, now);
    }

    fn stage(&mut self, response: Response, close: bool, now: SimTime) {
        self.write = Some(ResponseWriter::new(response));
        self.close_after_write = close;
        self.write_progress_at = now;
    }
}

impl Drop for ConnCore {
    /// Teardown with a poll still parked gives the cap slot back, or the
    /// cap would leak down to zero under connection churn.
    fn drop(&mut self) {
        if let Position::Parked { .. } = self.position {
            self.ctx.hub.release_park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::serialize_request;
    use rcb_util::VirtualClock;
    use std::time::Duration;

    /// A context on a virtual clock, plus the hub and the clock handles.
    fn setup(overload: OverloadConfig) -> (Arc<ConnCtx>, Arc<ParkHub>, Clock, Arc<VirtualClock>) {
        let (clock, vc) = Clock::new_virtual();
        let config = ServerConfig {
            clock: clock.clone(),
            overload,
            ..ServerConfig::default()
        };
        (
            ConnCtx::new(&config),
            Arc::clone(&config.park_hub),
            clock,
            vc,
        )
    }

    fn get(path: &str) -> Vec<u8> {
        serialize_request(&Request::get(path))
    }

    fn ok(body: &str) -> (HandlerOutcome, bool) {
        let resp = Response::with_body(Status::OK, "text/plain", body.as_bytes().to_vec());
        (resp.into(), false)
    }

    fn park(channel: &Arc<ParkChannel>, max_wait: Duration) -> (HandlerOutcome, bool) {
        let park = Park {
            channel: Arc::clone(channel),
            wait_key: 0,
            max_wait,
            on_wake: Box::new(|| Response::with_body(Status::OK, "text/plain", b"woken".to_vec())),
            on_timeout: Box::new(|| {
                Response::with_body(Status::OK, "text/plain", b"timeout".to_vec())
            }),
        };
        (HandlerOutcome::Park(park), false)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Expects a staged response and drains it whole.
    fn take_write(core: &mut ConnCore, clock: &Clock) -> String {
        assert!(matches!(core.next(clock.now(), || 0), Step::Write));
        let mut out = Vec::new();
        let done = core.drain(clock, |w| w.write_some(&mut out)).unwrap();
        assert_eq!(done, WriteProgress::Done);
        String::from_utf8(out).unwrap()
    }

    fn dispatched(step: Step) -> String {
        match step {
            Step::Dispatch(req) => req.target,
            other => panic!("expected a dispatch, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_hold_the_dispatch_position_in_order() {
        let (ctx, _hub, clock, _vc) = setup(OverloadConfig::default());
        let mut core = ConnCore::new(ctx, clock.now());
        let mut burst = get("/a");
        burst.extend(get("/b"));
        core.feed(&burst, clock.now());
        assert_eq!(dispatched(core.next(clock.now(), || 0)), "/a");
        assert!(
            matches!(core.next(clock.now(), || 0), Step::Idle),
            "/b waits"
        );
        assert_eq!(core.deadline(), None, "no guard while the handler runs");
        core.complete(ok("a"), clock.now());
        assert!(take_write(&mut core, &clock).ends_with("\r\n\r\na"));
        assert_eq!(dispatched(core.next(clock.now(), || 0)), "/b");
        core.complete(ok("b"), clock.now());
        assert!(take_write(&mut core, &clock).ends_with("\r\n\r\nb"));
        assert_eq!(core.answered(), 2);
    }

    #[test]
    fn pipeline_cap_stops_reads_until_the_queue_drains() {
        let (ctx, _hub, clock, _vc) = setup(OverloadConfig::default());
        let mut core = ConnCore::new(ctx, clock.now());
        let burst: Vec<u8> = (0..PIPELINE_LIMIT)
            .flat_map(|i| get(&format!("/{i}")))
            .collect();
        core.feed(&burst, clock.now());
        assert!(!core.wants_read());
        assert_eq!(dispatched(core.next(clock.now(), || 0)), "/0");
        assert!(core.wants_read());
    }

    #[test]
    fn a_publish_beats_a_simultaneous_timeout_and_frees_the_slot() {
        let (ctx, hub, clock, vc) = setup(OverloadConfig::default());
        let mut core = ConnCore::new(ctx, clock.now());
        let mut burst = get("/wait");
        burst.extend(get("/next"));
        core.feed(&burst, clock.now());
        assert_eq!(dispatched(core.next(clock.now(), || 0)), "/wait");
        let channel = Arc::default();
        core.complete(park(&channel, Duration::from_secs(1)), clock.now());
        let (on, wait_key, deadline) = core.parked_on().unwrap();
        assert!(std::ptr::eq(on, &*channel));
        assert_eq!((wait_key, deadline), (0, ms(1000)));
        assert_eq!(hub.parked_now(), 1);
        assert!(
            matches!(core.next(clock.now(), || 0), Step::Idle),
            "/next waits"
        );
        assert!(!core.due(clock.now()));
        vc.advance_to(ms(1000));
        hub.publish(&channel, 1);
        assert!(core.due(clock.now()));
        assert!(take_write(&mut core, &clock).ends_with("woken"));
        assert_eq!(hub.parked_now(), 0);
        assert_eq!(dispatched(core.next(clock.now(), || 0)), "/next");
    }

    #[test]
    fn a_closed_channel_resolves_as_a_timeout() {
        let (ctx, hub, clock, _vc) = setup(OverloadConfig::default());
        let mut core = ConnCore::new(ctx, clock.now());
        core.feed(&get("/wait"), clock.now());
        dispatched(core.next(clock.now(), || 0));
        let channel = Arc::default();
        core.complete(park(&channel, Duration::from_secs(30)), clock.now());
        hub.publish(&channel, 1);
        hub.close(&channel);
        assert!(take_write(&mut core, &clock).ends_with("timeout"));
    }

    #[test]
    fn park_cap_degrades_and_teardown_releases_the_slot() {
        let (ctx, hub, clock, _vc) = setup(OverloadConfig {
            max_parked: 1,
            ..OverloadConfig::default()
        });
        let mut parked = ConnCore::new(Arc::clone(&ctx), clock.now());
        let mut degraded = ConnCore::new(ctx, clock.now());
        for core in [&mut parked, &mut degraded] {
            core.feed(&get("/wait"), clock.now());
            dispatched(core.next(clock.now(), || 0));
            core.complete(park(&Arc::default(), Duration::from_secs(30)), clock.now());
        }
        assert!(parked.parked_on().is_some());
        assert!(take_write(&mut degraded, &clock).ends_with("timeout"));
        assert_eq!((hub.parked_now(), hub.parks_shed()), (1, 1));
        drop(parked);
        assert_eq!(hub.parked_now(), 0, "teardown gives the slot back");
    }

    #[test]
    fn the_idle_clock_restarts_when_a_response_finishes_writing() {
        let (ctx, _hub, clock, vc) = setup(OverloadConfig {
            idle_timeout: Duration::from_millis(200),
            ..OverloadConfig::default()
        });
        let mut core = ConnCore::new(Arc::clone(&ctx), clock.now());
        core.feed(&get("/wait"), clock.now());
        dispatched(core.next(clock.now(), || 0));
        core.complete(
            park(&Arc::default(), Duration::from_millis(600)),
            clock.now(),
        );
        vc.advance_to(ms(600));
        assert!(take_write(&mut core, &clock).ends_with("timeout"));
        assert_eq!(core.deadline(), Some(ms(800)));
        assert!(matches!(core.next(ms(799), || 0), Step::Idle));
        assert!(matches!(core.next(ms(800), || 0), Step::Close));
        let mut stats = ServerStats::default();
        ctx.fill_stats(&mut stats);
        assert_eq!(stats.idle_timeouts, 1);
    }

    #[test]
    fn sheds_and_rejects_answer_in_order_then_close() {
        let (ctx, _hub, clock, _vc) = setup(OverloadConfig {
            queue_high_water: 1,
            max_body_bytes: 8,
            ..OverloadConfig::default()
        });
        let mut core = ConnCore::new(Arc::clone(&ctx), clock.now());
        let mut burst = get("/shed");
        burst.extend(get("/served"));
        burst.extend_from_slice(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n");
        core.feed(&burst, clock.now());
        assert!(!core.wants_read(), "a refused stream wants no more bytes");
        assert!(matches!(core.next(clock.now(), || 1), Step::Write));
        assert!(take_write(&mut core, &clock).starts_with("HTTP/1.1 503"));
        assert_eq!(dispatched(core.next(clock.now(), || 0)), "/served");
        core.complete(ok("served"), clock.now());
        assert!(take_write(&mut core, &clock).ends_with("served"));
        assert!(take_write(&mut core, &clock).starts_with("HTTP/1.1 413"));
        assert!(matches!(core.next(clock.now(), || 0), Step::Close));
        let mut stats = ServerStats::default();
        ctx.fill_stats(&mut stats);
        assert_eq!((stats.requests_shed, stats.oversize_body), (1, 1));
        assert_eq!(
            core.answered(),
            1,
            "sheds and rejects are not handler replies"
        );
    }

    #[test]
    fn header_and_write_stall_guards_count_their_trips() {
        let (ctx, _hub, clock, vc) = setup(OverloadConfig {
            header_read_timeout: Duration::from_millis(100),
            write_stall_timeout: Duration::from_millis(50),
            ..OverloadConfig::default()
        });
        // A dribbled head: the slowloris clock runs from the first byte.
        let mut slow = ConnCore::new(Arc::clone(&ctx), clock.now());
        slow.feed(b"GET / HT", ms(0));
        slow.feed(b"TP/1.1\r\n", ms(60));
        assert_eq!(slow.deadline(), Some(ms(100)));
        assert!(matches!(slow.next(ms(100), || 0), Step::Close));
        // A reply the peer never drains.
        let mut stuck = ConnCore::new(Arc::clone(&ctx), clock.now());
        stuck.feed(&get("/x"), clock.now());
        dispatched(stuck.next(clock.now(), || 0));
        stuck.complete(ok("x"), clock.now());
        assert!(matches!(stuck.next(clock.now(), || 0), Step::Write));
        let blocked = stuck.drain(&clock, |_| Ok(WriteProgress::Blocked));
        assert_eq!(blocked.unwrap(), WriteProgress::Blocked);
        vc.advance_to(ms(50));
        assert!(stuck.due(clock.now()));
        assert!(matches!(stuck.next(clock.now(), || 0), Step::Close));
        let mut stats = ServerStats::default();
        ctx.fill_stats(&mut stats);
        assert_eq!((stats.header_timeouts, stats.write_stall_timeouts), (1, 1));
    }
}
