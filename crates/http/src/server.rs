//! The TCP HTTP server facade: three engine drivers behind one [`Handler`].
//!
//! This is the real-socket face of RCB-Agent: "a co-browsing host starts
//! running RCB-Agent on the host browser with an open TCP port (e.g., 3000)"
//! (paper §3.1, step 1). Every engine runs the same per-connection state
//! machine, `conn::ConnCore` — parse, admit or shed, dispatch, park,
//! write, guard — and keeps only its own I/O. The engine is selected by
//! [`ServerConfig::backend`] (default from the `RCB_SERVER_BACKEND`
//! environment variable, the one variable the server reads):
//!
//! * [`ServerBackend::Workers`] — the blocking driver defined in this
//!   module: connections are accepted onto a bounded queue and rotate
//!   through a fixed pool of worker threads; each worker reads with a
//!   short timeout, runs the handler inline, and rotates the connection
//!   back onto the queue once a read comes up empty. Portable (the only
//!   engine off Linux); concurrency is capped by the worker count.
//! * [`ServerBackend::EpollSharded`] — the readiness driver in
//!   the crate's `epoll` module (Linux): `n` event loops, each owning nonblocking
//!   sockets on its own epoll instance and a slice of the dispatch pool;
//!   accepted connections are distributed round-robin by shard 0. A loop
//!   answers on its own thread what a handler's non-blocking entry
//!   ([`TryHandler`], bound with [`HttpServer::bind_split`]) answers, and
//!   hands the rest to the pool. The name `"epoll"` parses as
//!   `EpollSharded(1)`. Shard count: explicit `n`, else available cores.
//!
//! The third driver, [`crate::simdrive::SimDriver`], pumps the same core
//! over the world sim's fabric on virtual time.
//!
//! Neither engine dies on a transient `accept(2)` error (EMFILE under
//! load, ECONNABORTED, EINTR, ...): the workers accept loop sleeps an
//! exponential backoff, the epoll acceptor mutes the listener for the same
//! backoff (defined once, below), and both retry until shutdown.
//!
//! Both threaded engines serve kernel TCP sockets only; the fabric is the
//! sim driver's alone. The guard and park deadlines they consult are
//! measured on [`ServerConfig::clock`], a wall clock by default.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rcb_util::{Clock, DetRng, Result, SimTime};

use crate::conn::{ConnCore, ConnCtx, Step};
use crate::message::{Request, Response, Status};
use crate::serialize::WriteProgress;

/// Whether the event-driven epoll backend is compiled in on this target
/// (the platform condition itself lives on the module declarations in
/// `lib.rs`; each `epoll` module variant reports its own support).
pub const EPOLL_SUPPORTED: bool = crate::epoll::SUPPORTED;

/// The request handler type: shared across worker/dispatch threads. A
/// handler either answers immediately ([`HandlerOutcome::Respond`]) or
/// parks the connection until an event key is published
/// ([`HandlerOutcome::Park`] — the long-poll path).
pub type Handler = Arc<dyn Fn(Request) -> HandlerOutcome + Send + Sync>;

/// A handler's non-blocking entry, which the epoll engine's event loops
/// call on their own thread (see [`HttpServer::bind_split`]): it answers
/// a request that cannot block, or hands it back (`Err`) for the
/// blocking [`Handler`] to run on a dispatch thread. A request handed
/// back must be untouched — no counter moved, no state recorded — so
/// the blocking handler answers it as if it were the first to see it.
pub type TryHandler =
    Arc<dyn Fn(Request) -> std::result::Result<HandlerOutcome, Request> + Send + Sync>;

/// Wraps a plain `Request -> Response` closure as a [`Handler`]. Most
/// handlers never park; this keeps them free of `HandlerOutcome` noise.
pub fn handler_fn<F>(f: F) -> Handler
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    Arc::new(move |req| HandlerOutcome::Respond(f(req)))
}

/// What a handler decided to do with one request.
pub enum HandlerOutcome {
    /// Answer now (the overwhelmingly common case).
    Respond(Response),
    /// Hold the connection open — a parked long-poll. The engine keeps
    /// the connection in its slot table (no dispatch slot consumed on the
    /// epoll backends) and completes it when a key newer than `wait_key`
    /// is published on the park's [`ParkChannel`], when the channel
    /// closes, or when `max_wait` elapses.
    Park(Park),
}

impl From<Response> for HandlerOutcome {
    fn from(resp: Response) -> HandlerOutcome {
        HandlerOutcome::Respond(resp)
    }
}

impl fmt::Debug for HandlerOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlerOutcome::Respond(r) => f.debug_tuple("Respond").field(&r.status).finish(),
            HandlerOutcome::Park(p) => f
                .debug_struct("Park")
                .field("channel", &p.channel)
                .field("wait_key", &p.wait_key)
                .field("max_wait", &p.max_wait)
                .finish(),
        }
    }
}

/// A deferred long-poll response. The response is produced by a closure
/// *at completion time*, not captured up front: a woken poll must serve
/// the snapshot that exists when the wake fires, and re-dispatching the
/// original request instead would re-run its side effects (auth checks,
/// piggybacked action merges).
pub struct Park {
    /// The channel this park waits on: its owner's, so one session's
    /// publish never wakes another session's parks.
    pub channel: Arc<ParkChannel>,
    /// Completes when the channel publishes any key **greater than**
    /// this — for RCB, the `dom_version` the client is already up to
    /// date with.
    pub wait_key: u64,
    /// Ceiling on how long the connection stays parked before
    /// `on_timeout` answers it.
    pub max_wait: Duration,
    /// Produces the response when a newer key is published.
    pub on_wake: Box<dyn FnOnce() -> Response + Send>,
    /// Produces the fallback response when `max_wait` elapses first
    /// (also the reply when the park's channel is closed — an evicted
    /// session completes its parks with the timeout fallback).
    pub on_timeout: Box<dyn FnOnce() -> Response + Send>,
}

/// One publisher's long-poll channel — in RCB, one co-browsing session's.
/// The session owns it (parks hold clones of the `Arc`), so it lives
/// exactly as long as something can still publish on it or wait on it.
///
/// Both fields only ever move one way: `published` is a monotonic
/// high-water mark (`fetch_max`), so a publish that races a park in
/// flight is never lost — the engine re-checks the mark on its next
/// tick — and `closed`, once set, resolves every park on the channel,
/// present or future, with its timeout reply.
#[derive(Debug, Default)]
pub struct ParkChannel {
    published: AtomicU64,
    closed: AtomicBool,
}

impl ParkChannel {
    /// The high-water mark of published keys (0 until the first publish).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Whether the channel was closed (its session evicted).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// `Some(woken)` once a park on `wait_key` is due: `true` when a
    /// newer key was published on the open channel, `false` when the
    /// channel is closed (close wins over any publish).
    pub(crate) fn verdict(&self, wait_key: u64) -> Option<bool> {
        if self.is_closed() {
            Some(false)
        } else {
            (self.published() > wait_key).then_some(true)
        }
    }
}

/// What the engines sharing one server have in common for long-polls:
/// the wake signal and the park cap. The application calls
/// [`ParkHub::publish`] with a [`ParkChannel`] and a monotonic event key
/// (RCB: the freshly published snapshot's `dom_version`); the engines
/// complete every poll parked on that channel at an older key. Two
/// consumers coexist:
///
/// * epoll event loops register a waker (their socketpair write end) via
///   `ParkHub::register_waker` and re-scan their parked slots when
///   poked;
/// * workers-backend threads block on the internal condvar via
///   `ParkHub::wait_until` (the documented degradation: a parked poll
///   pins its worker for the wait).
#[derive(Default)]
pub struct ParkHub {
    /// Condvar pair for blocking waiters (workers backend).
    gate: Mutex<()>,
    cond: Condvar,
    /// Engine wakers (epoll shards) poked on every publish.
    wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Long-polls currently parked, across all engines sharing this hub
    /// (gates the park cap).
    parked_now: AtomicU64,
    /// Parks refused at the cap and degraded to the immediate
    /// `on_timeout` reply.
    parks_shed: AtomicU64,
}

impl fmt::Debug for ParkHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParkHub")
            .field("parked_now", &self.parked_now())
            .field("parks_shed", &self.parks_shed())
            .finish_non_exhaustive()
    }
}

impl ParkHub {
    /// Publishes an event key on `channel`, waking every poll parked
    /// there on an older key. Keys must be monotonic for "older" to mean
    /// anything; stale publishes (≤ the current mark) still poke the
    /// engines, which is harmless — a spurious scan, no spurious wake.
    pub fn publish(&self, channel: &ParkChannel, key: u64) {
        channel.published.fetch_max(key, Ordering::SeqCst);
        self.notify_engines();
    }

    /// Closes `channel` for good: every poll parked on it, and every
    /// park that lands on it later, completes with its timeout reply.
    /// How a session router evicts a session without leaking its parked
    /// connections.
    pub fn close(&self, channel: &ParkChannel) {
        channel.closed.store(true, Ordering::SeqCst);
        self.notify_engines();
    }

    /// Wakes blocked waiters and pokes the epoll shard wakers — the
    /// shared tail of every publish/close.
    fn notify_engines(&self) {
        drop(
            self.gate
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.cond.notify_all();
        let wakers = self
            .wakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for w in wakers.iter() {
            w();
        }
    }

    /// Claims one parked-poll slot under `cap`. On refusal (counted as
    /// a shed) the caller must degrade the park to its `on_timeout`
    /// reply; on success it must pair the claim with
    /// [`ParkHub::release_park`] when the park resolves — wake,
    /// timeout, or connection teardown.
    pub(crate) fn try_admit_park(&self, cap: usize) -> bool {
        let admitted = self
            .parked_now
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap as u64).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.parks_shed.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Releases a slot claimed by [`ParkHub::try_admit_park`].
    pub(crate) fn release_park(&self) {
        self.parked_now.fetch_sub(1, Ordering::SeqCst);
    }

    /// Long-polls parked right now across every engine on this hub.
    pub fn parked_now(&self) -> u64 {
        self.parked_now.load(Ordering::SeqCst)
    }

    /// Parks refused at the cap so far (each was answered with its
    /// immediate empty-poll reply instead of being held).
    pub fn parks_shed(&self) -> u64 {
        self.parks_shed.load(Ordering::Relaxed)
    }

    /// Registers an engine waker, called (with no locks the callee cares
    /// about held) on every publish.
    pub(crate) fn register_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        self.wakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(waker);
    }

    /// Blocks until a key newer than `wait_key` is published on
    /// `channel`, `deadline` passes on `clock`, the channel is closed,
    /// or `stopped` reports true (checked every slice, so server
    /// shutdown is never held up by a parked poll). Returns `true` on
    /// wake, `false` on timeout/stop/close.
    pub(crate) fn wait_until(
        &self,
        channel: &ParkChannel,
        wait_key: u64,
        deadline: SimTime,
        clock: &Clock,
        stopped: &dyn Fn() -> bool,
    ) -> bool {
        loop {
            if let Some(woken) = channel.verdict(wait_key) {
                return woken;
            }
            let now = clock.now();
            if now >= deadline || stopped() {
                return false;
            }
            let slice = (deadline - now)
                .as_duration()
                .min(Duration::from_millis(50));
            let guard = self
                .gate
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Re-check under the lock: a publish between the check above
            // and this wait would otherwise sleep a full slice.
            if let Some(woken) = channel.verdict(wait_key) {
                return woken;
            }
            let _ = self
                .cond
                .wait_timeout(guard, slice)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Runs a handler call with unwind protection, so a panicking handler
/// costs the client a 500-and-close instead of costing the server a
/// thread (workers backend, epoll dispatch pool) or its event loop (an
/// epoll loop running a [`TryHandler`]). Returns the outcome and whether
/// the connection must close; a request the call handed back passes
/// through as `Err`.
pub(crate) fn invoke<E>(
    call: impl FnOnce() -> std::result::Result<HandlerOutcome, E>,
) -> std::result::Result<(HandlerOutcome, bool), E> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)) {
        Ok(answered) => answered.map(|outcome| (outcome, false)),
        Err(_) => Ok((
            HandlerOutcome::Respond(Response::error(Status::INTERNAL, "handler panicked")),
            true,
        )),
    }
}

/// [`invoke`] for the blocking handler, which answers every request.
pub(crate) fn invoke_handler(handler: &Handler, req: Request) -> (HandlerOutcome, bool) {
    let Ok(answered) = invoke(|| Ok::<_, std::convert::Infallible>(handler(req)));
    answered
}

/// Overload-protection limits shared by every backend: connection
/// lifecycle guards (slowloris/idle/write-stall deadlines, header and
/// body byte ceilings) and admission control (dispatch high-water mark,
/// parked-poll cap, shed `Retry-After` jitter). The defaults are
/// deliberately generous; tests and benchmarks tighten them per run. Every
/// engine, the world sim's included, starts from [`OverloadConfig::default`].
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// How long a connection may dribble a partial request (head or
    /// body) before it is cut — the slowloris guard.
    pub header_read_timeout: Duration,
    /// How long an idle keep-alive connection (no partial request
    /// buffered) is retained before being reaped.
    pub idle_timeout: Duration,
    /// How long a response write may sit without moving a byte before
    /// the connection is cut.
    pub write_stall_timeout: Duration,
    /// Maximum request-head bytes before the prefab `431` answer.
    pub max_header_bytes: usize,
    /// Maximum declared body bytes before the prefab `413` answer.
    pub max_body_bytes: usize,
    /// Admission high-water mark: at or above this many
    /// queued-but-unserviced items (workers: connection queue; epoll:
    /// a shard's dispatch queue; sim driver: requests admitted this
    /// pump), new requests are shed with the prefab `503 + Retry-After`
    /// instead of reaching the handler. Zero sheds everything — the
    /// deterministic-test lever.
    pub queue_high_water: usize,
    /// Cap on concurrently parked long-polls; at the cap a park
    /// degrades to its immediate `on_timeout` (empty-poll) reply, so
    /// plain polling keeps working when push is saturated. Zero
    /// degrades every park — the deterministic-test lever.
    pub max_parked: usize,
    /// Smallest `Retry-After` (seconds) a shed response advertises.
    pub retry_after_base_secs: u64,
    /// Jitter span above the base: each shed draws uniformly from
    /// `base..=base + jitter` with a seeded RNG, so a shed herd
    /// decorrelates instead of returning as one thundering wave.
    pub retry_after_jitter_secs: u64,
    /// Seed for the `Retry-After` draw — same seed, same shed byte
    /// stream, which is what the backend-equivalence tests pin.
    pub shed_seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            header_read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            write_stall_timeout: Duration::from_secs(10),
            max_header_bytes: crate::parse::MAX_HEAD,
            max_body_bytes: crate::parse::MAX_BODY,
            queue_high_water: 4096,
            max_parked: 4096,
            retry_after_base_secs: 1,
            retry_after_jitter_secs: 3,
            shed_seed: 0x5ced_2026,
        }
    }
}

/// The prefab `503 + Retry-After` pool: one frozen response per
/// `Retry-After` value in `base..=base + jitter`, drawn with a seeded
/// RNG per shed. Zero-copy on the wire (a shed clones the `Arc`s of a
/// frozen head and body, never a dispatch slot), deterministic under a fixed
/// seed, and jittered enough that a shed herd does not reconverge on
/// one retry instant.
pub struct ShedResponder {
    prefabs: Vec<Response>,
    rng: Mutex<DetRng>,
}

impl ShedResponder {
    /// Freezes the prefab pool for the given limits (public so a session
    /// router can answer its own admission decisions — session cap,
    /// per-session fairness — with the identical shed byte stream).
    pub fn new(config: &OverloadConfig) -> ShedResponder {
        let base = config.retry_after_base_secs;
        let prefabs = (base..=base + config.retry_after_jitter_secs)
            .map(|secs| {
                // Retry-After must land before the freeze: `with_header`
                // drops a frozen head.
                Response::error(Status::SERVICE_UNAVAILABLE, "overloaded, retry later")
                    .with_header("Retry-After", secs.to_string())
                    .into_prefab()
            })
            .collect();
        ShedResponder {
            prefabs,
            rng: Mutex::new(DetRng::new(config.shed_seed)),
        }
    }

    /// The next shed response — a clone of a frozen prefab, head and
    /// body shared.
    pub fn next(&self) -> Response {
        let mut rng = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let idx = rng.next_below(self.prefabs.len() as u64) as usize;
        self.prefabs[idx].clone()
    }
}

/// Which connection-servicing engine a server runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerBackend {
    /// Bounded worker pool: one blocking thread services one connection at
    /// a time; connections rotate through a queue.
    Workers,
    /// Event-driven engine (Linux): `n` independent epoll event loops —
    /// each with its own epoll instance, connection-slot table, waker,
    /// and dispatch-pool slice — with accepted connections distributed
    /// round-robin across loops by the acceptor shard. `EpollSharded(1)`
    /// is the single-loop engine (the name `"epoll"` parses to it).
    /// `EpollSharded(0)` means **auto**: one loop per available core
    /// (see [`ServerBackend::shard_count`]). Falls back to
    /// [`ServerBackend::Workers`] where epoll is not compiled in.
    EpollSharded(usize),
}

impl ServerBackend {
    /// The environment variable [`ServerBackend::from_env`] consults —
    /// also the knob the CI matrix sets per leg.
    pub const ENV_VAR: &'static str = "RCB_SERVER_BACKEND";

    /// The accepted backend grammar, quoted verbatim in every parse
    /// error so a typo'd name or env var tells the operator exactly
    /// what would have been valid.
    pub const GRAMMAR: &'static str =
        "\"workers\", \"epoll\", \"epoll-sharded\", or \"epoll-sharded:<n>\" (n >= 1)";

    /// Parses a backend name (`"workers"` / `"epoll"` / `"epoll-sharded"`
    /// / `"epoll-sharded:<n>"`, case-insensitive). `"epoll"` is the
    /// single loop, `EpollSharded(1)`; the bare sharded form selects the
    /// auto shard count. An unknown name is an error carrying the
    /// accepted grammar — never a silent fallback.
    pub fn parse(name: &str) -> Result<ServerBackend> {
        let lowered = name.trim().to_ascii_lowercase();
        let parsed = match lowered.as_str() {
            "workers" => Some(ServerBackend::Workers),
            "epoll" => Some(ServerBackend::EpollSharded(1)),
            "epoll-sharded" => Some(ServerBackend::EpollSharded(0)),
            other => other.strip_prefix("epoll-sharded:").and_then(|n| {
                n.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(ServerBackend::EpollSharded)
            }),
        };
        parsed.ok_or_else(|| {
            rcb_util::RcbError::InvalidInput(format!(
                "unknown server backend {name:?}; expected {}",
                Self::GRAMMAR
            ))
        })
    }

    /// Reads `RCB_SERVER_BACKEND`: unset selects
    /// [`ServerBackend::Workers`]; a set-but-unrecognized value is a
    /// startup error naming the variable and the accepted grammar (a
    /// typo in a CI matrix must fail the leg, not silently test the
    /// wrong backend).
    pub fn from_env() -> Result<ServerBackend> {
        match std::env::var(Self::ENV_VAR) {
            Ok(value) => Self::parse(&value).map_err(|_| {
                rcb_util::RcbError::InvalidInput(format!(
                    "{}={value:?} not recognized; expected {}",
                    Self::ENV_VAR,
                    Self::GRAMMAR
                ))
            }),
            Err(_) => Ok(ServerBackend::Workers),
        }
    }

    /// The backend that will actually run on this target: the epoll
    /// engine degrades to `Workers` where the epoll shims are not
    /// compiled in.
    pub fn effective(self) -> ServerBackend {
        match self {
            ServerBackend::EpollSharded(_) if !EPOLL_SUPPORTED => ServerBackend::Workers,
            other => other,
        }
    }

    /// The number of event-loop shards this backend resolves to on this
    /// machine: an explicit `EpollSharded(n)` is `n`; the auto form is
    /// the available cores. The workers backend runs no loop; it resolves
    /// to 1.
    pub fn shard_count(self) -> usize {
        match self.effective() {
            ServerBackend::EpollSharded(0) => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            ServerBackend::EpollSharded(n) => n,
            _ => 1,
        }
    }

    /// Folds platform fallback *and* the auto shard count into an
    /// explicit value: `EpollSharded(0)` becomes `EpollSharded(n)` for
    /// the `n` this machine resolves to; everything else is
    /// [`ServerBackend::effective`]. What [`HttpServer::backend`] reports.
    pub fn resolved(self) -> ServerBackend {
        match self.effective() {
            ServerBackend::EpollSharded(_) => ServerBackend::EpollSharded(self.shard_count()),
            other => other,
        }
    }

    /// Stable lowercase name (matches what [`ServerBackend::parse`]
    /// takes; the shard count is not encoded — parse the `:<n>` suffix
    /// form to recover an explicit count).
    pub fn label(self) -> &'static str {
        match self {
            ServerBackend::Workers => "workers",
            ServerBackend::EpollSharded(_) => "epoll-sharded",
        }
    }
}

impl fmt::Display for ServerBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Aggregate engine counters, summed across event-loop shards. The
/// workers backend reports zero shards (it has no event loop); the epoll
/// engine reports one entry per shard in `connections_per_shard`, which
/// round-robin distribution keeps balanced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Transient `accept(2)` errors survived (retried with backoff).
    pub accept_errors: u64,
    /// Connections accepted and registered, total across shards.
    pub connections_accepted: u64,
    /// Event-loop shards running (0 = workers backend, `n` = epoll).
    pub shards: usize,
    /// Connections assigned to each shard (length = `shards`).
    pub connections_per_shard: Vec<u64>,
    /// Requests answered with the prefab `503` shed reply at the
    /// admission high-water mark (no dispatch slot consumed).
    pub requests_shed: u64,
    /// Long-polls degraded to their immediate empty reply at the park
    /// cap.
    pub parks_shed: u64,
    /// Connections cut by the slowloris (partial-request) deadline.
    pub header_timeouts: u64,
    /// Idle keep-alive connections reaped by the idle deadline.
    pub idle_timeouts: u64,
    /// Connections cut because a response write stalled past the
    /// write-stall deadline.
    pub write_stall_timeouts: u64,
    /// Requests refused with the prefab `431` (head over limit).
    pub oversize_head: u64,
    /// Requests refused with the prefab `413` (declared body over
    /// limit).
    pub oversize_body: u64,
}

/// Backend choice plus pool and queue sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which engine services connections. The default comes from the
    /// `RCB_SERVER_BACKEND` environment variable (workers when unset), so
    /// a whole test suite can be switched without a code change.
    pub backend: ServerBackend,
    /// Worker threads (workers backend) or blocking-dispatch threads
    /// (epoll engine, split across shards) — the bound on concurrent
    /// blocking handler calls either way. (Each epoll loop also answers
    /// what a [`TryHandler`] can answer, one request at a time.)
    pub workers: usize,
    /// Workers backend only: maximum connections admitted onto the queue
    /// before the accept loop applies backpressure (waits for capacity).
    /// The epoll engine has no such queue — its connection ceiling is
    /// the process fd limit.
    pub queue_capacity: usize,
    /// Workers backend only: how long a worker waits for bytes on one
    /// connection before rotating it back onto the queue. Smaller values
    /// lower worst-case latency under many idle connections; larger
    /// values reduce queue churn. (The epoll engine never waits on a
    /// single connection at all.)
    pub read_timeout: Duration,
    /// The park/wake rendezvous for long-polls. The default is a fresh
    /// hub; the application keeps a clone of the `Arc` and calls
    /// [`ParkHub::publish`] when new content is available. A handler that
    /// never returns [`HandlerOutcome::Park`] never touches it.
    pub park_hub: Arc<ParkHub>,
    /// The time source for guard and park deadlines. The wall clock on
    /// the threaded engines; the world's virtual clock under the sim
    /// driver, so parked long-polls time out on simulated time.
    pub clock: Clock,
    /// Overload-protection limits: lifecycle-guard deadlines, size
    /// ceilings, the admission high-water mark, the park cap, and the
    /// shed jitter.
    pub overload: OverloadConfig,
}

impl Default for ServerConfig {
    /// The code defaults — 8 workers, a 256-connection queue, a 2 ms
    /// rotate timeout, a fresh [`ParkHub`], the wall clock and
    /// [`OverloadConfig::default`] — on the engine `RCB_SERVER_BACKEND`
    /// names ([`ServerBackend::from_env`]). A bad name panics with the
    /// backend grammar: a server must not silently run the wrong engine.
    fn default() -> Self {
        ServerConfig {
            backend: ServerBackend::from_env().unwrap_or_else(|e| panic!("{e}")),
            workers: 8,
            queue_capacity: 256,
            read_timeout: Duration::from_millis(2),
            park_hub: Arc::new(ParkHub::default()),
            clock: Clock::wall(),
            overload: OverloadConfig::default(),
        }
    }
}

/// Initial backoff after a transient `accept(2)` error — shared by the
/// workers accept loop (which sleeps it) and the epoll acceptor (which
/// mutes the listener for it).
pub(crate) const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);
/// Backoff ceiling — EMFILE storms retry twice a second, not in a hot loop.
pub(crate) const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Doubles an accept backoff up to the ceiling.
pub(crate) fn next_accept_backoff(current: Duration) -> Duration {
    (current * 2).min(ACCEPT_BACKOFF_MAX)
}

/// A connection as it travels between the queue and the workers: the
/// kernel socket and its state machine.
type Queued = (TcpStream, ConnCore);

/// The bounded connection queue shared by the accept loop and workers.
struct ConnQueue {
    inner: Mutex<VecDeque<Queued>>,
    /// Signaled when a connection is queued (workers wait on this).
    readable: Condvar,
    /// Signaled when a pop frees capacity (the accept loop waits on this
    /// while applying backpressure).
    writable: Condvar,
    capacity: usize,
    stop: AtomicBool,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
            stop: AtomicBool::new(false),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Admits a newly accepted connection, waiting while the queue is at
    /// capacity (backpressure on the accept loop). Returns `false` (and
    /// drops the connection) when shutting down.
    fn push_accepted(&self, conn: Queued) -> bool {
        let mut q = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while q.len() >= self.capacity {
            if self.stopped() {
                return false;
            }
            // Timeout only as a stop-flag safety net; pops signal
            // `writable` the moment capacity frees.
            let (guard, _) = self
                .writable
                .wait_timeout(q, Duration::from_millis(10))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = guard;
        }
        if self.stopped() {
            return false;
        }
        q.push_back(conn);
        self.readable.notify_one();
        true
    }

    /// Rotates a serviced connection back. Never blocks: workers must not
    /// deadlock against a full queue, so rotation may transiently exceed
    /// capacity by at most the worker count.
    fn push_rotated(&self, conn: Queued) {
        if self.stopped() {
            return;
        }
        let mut q = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.push_back(conn);
        self.readable.notify_one();
    }

    /// Connections currently queued — the workers backend's admission
    /// signal. Idle keep-alive connections rotate through the queue and
    /// count too, which is why the default high-water mark is far above
    /// the worker count.
    fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Pops the next connection, waiting up to `timeout`.
    fn pop(&self, timeout: Duration) -> Option<Queued> {
        let mut q = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if q.is_empty() && !self.stopped() {
            let (guard, _) = self
                .readable
                .wait_timeout(q, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = guard;
        }
        let conn = q.pop_front();
        if conn.is_some() && q.len() < self.capacity {
            self.writable.notify_one();
        }
        conn
    }
}

/// The worker-pool engine behind [`HttpServer`].
struct WorkerServer {
    queue: Arc<ConnQueue>,
    accept_errors: Arc<AtomicU64>,
    connections_accepted: Arc<AtomicU64>,
    ctx: Arc<ConnCtx>,
    threads: Vec<JoinHandle<()>>,
}

/// The engine actually running behind an [`HttpServer`].
enum Engine {
    Workers(WorkerServer),
    Epoll(crate::epoll::EpollServer),
}

/// A running HTTP server; dropping it (or calling [`HttpServer::shutdown`])
/// stops accepting, drains in-flight work, and joins all threads.
pub struct HttpServer {
    addr: SocketAddr,
    backend: ServerBackend,
    engine: Engine,
}

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// configured backend's threads. Every request reaches `handler` on a
    /// worker or dispatch thread.
    pub fn bind_with(addr: &str, handler: Handler, config: ServerConfig) -> Result<HttpServer> {
        Self::bind_engine(addr, handler, None, config)
    }

    /// [`HttpServer::bind_with`] for a handler that also has a
    /// non-blocking entry. The epoll engine's event loops call
    /// `try_handler` on each request themselves and hand to the dispatch
    /// pool only what it gives back, so a request that cannot block skips
    /// the pool's queue, condvar and waker. The workers engine runs
    /// `handler` alone, as `bind_with` does.
    pub fn bind_split(
        addr: &str,
        handler: Handler,
        try_handler: TryHandler,
        config: ServerConfig,
    ) -> Result<HttpServer> {
        Self::bind_engine(addr, handler, Some(try_handler), config)
    }

    fn bind_engine(
        addr: &str,
        handler: Handler,
        try_handler: Option<TryHandler>,
        config: ServerConfig,
    ) -> Result<HttpServer> {
        match config.backend.resolved() {
            ServerBackend::Workers => Self::spawn_workers(addr, handler, config),
            // On targets without the epoll shims this arm is dynamically
            // unreachable (`resolved()` degrades the epoll engine to
            // Workers) and binds against the never-constructed stub module.
            ServerBackend::EpollSharded(shards) => {
                let server =
                    crate::epoll::EpollServer::bind(addr, handler, try_handler, &config, shards)?;
                Ok(HttpServer {
                    addr: server.addr(),
                    backend: ServerBackend::EpollSharded(server.shard_count()),
                    engine: Engine::Epoll(server),
                })
            }
        }
    }

    /// Starts the workers engine: binds the nonblocking listener the
    /// accept loop polls, then spawns the worker pool and that loop.
    fn spawn_workers(addr: &str, handler: Handler, config: ServerConfig) -> Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(ConnQueue::new(config.queue_capacity.max(1)));
        let accept_errors = Arc::new(AtomicU64::new(0));
        let connections_accepted = Arc::new(AtomicU64::new(0));
        let ctx = ConnCtx::new(&config);
        let mut threads = Vec::with_capacity(config.workers + 1);

        for _ in 0..config.workers.max(1) {
            let worker = Worker {
                queue: Arc::clone(&queue),
                handler: Arc::clone(&handler),
                hub: Arc::clone(&config.park_hub),
                clock: config.clock.clone(),
            };
            let spawned = std::thread::Builder::new()
                .name("rcb-worker".to_string())
                .spawn(move || {
                    while !worker.queue.stopped() {
                        if let Some(mut conn) = worker.queue.pop(Duration::from_millis(50)) {
                            if worker.serve(&mut conn) {
                                worker.queue.push_rotated(conn);
                            }
                        }
                    }
                });
            threads.push(spawned.expect("failed to spawn thread"));
        }

        let accept_queue = Arc::clone(&queue);
        let errors = Arc::clone(&accept_errors);
        let accepted = Arc::clone(&connections_accepted);
        let accept_ctx = Arc::clone(&ctx);
        let spawned = std::thread::Builder::new()
            .name("rcb-accept".to_string())
            .spawn(move || {
                accept_loop(listener, accept_queue, errors, accepted, accept_ctx, config);
            });
        threads.push(spawned.expect("failed to spawn thread"));

        Ok(HttpServer {
            addr,
            backend: ServerBackend::Workers,
            engine: Engine::Workers(WorkerServer {
                queue,
                accept_errors,
                connections_accepted,
                ctx,
                threads,
            }),
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend actually servicing connections (after any platform
    /// fallback from the epoll engine to `Workers`).
    pub fn backend(&self) -> ServerBackend {
        self.backend
    }

    /// Event-loop shards the engine runs (0 for the workers backend).
    pub fn shards(&self) -> usize {
        match &self.engine {
            Engine::Workers(_) => 0,
            Engine::Epoll(e) => e.shard_count(),
        }
    }

    /// Aggregate engine counters (accept errors, accepted connections,
    /// per-shard assignment).
    pub fn stats(&self) -> ServerStats {
        match &self.engine {
            Engine::Workers(w) => {
                let mut stats = ServerStats {
                    accept_errors: w.accept_errors.load(Ordering::Relaxed),
                    connections_accepted: w.connections_accepted.load(Ordering::Relaxed),
                    ..ServerStats::default()
                };
                w.ctx.fill_stats(&mut stats);
                stats
            }
            Engine::Epoll(e) => e.stats(),
        }
    }

    /// Transient `accept(2)` errors survived so far (every backend retries
    /// them with backoff instead of dying).
    pub fn accept_errors(&self) -> u64 {
        self.stats().accept_errors
    }

    /// Stops accepting, drains in-flight work, and joins all threads.
    pub fn shutdown(&mut self) {
        match &mut self.engine {
            Engine::Workers(w) => {
                w.queue.shutdown();
                for t in w.threads.drain(..) {
                    let _ = t.join();
                }
            }
            Engine::Epoll(e) => e.shutdown(),
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The accept loop: admit connections, survive transient errors. Both
/// socket timeouts are set once per connection, here.
fn accept_loop(
    listener: TcpListener,
    queue: Arc<ConnQueue>,
    errors: Arc<AtomicU64>,
    accepted: Arc<AtomicU64>,
    ctx: Arc<ConnCtx>,
    config: ServerConfig,
) {
    let mut backoff = ACCEPT_BACKOFF_START;
    while !queue.stopped() {
        // Test-only fault hook (inert in production builds): an armed
        // Accept fault behaves exactly like the kernel refusing the call.
        let next = match rcb_util::fault::take(rcb_util::fault::Op::Accept) {
            Some(e) => Err(e),
            None => listener.accept(),
        };
        match next {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_START;
                accepted.fetch_add(1, Ordering::Relaxed);
                // A read that waits out `read_timeout` comes back
                // `WouldBlock` and rotates the connection; a socket that
                // refuses the timeout could pin a worker, so it is dropped.
                if stream.set_read_timeout(Some(config.read_timeout)).is_err() {
                    continue;
                }
                // Blocking writes come back `Blocked` after a stall
                // (`SO_SNDTIMEO`) instead of pinning a worker when the
                // peer stops draining; the core's write-stall deadline
                // then cuts the connection.
                let _ = stream.set_write_timeout(Some(config.overload.write_stall_timeout));
                let core = ConnCore::new(Arc::clone(&ctx), config.clock.now());
                queue.push_accepted((stream, core));
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                // EMFILE, ECONNABORTED, EINTR, ...: all transient from the
                // listener's point of view. Back off and retry; only a
                // shutdown request ends the loop.
                errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = next_accept_backoff(backoff);
            }
        }
    }
}

/// One worker thread's share of the engine.
struct Worker {
    queue: Arc<ConnQueue>,
    handler: Handler,
    hub: Arc<ParkHub>,
    clock: Clock,
}

impl Worker {
    /// One service pass over a connection: read what arrives within the
    /// socket's read timeout, act on everything the core then has ready, and
    /// repeat until a read comes up empty — then rotate (`true`), so one
    /// chatty client cannot pin a worker. `false` closes the connection.
    ///
    /// Handlers run inline on the worker. A parked long-poll blocks the
    /// worker in [`ParkHub::wait_until`] until it resolves — the workers
    /// engine's documented degradation: the wake key and timeout fallback
    /// of every engine, but each parked poll pins a thread. The wait is
    /// stop-aware, so shutdown never waits out a park. Writes block under
    /// `SO_SNDTIMEO`; a write that comes back `Blocked` (a stall, or an
    /// injected `EWOULDBLOCK`) is retried until the core's write-stall
    /// deadline cuts the connection.
    fn serve(&self, (stream, core): &mut Queued) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            // Test-only fault hook (inert in production builds): an armed
            // Read fault behaves exactly like the kernel failing the call.
            let read = match rcb_util::fault::take(rcb_util::fault::Op::Read) {
                Some(e) => Err(e),
                None => stream.read(&mut buf),
            };
            let drained = match read {
                Ok(0) => {
                    core.eof();
                    false
                }
                Ok(n) => {
                    core.feed(&buf[..n], self.clock.now());
                    false
                }
                // Nothing arrived this pass: the `next` below checks the
                // header and idle guards, then the connection rotates.
                Err(ref e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    true
                }
                Err(_) => return false,
            };
            loop {
                match core.next(self.clock.now(), || self.queue.len()) {
                    Step::Dispatch(request) => {
                        let outcome = invoke_handler(&self.handler, request);
                        core.complete(outcome, self.clock.now());
                    }
                    Step::Write => {
                        let written = core.drain(&self.clock, |w| match w.write_some(stream) {
                            // `SO_SNDTIMEO` expiry on platforms that
                            // report it as a timeout rather than EAGAIN.
                            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                                Ok(WriteProgress::Blocked)
                            }
                            other => other,
                        });
                        if written.is_err() {
                            return false;
                        }
                    }
                    Step::Idle => match core.parked_on() {
                        Some((channel, wait_key, deadline)) => {
                            let stopped = || self.queue.stopped();
                            self.hub
                                .wait_until(channel, wait_key, deadline, &self.clock, &stopped);
                            if stopped() {
                                return false;
                            }
                        }
                        None => break,
                    },
                    Step::Close => return false,
                }
            }
            if drained {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::send_request;
    use crate::message::{Request, Status};
    use rcb_util::SimDuration;
    use std::io::Write;
    use std::time::Instant;

    fn echo_handler() -> Handler {
        handler_fn(|req: Request| {
            Response::with_body(
                Status::OK,
                "text/plain",
                format!("{} {}", req.method, req.target).into_bytes(),
            )
        })
    }

    /// Every backend compiled in on this target — the shared-behaviour
    /// tests below run once per entry. The sharded entry pins an explicit
    /// shard count so coverage does not degenerate to one loop on
    /// single-core CI machines.
    fn backends() -> Vec<ServerBackend> {
        if EPOLL_SUPPORTED {
            vec![
                ServerBackend::Workers,
                ServerBackend::EpollSharded(1),
                ServerBackend::EpollSharded(2),
            ]
        } else {
            vec![ServerBackend::Workers]
        }
    }

    fn bind_backend(backend: ServerBackend, handler: Handler) -> HttpServer {
        HttpServer::bind_with(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                backend,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn env_and_label_roundtrip() {
        assert_eq!(
            ServerBackend::parse("workers").unwrap(),
            ServerBackend::Workers
        );
        assert_eq!(
            ServerBackend::parse("EPOLL").unwrap(),
            ServerBackend::EpollSharded(1)
        );
        assert_eq!(
            ServerBackend::parse(" epoll ").unwrap(),
            ServerBackend::EpollSharded(1)
        );
        assert_eq!(
            ServerBackend::parse("epoll-sharded").unwrap(),
            ServerBackend::EpollSharded(0),
            "bare sharded form is auto"
        );
        assert_eq!(
            ServerBackend::parse("Epoll-Sharded:4").unwrap(),
            ServerBackend::EpollSharded(4)
        );
        // Unknown names are hard errors carrying the accepted grammar,
        // never a silent workers fallback.
        for bad in ["epoll-sharded:0", "epoll-sharded:x", "tokio", ""] {
            let err = ServerBackend::parse(bad).unwrap_err();
            assert!(
                err.to_string().contains("epoll-sharded:<n>"),
                "{bad:?}: error must quote the grammar, got {err}"
            );
        }
        for b in backends() {
            // The label drops any explicit shard count, so roundtrip on
            // the label, not the value.
            assert_eq!(
                ServerBackend::parse(b.label())
                    .map(ServerBackend::label)
                    .ok(),
                Some(b.label())
            );
            assert_eq!(b.to_string(), b.label());
            assert_eq!(b.effective(), b, "compiled-in backends are effective");
        }
    }

    #[test]
    fn shard_count_resolution() {
        // Explicit counts win outright; non-sharded backends are one loop.
        assert_eq!(ServerBackend::EpollSharded(3).shard_count(), 3);
        assert_eq!(ServerBackend::Workers.shard_count(), 1);
        assert_eq!(ServerBackend::EpollSharded(1).shard_count(), 1);
        // Auto resolves to *something* positive (env or cores), and
        // `resolved()` folds it into an explicit variant.
        if EPOLL_SUPPORTED {
            let auto = ServerBackend::EpollSharded(0).shard_count();
            assert!(auto >= 1);
            assert_eq!(
                ServerBackend::EpollSharded(0).resolved(),
                ServerBackend::EpollSharded(auto)
            );
            assert_eq!(
                ServerBackend::EpollSharded(5).resolved(),
                ServerBackend::EpollSharded(5)
            );
        } else {
            assert_eq!(
                ServerBackend::EpollSharded(0).resolved(),
                ServerBackend::Workers
            );
        }
    }

    #[test]
    fn sharded_server_reports_resolved_backend_and_spread() {
        if !EPOLL_SUPPORTED {
            return;
        }
        let mut server = bind_backend(ServerBackend::EpollSharded(3), echo_handler());
        assert_eq!(server.backend(), ServerBackend::EpollSharded(3));
        assert_eq!(server.shards(), 3);
        let addr = server.addr().to_string();
        // Six sequential connections land two per shard (round-robin).
        for i in 0..6 {
            let resp = send_request(&addr, &Request::get(format!("/s{i}"))).unwrap();
            assert_eq!(resp.body_str(), format!("GET /s{i}"));
        }
        let stats = server.stats();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.connections_accepted, 6);
        assert_eq!(stats.connections_per_shard, vec![2, 2, 2]);
        server.shutdown();
    }

    #[test]
    fn serves_single_request() {
        for backend in backends() {
            let mut server = bind_backend(backend, echo_handler());
            assert_eq!(server.backend(), backend);
            let addr = server.addr();
            let resp = send_request(&addr.to_string(), &Request::get("/hello")).unwrap();
            assert_eq!(resp.status, Status::OK, "{backend}");
            assert_eq!(resp.body_str(), "GET /hello", "{backend}");
            server.shutdown();
        }
    }

    #[test]
    fn serves_keepalive_sequence() {
        for backend in backends() {
            let mut server = bind_backend(backend, echo_handler());
            let addr = server.addr().to_string();
            let mut stream = TcpStream::connect(&addr).unwrap();
            for i in 0..3 {
                let req = Request::get(format!("/r{i}"));
                stream
                    .write_all(&crate::serialize::serialize_request(&req))
                    .unwrap();
                let resp = crate::client::read_response(&mut stream).unwrap();
                assert_eq!(resp.body_str(), format!("GET /r{i}"), "{backend}");
            }
            server.shutdown();
        }
    }

    #[test]
    fn concurrent_clients() {
        for backend in backends() {
            let mut server = bind_backend(backend, echo_handler());
            let addr = server.addr().to_string();
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let resp = send_request(&addr, &Request::get(format!("/c{i}"))).unwrap();
                        assert_eq!(resp.body_str(), format!("GET /c{i}"));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            server.shutdown();
        }
    }

    #[test]
    fn more_connections_than_workers_all_serviced() {
        // 2 workers (or dispatch threads), 12 persistent clients, several
        // keep-alive requests each: both backends must multiplex, not
        // starve (the original design used a thread per connection;
        // neither backend can).
        for backend in backends() {
            let mut server = HttpServer::bind_with(
                "127.0.0.1:0",
                echo_handler(),
                ServerConfig {
                    backend,
                    workers: 2,
                    queue_capacity: 64,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let addr = server.addr().to_string();
            let handles: Vec<_> = (0..12)
                .map(|i| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let mut conn = crate::client::HttpConnection::connect(&addr).unwrap();
                        for j in 0..4 {
                            let resp = conn
                                .round_trip(&Request::get(format!("/c{i}/r{j}")))
                                .unwrap();
                            assert_eq!(resp.body_str(), format!("GET /c{i}/r{j}"));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            server.shutdown();
        }
    }

    #[test]
    fn malformed_request_gets_400() {
        for backend in backends() {
            let mut server = bind_backend(backend, echo_handler());
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
            let resp = crate::client::read_response(&mut stream).unwrap();
            assert_eq!(resp.status, Status::BAD_REQUEST, "{backend}");
            // Both backends close after answering a parse error.
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "{backend}: connection should close");
            server.shutdown();
        }
    }

    #[test]
    fn park_hub_wait_semantics() {
        let clock = Clock::wall();
        let hub = ParkHub::default();
        let channel = ParkChannel::default();
        assert_eq!(channel.published(), 0);
        let never = || false;
        // Already-published keys return immediately.
        hub.publish(&channel, 5);
        assert!(
            hub.wait_until(&channel, 4, clock.now(), &clock, &never),
            "5 > 4: instant"
        );
        // Waiting on the current key times out (nothing newer yet).
        let t0 = Instant::now();
        let deadline = clock.now() + SimDuration::from_millis(30);
        assert!(!hub.wait_until(&channel, 5, deadline, &clock, &never));
        assert!(t0.elapsed() >= Duration::from_millis(25));
        // The mark is monotonic: stale publishes never move it back.
        hub.publish(&channel, 3);
        assert_eq!(channel.published(), 5);
        // A stop request ends the wait early as a timeout.
        let stopped = || true;
        let t0 = Instant::now();
        let deadline = clock.now() + SimDuration::from_secs(10);
        assert!(!hub.wait_until(&channel, 5, deadline, &clock, &stopped));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // A concurrent publish wakes a blocked waiter.
        let hub = Arc::new(ParkHub::default());
        let channel = Arc::new(ParkChannel::default());
        let publisher = {
            let hub = Arc::clone(&hub);
            let channel = Arc::clone(&channel);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.publish(&channel, 1);
            })
        };
        let deadline = clock.now() + SimDuration::from_secs(5);
        assert!(hub.wait_until(&channel, 0, deadline, &clock, &never));
        publisher.join().unwrap();
    }

    #[test]
    fn park_channels_are_isolated_and_close_for_good() {
        let clock = Clock::wall();
        let hub = ParkHub::default();
        let (seven, eight) = (ParkChannel::default(), ParkChannel::default());
        let never = || false;
        // A publish on one channel is invisible to every other channel.
        hub.publish(&seven, 3);
        assert_eq!(seven.published(), 3);
        assert_eq!(eight.published(), 0);
        assert!(
            hub.wait_until(&seven, 2, clock.now(), &clock, &never),
            "3 > 2"
        );
        let deadline = clock.now() + SimDuration::from_millis(20);
        assert!(
            !hub.wait_until(&eight, 0, deadline, &clock, &never),
            "channel 8 saw nothing"
        );
        // Per-channel marks are monotonic.
        hub.publish(&seven, 1);
        assert_eq!(seven.published(), 3);
        // Closing a channel resolves waits as timeouts — immediately,
        // even with a far-off deadline — and a later publish cannot
        // reopen it: close wins.
        hub.close(&seven);
        hub.publish(&seven, 9);
        assert!(seven.is_closed());
        assert!(!eight.is_closed());
        let deadline = clock.now() + SimDuration::from_secs(30);
        let t0 = Instant::now();
        assert!(!hub.wait_until(&seven, 0, deadline, &clock, &never));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // A concurrent close wakes a blocked waiter.
        let hub = Arc::new(ParkHub::default());
        let five = Arc::new(ParkChannel::default());
        hub.publish(&five, 1);
        let closer = {
            let hub = Arc::clone(&hub);
            let five = Arc::clone(&five);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.close(&five);
            })
        };
        let deadline = clock.now() + SimDuration::from_secs(30);
        assert!(!hub.wait_until(&five, 1, deadline, &clock, &never));
        closer.join().unwrap();
    }

    #[test]
    fn parked_poll_wakes_on_publish_every_backend() {
        // A handler that parks /wait on key 0 and answers /publish by
        // publishing key 1: the parked response must carry the bytes its
        // on_wake closure produced, on all three backends.
        for backend in backends() {
            let config = ServerConfig {
                backend,
                ..ServerConfig::default()
            };
            let hub = Arc::clone(&config.park_hub);
            let channel = Arc::new(ParkChannel::default());
            let parks_on = Arc::clone(&channel);
            let handler: Handler = Arc::new(move |req: Request| {
                if req.path() == "/wait" {
                    HandlerOutcome::Park(Park {
                        channel: Arc::clone(&parks_on),
                        wait_key: 0,
                        max_wait: Duration::from_secs(5),
                        on_wake: Box::new(|| {
                            Response::with_body(Status::OK, "text/plain", b"woken".to_vec())
                        }),
                        on_timeout: Box::new(|| {
                            Response::with_body(Status::OK, "text/plain", b"timeout".to_vec())
                        }),
                    })
                } else {
                    Response::with_body(Status::OK, "text/plain", b"ok".to_vec()).into()
                }
            });
            let mut server =
                HttpServer::bind_with("127.0.0.1:0", Arc::clone(&handler), config).unwrap();
            let addr = server.addr().to_string();
            let waiter = {
                let addr = addr.clone();
                std::thread::spawn(move || send_request(&addr, &Request::get("/wait")).unwrap())
            };
            std::thread::sleep(Duration::from_millis(50));
            hub.publish(&channel, 1);
            let resp = waiter.join().unwrap();
            assert_eq!(resp.body_str(), "woken", "{backend}");
            server.shutdown();
        }
    }

    #[test]
    fn parked_poll_times_out_to_fallback_every_backend() {
        for backend in backends() {
            let handler: Handler = Arc::new(move |_req: Request| {
                HandlerOutcome::Park(Park {
                    channel: Arc::default(),
                    wait_key: 0,
                    max_wait: Duration::from_millis(40),
                    on_wake: Box::new(|| {
                        Response::with_body(Status::OK, "text/plain", b"woken".to_vec())
                    }),
                    on_timeout: Box::new(|| {
                        Response::with_body(Status::OK, "text/plain", b"timeout".to_vec())
                    }),
                })
            });
            let mut server = HttpServer::bind_with(
                "127.0.0.1:0",
                Arc::clone(&handler),
                ServerConfig {
                    backend,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let addr = server.addr().to_string();
            let t0 = Instant::now();
            let resp = send_request(&addr, &Request::get("/wait")).unwrap();
            assert_eq!(resp.body_str(), "timeout", "{backend}");
            assert!(
                t0.elapsed() >= Duration::from_millis(40),
                "{backend}: answered before the park deadline"
            );
            server.shutdown();
        }
    }

    #[test]
    fn accept_backoff_doubles_to_ceiling() {
        let mut b = ACCEPT_BACKOFF_START;
        let mut seen = vec![b];
        for _ in 0..12 {
            b = next_accept_backoff(b);
            seen.push(b);
        }
        assert!(seen.windows(2).all(|w| w[1] >= w[0]), "monotone");
        assert_eq!(*seen.last().unwrap(), ACCEPT_BACKOFF_MAX, "capped");
        assert_eq!(seen[1], ACCEPT_BACKOFF_START * 2);
    }

    #[test]
    fn survives_connection_churn() {
        // Open-and-drop many sockets quickly (aborted connections surface
        // as transient conditions on some platforms); the listener must
        // still serve afterwards.
        for backend in backends() {
            let mut server = bind_backend(backend, echo_handler());
            let addr = server.addr().to_string();
            for _ in 0..50 {
                let s = TcpStream::connect(&addr).unwrap();
                drop(s);
            }
            let resp = send_request(&addr, &Request::get("/alive")).unwrap();
            assert_eq!(resp.body_str(), "GET /alive", "{backend}");
            server.shutdown();
        }
    }

    #[test]
    fn connection_close_honored() {
        for backend in backends() {
            let mut server = bind_backend(backend, echo_handler());
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let req = Request::get("/bye").with_header("Connection", "close");
            stream
                .write_all(&crate::serialize::serialize_request(&req))
                .unwrap();
            let resp = crate::client::read_response(&mut stream).unwrap();
            assert_eq!(resp.body_str(), "GET /bye", "{backend}");
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "{backend}: server should close");
            server.shutdown();
        }
    }

    #[test]
    fn mid_request_disconnect_keeps_serving() {
        // A client that dies halfway through a request must not wedge
        // either backend; the next client is served normally.
        for backend in backends() {
            let mut server = bind_backend(backend, echo_handler());
            let addr = server.addr().to_string();
            {
                let mut stream = TcpStream::connect(&addr).unwrap();
                stream
                    .write_all(b"POST /poll HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
                    .unwrap();
                // Dropped with 93 body bytes owed.
            }
            let resp = send_request(&addr, &Request::get("/next")).unwrap();
            assert_eq!(resp.body_str(), "GET /next", "{backend}");
            server.shutdown();
        }
    }

    #[test]
    fn panicking_handler_costs_500_not_a_thread() {
        // A handler panic must answer 500-and-close — and the server
        // (worker pool or dispatch pool) must keep serving afterwards
        // with its full thread complement. `workers: 1` makes any lost
        // thread immediately fatal to the follow-up requests.
        let handler: Handler = handler_fn(|req: Request| {
            if req.path() == "/panic" {
                panic!("handler blew up");
            }
            Response::with_body(Status::OK, "text/plain", req.target.into_bytes())
        });
        // The unwinds below print panic backtraces to stderr by design.
        for backend in backends() {
            let mut server = HttpServer::bind_with(
                "127.0.0.1:0",
                Arc::clone(&handler),
                ServerConfig {
                    backend,
                    workers: 1,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let addr = server.addr().to_string();
            for _ in 0..3 {
                let mut stream = TcpStream::connect(&addr).unwrap();
                stream
                    .write_all(&crate::serialize::serialize_request(&Request::get(
                        "/panic",
                    )))
                    .unwrap();
                let resp = crate::client::read_response(&mut stream).unwrap();
                assert_eq!(resp.status, Status::INTERNAL, "{backend}");
                let mut rest = Vec::new();
                stream.read_to_end(&mut rest).unwrap();
                assert!(rest.is_empty(), "{backend}: connection closes after panic");
            }
            let resp = send_request(&addr, &Request::get("/alive")).unwrap();
            assert_eq!(resp.body_str(), "/alive", "{backend}: pool survived");
            server.shutdown();
        }
    }
}
