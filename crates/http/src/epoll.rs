//! The event-driven epoll driver: one or many event-loop shards.
//!
//! Where the workers engine ([`crate::server`]) burns one blocked thread
//! per in-flight connection (capping concurrent keep-alive sessions at the
//! worker count), this engine holds every connection on nonblocking
//! sockets driven by raw `epoll` readiness (via the libc-free syscall
//! shims in [`rcb_util::sys`]). The protocol — parse, admit or shed,
//! dispatch, park, write, guard — is the shared [`ConnCore`]; this module
//! is only its I/O. The unit of the engine is the [`LoopShard`]: one
//! thread owning its own epoll instance, generation-tagged slot table of
//! `(socket, core)` pairs, socketpair waker, and blocking-dispatch pool.
//! A shard maps readiness onto its cores — readable bytes go to
//! [`ConnCore::feed`], the core's staged writer drains on `EPOLLOUT`, and
//! epoll interest follows what the core wants next.
//!
//! [`ServerBackend::EpollSharded`](crate::server::ServerBackend::EpollSharded)
//! runs `n` shards; the single loop (`"epoll"`) is the `n = 1` case.
//! Shard 0 is the **acceptor shard**: it owns the listening socket and
//! distributes accepted connections round-robin — its own share it
//! registers directly, a peer's share travels through that shard's
//! handoff inbox followed by a waker byte (an `EPOLL_CTL_ADD` handoff
//! executed by the owning loop, so slot tables stay loop-private and
//! unlocked). One acceptor handing off round-robin, rather than a
//! `SO_REUSEPORT` listener per loop, keeps the distribution
//! deterministic and the listener lifecycle (mute-with-backoff on
//! transient accept errors) in exactly one place.
//!
//! `Handler` calls are synchronous and may be arbitrarily slow (a poll
//! that merges takes the host mutex and may sit behind a regeneration),
//! so a loop never runs the blocking [`Handler`]. When the server was
//! bound with a non-blocking entry ([`TryHandler`], see
//! [`HttpServer::bind_split`](crate::server::HttpServer::bind_split)),
//! each loop calls that entry on the core's [`Step::Dispatch`] itself:
//! what it answers — in RCB, every request that neither creates a
//! session, sweeps, waits at a fairness gate nor merges, so every idle
//! poll — completes on the spot, with no queue, condvar or waker in
//! between. Only what it hands back (and every request of a handler
//! without such an entry) goes to the shard's small blocking-dispatch
//! thread pool, whose outcome comes back over the completion queue plus
//! the waker; the admission mark therefore bounds that pool's queue. A
//! panic in the entry is caught on the loop as on the pool: a 500, the
//! connection closes, the loop lives. The core holds one dispatch (or
//! park) per connection, so responses return in request order; requests
//! on *different* connections run concurrently up to the shard's pool
//! size (answers on one loop run one at a time), and different shards
//! share nothing but the handler `Arc`s — there is no cross-shard lock
//! on any per-request path.
//!
//! Threads are named for what they run — `rcb-loop-{shard}` and
//! `rcb-pool-{shard}` — so a stack dump, or a test, can tell them apart.
//!
//! Writes go through [`crate::serialize::ResponseWriter`]: every
//! response as a vectored head + body write, the body straight from its
//! own storage; a `WouldBlock` mid-response parks the cursor and the
//! owning loop resumes on the next `EPOLLOUT`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rcb_util::fault;
use rcb_util::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use rcb_util::{Clock, Result, SimDuration, SimTime};

use crate::conn::{ConnCore, ConnCtx, Step};
use crate::message::Request;
use crate::serialize::WriteProgress;
use crate::server::{
    invoke, invoke_handler, next_accept_backoff, Handler, HandlerOutcome, ServerConfig,
    ServerStats, TryHandler, ACCEPT_BACKOFF_START,
};

/// This module variant is the real backend (see `epoll_stub.rs` for the
/// other half of the contract behind `server::EPOLL_SUPPORTED`).
pub(crate) const SUPPORTED: bool = true;

/// Epoll token of the listening socket (acceptor shard only).
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the shard's waker (handoffs, completions, shutdown).
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// A request handed to a shard's dispatch pool.
struct Job {
    token: u64,
    request: Request,
}

/// A handler result travelling back to the owning shard's event loop:
/// the outcome and whether the handler panicked.
struct Completion {
    token: u64,
    outcome: (HandlerOutcome, bool),
}

/// Everything a shard shares with threads outside its event loop: the
/// dispatch queues (loop ↔ dispatch pool) and the handoff inbox (acceptor
/// shard → this shard). All leaves, held only for a push or a pop.
struct ShardShared {
    jobs: Mutex<VecDeque<Job>>,
    /// Signaled when a job is queued (dispatch threads wait on this).
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Accepted connections handed off by the acceptor shard, awaiting
    /// registration on this shard's epoll (drained by the owning loop).
    inbox: Mutex<Vec<TcpStream>>,
    stop: AtomicBool,
    /// Connections this shard has registered over its lifetime (stats).
    conns_assigned: AtomicU64,
}

impl ShardShared {
    fn new() -> ShardShared {
        ShardShared {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            conns_assigned: AtomicU64::new(0),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn submit(&self, job: Job) {
        let mut q = self
            .jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.push_back(job);
        self.available.notify_one();
    }

    /// Jobs queued but not yet claimed by a dispatch thread — this
    /// shard's admission signal.
    fn queue_len(&self) -> usize {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    fn take_completions(&self) -> Vec<Completion> {
        let mut c = self
            .completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *c)
    }
}

/// Wakes a shard's event loop out of `epoll_wait` (dispatch completions,
/// connection handoffs, shutdown). One byte on a nonblocking socketpair; a
/// full pipe means a wake is already pending, which is all a waker needs.
#[derive(Clone)]
struct WakeHandle(Arc<UnixStream>);

impl WakeHandle {
    fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// The externally visible face of one shard: enough to feed it work
/// (handoffs), wake it, stop it, and read its counters. Clonable; the
/// acceptor shard holds one per peer, the server facade one per shard.
#[derive(Clone)]
struct ShardHandle {
    shared: Arc<ShardShared>,
    waker: WakeHandle,
}

impl ShardHandle {
    /// Hands an accepted connection to this shard: inbox push + wake. The
    /// owning loop registers it on its own epoll (slot tables never cross
    /// threads).
    fn hand_off(&self, stream: TcpStream) {
        {
            let mut inbox = self
                .shared
                .inbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inbox.push(stream);
        }
        self.waker.wake();
    }
}

/// One dispatch-pool thread: pop a job, run the handler, return the
/// completion, wake the owning loop.
fn dispatch_worker(shared: Arc<ShardShared>, handler: Handler, waker: WakeHandle) {
    loop {
        let job = {
            let mut q = shared
                .jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if shared.stopped() {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                // Timeout only as a stop-flag safety net; submissions
                // notify `available` directly.
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
        };
        // Unwind-protected: a panicking handler must still produce a
        // completion (and close the connection), or the dispatch thread
        // dies and the connection wedges with its dispatch outstanding.
        let outcome = invoke_handler(&handler, job.request);
        {
            let mut c = shared
                .completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            c.push(Completion {
                token: job.token,
                outcome,
            });
        }
        waker.wake();
    }
}

/// Reads until the socket runs dry or the core stops wanting bytes.
/// `false` on a fatal read error (EOF is recorded, not fatal: responses
/// for requests already received are still delivered).
fn read_into(stream: &mut TcpStream, core: &mut ConnCore, now: SimTime) -> bool {
    let mut buf = [0u8; 16 * 1024];
    while core.wants_read() {
        // Test-only fault hook (inert in production builds): an armed
        // Read fault behaves exactly like the kernel failing the call.
        let read = match fault::take(fault::Op::Read) {
            Some(e) => Err(e),
            None => stream.read(&mut buf),
        };
        match read {
            Ok(0) => core.eof(),
            Ok(n) => core.feed(&buf[..n], now),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// A slab slot: the generation survives the connection, so a completion
/// for a closed-and-reused slot is recognized as stale and dropped.
struct Slot {
    gen: u32,
    /// Readiness bits currently registered with epoll.
    interest: u32,
    conn: Option<(TcpStream, ConnCore)>,
}

fn token_of(index: usize, gen: u32) -> u64 {
    index as u64 | (u64::from(gen) << 32)
}

fn token_parts(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// The readiness bits a core currently needs.
fn interest_of(core: &ConnCore) -> u32 {
    let read = if core.wants_read() {
        EPOLLIN | EPOLLRDHUP
    } else {
        0
    };
    read | if core.wants_write() { EPOLLOUT } else { 0 }
}

/// The accept half, present only on shard 0: the listener, the
/// round-robin pointer over every shard, and the mute-with-backoff state
/// for transient accept errors.
struct Acceptor {
    listener: TcpListener,
    /// Handles to every shard, index-aligned; entry 0 is the acceptor
    /// shard itself (registered directly, not through the inbox).
    shards: Vec<ShardHandle>,
    /// Next shard in the round-robin rotation.
    next_shard: usize,
    accept_errors: Arc<AtomicU64>,
    /// Listener muted (deregistered) until this engine-clock time after a
    /// transient accept error — the event-loop version of accept backoff.
    listener_muted_until: Option<SimTime>,
    accept_backoff: Duration,
}

impl Acceptor {
    /// Mutes the listener for the current backoff window and doubles it.
    fn mute(&mut self, now: SimTime) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
        self.listener_muted_until = Some(now + SimDuration::from_duration(self.accept_backoff));
        self.accept_backoff = next_accept_backoff(self.accept_backoff);
    }
}

/// One event-loop shard: a thread owning an epoll instance, a slot table
/// of connections, a waker, and (through [`ShardShared`]) its dispatch
/// pool. Shard 0 additionally owns the [`Acceptor`]. Everything
/// socket-shaped for a given connection happens on its owning shard's
/// thread.
struct LoopShard {
    epoll: Epoll,
    waker_rx: UnixStream,
    shared: Arc<ShardShared>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Present only on the acceptor shard (index 0).
    acceptor: Option<Acceptor>,
    /// Engine clock for every core deadline and the listener-mute window
    /// (`ServerConfig::clock` — the wall clock in deployment).
    clock: Clock,
    /// Limits, counters, shed pool, and park hub shared by every core
    /// (and across shards, so counters aggregate server-wide).
    ctx: Arc<ConnCtx>,
    /// The handler's non-blocking entry, run on this loop's thread.
    try_handler: Option<TryHandler>,
}

/// Answers a dispatch on the loop thread when the handler's non-blocking
/// entry can: `Ok` is the outcome (a panic caught as on the pool), `Err`
/// the request for the pool.
fn answer_on_loop(
    try_handler: Option<&TryHandler>,
    request: Request,
) -> std::result::Result<(HandlerOutcome, bool), Request> {
    match try_handler {
        Some(entry) => invoke(|| entry(request)),
        None => Err(request),
    }
}

impl LoopShard {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 1024];
        while !self.shared.stopped() {
            // The 50 ms ceiling is the stop-flag safety net; a muted
            // listener or a core deadline (park, guard) shortens the wait
            // to its own instant, so neither a 1 ms accept backoff nor a
            // short guard timeout is quantized up to a full tick. (A
            // publish pokes the waker, so parks wake without a deadline.)
            let muted_until = self.acceptor.as_ref().and_then(|a| a.listener_muted_until);
            let cores = self.slots.iter().filter_map(|s| s.conn.as_ref());
            let deadline = cores
                .filter_map(|(_, core)| core.deadline())
                .chain(muted_until)
                .min();
            let timeout = match deadline {
                Some(deadline) => deadline.since(self.clock.now()).as_millis().clamp(1, 50) as i32,
                None => 50,
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break, // epoll fd itself failed: unrecoverable
            };
            let mut accept_ready = false;
            for ev in &events[..n] {
                match ev.token() {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_event(token, ev.events()),
                }
            }
            self.adopt_handoffs();
            self.process_completions();
            self.sweep();
            self.maybe_unmute_listener();
            if accept_ready {
                self.accept_drain();
            }
        }
    }

    /// Runs one connection's core until it idles, blocks on a write, or
    /// closes: a dispatch is answered here when the non-blocking entry
    /// can and goes to the pool otherwise, and staged responses drain to
    /// the socket. Returns whether the connection stays open.
    fn drive(&mut self, index: usize, now: SimTime) -> bool {
        let token = token_of(index, self.slots[index].gen);
        let Some((stream, core)) = self.slots[index].conn.as_mut() else {
            return false;
        };
        loop {
            match core.next(now, || self.shared.queue_len()) {
                Step::Dispatch(request) => {
                    match answer_on_loop(self.try_handler.as_ref(), request) {
                        Ok(outcome) => core.complete(outcome, now),
                        Err(request) => self.shared.submit(Job { token, request }),
                    }
                }
                Step::Write => match core.drain(&self.clock, |w| w.write_some(stream)) {
                    Ok(WriteProgress::Done) => {}
                    Ok(WriteProgress::Blocked) => return true,
                    Err(_) => return false,
                },
                Step::Idle => return true,
                Step::Close => return false,
            }
        }
    }

    /// Resolves every connection with time- or publish-driven work:
    /// parks whose key was published, whose channel closed, or whose
    /// deadline passed, and guard deadlines (the core counts and closes).
    /// One O(slots) pass per tick.
    fn sweep(&mut self) {
        let now = self.clock.now();
        for index in 0..self.slots.len() {
            if self.slots[index]
                .conn
                .as_ref()
                .is_some_and(|(_, core)| core.due(now))
            {
                let keep = self.drive(index, now);
                self.settle(index, keep);
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.waker_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Registers connections the acceptor shard handed to this shard.
    fn adopt_handoffs(&mut self) {
        let streams = {
            let mut inbox = self
                .shared
                .inbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *inbox)
        };
        for stream in streams {
            self.register_conn(stream);
        }
    }

    /// Accepts until the listener runs dry, spreading connections across
    /// shards round-robin; a transient error (EMFILE, ECONNABORTED, ...)
    /// mutes the listener for a backoff window instead of busy-looping on
    /// a level-triggered readable listener. No-op on non-acceptor shards.
    fn accept_drain(&mut self) {
        let now = self.clock.now();
        while let Some(acc) = self.acceptor.as_mut() {
            if acc.listener_muted_until.is_some() {
                return;
            }
            // Test-only fault hook: an armed Accept fault behaves exactly
            // like the kernel refusing the accept.
            let accepted = match fault::take(fault::Op::Accept) {
                Some(e) => Err(e),
                None => acc.listener.accept().map(|(stream, _)| stream),
            };
            match accepted {
                Ok(stream) => {
                    acc.accept_backoff = ACCEPT_BACKOFF_START;
                    let target = acc.next_shard;
                    acc.next_shard = (acc.next_shard + 1) % acc.shards.len();
                    if target == 0 {
                        self.register_conn(stream);
                    } else {
                        acc.shards[target].hand_off(stream);
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    let _ = self.epoll.delete(acc.listener.as_raw_fd());
                    acc.mute(now);
                    return;
                }
            }
        }
    }

    fn maybe_unmute_listener(&mut self) {
        let Some(acc) = self.acceptor.as_mut() else {
            return;
        };
        let Some(until) = acc.listener_muted_until else {
            return;
        };
        let now = self.clock.now();
        if now < until {
            return;
        }
        if self
            .epoll
            .add(acc.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .is_ok()
        {
            acc.listener_muted_until = None;
            // Level-triggered: pending connections re-fire on the next
            // wait, but accept now to shave a tick.
            self.accept_drain();
        } else {
            // Registration failed (likely the same resource pressure that
            // caused the mute): stay muted for another backoff window and
            // retry, rather than leaving the listener permanently unwatched.
            acc.mute(now);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                interest: 0,
                conn: None,
            });
            self.slots.len() - 1
        });
        let slot = &mut self.slots[index];
        let interest = EPOLLIN | EPOLLRDHUP;
        let token = token_of(index, slot.gen);
        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
            self.free.push(index);
            return;
        }
        self.shared.conns_assigned.fetch_add(1, Ordering::Relaxed);
        slot.interest = interest;
        slot.conn = Some((
            stream,
            ConnCore::new(Arc::clone(&self.ctx), self.clock.now()),
        ));
    }

    /// The live slot a token names, if the connection still exists (a
    /// stale generation means it closed and the slot was reused).
    fn live(&self, token: u64) -> Option<usize> {
        let (index, gen) = token_parts(token);
        let slot = self.slots.get(index)?;
        (slot.gen == gen && slot.conn.is_some()).then_some(index)
    }

    /// Routes one readiness event to the owning connection's core.
    fn conn_event(&mut self, token: u64, readiness: u32) {
        let Some(index) = self.live(token) else {
            return;
        };
        let now = self.clock.now();
        let (stream, core) = self.slots[index].conn.as_mut().expect("live slot");
        let readable = readiness & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
        // EPOLLERR/EPOLLHUP (RST, full hangup) are reported regardless of
        // the interest mask and the socket can neither deliver our
        // responses nor send more requests: close now — after the read
        // drained any final bytes — rather than spinning on a
        // level-triggered event no interest change can silence. (A plain
        // write-side shutdown arrives as EPOLLRDHUP and keeps serving.)
        let keep = (!readable || read_into(stream, core, now))
            && readiness & (EPOLLERR | EPOLLHUP) == 0
            && self.drive(index, now);
        self.settle(index, keep);
    }

    /// Applies a verdict: close the connection (dropping its core releases
    /// any park slot it held) or refresh its epoll registration to match
    /// what the core now waits for.
    fn settle(&mut self, index: usize, keep: bool) {
        let slot = &mut self.slots[index];
        let Some((stream, core)) = slot.conn.as_ref() else {
            return;
        };
        if keep {
            let want = interest_of(core);
            let token = token_of(index, slot.gen);
            if want != slot.interest && self.epoll.modify(stream.as_raw_fd(), want, token).is_ok() {
                slot.interest = want;
            }
            return;
        }
        let _ = self.epoll.delete(stream.as_raw_fd());
        slot.conn = None;
        // The generation bump invalidates any in-flight dispatch for this
        // slot; its completion will be dropped as stale.
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(index);
    }

    /// Delivers finished handler outcomes back to their cores: a response
    /// starts its staged write; a park installs on the connection (a
    /// publish that already happened resolves it in the same `drive`).
    fn process_completions(&mut self) {
        let now = self.clock.now();
        for completion in self.shared.take_completions() {
            let Some(index) = self.live(completion.token) else {
                continue; // connection closed while the handler ran
            };
            let (_, core) = self.slots[index].conn.as_mut().expect("live slot");
            core.complete(completion.outcome, now);
            let keep = self.drive(index, now);
            self.settle(index, keep);
        }
    }
}

/// A running epoll-backed HTTP server: `shards` event-loop threads (shard
/// 0 accepting), each with its own dispatch pool slice.
pub(crate) struct EpollServer {
    addr: SocketAddr,
    shards: Vec<ShardHandle>,
    accept_errors: Arc<AtomicU64>,
    ctx: Arc<ConnCtx>,
    threads: Vec<JoinHandle<()>>,
}

impl EpollServer {
    /// Binds and starts `shard_count` event loops (min 1). The dispatch
    /// budget `config.workers` is spread across shards (ceiling division),
    /// so one shard keeps exactly the configured pool size.
    pub(crate) fn bind(
        addr: &str,
        handler: Handler,
        try_handler: Option<TryHandler>,
        config: &ServerConfig,
        shard_count: usize,
    ) -> Result<EpollServer> {
        let shard_count = shard_count.max(1);
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let accept_errors = Arc::new(AtomicU64::new(0));
        let ctx = ConnCtx::new(config);

        // Handles first: shard 0's acceptor needs one per shard before any
        // loop thread starts.
        let mut handles = Vec::with_capacity(shard_count);
        let mut waker_rxs = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (waker_rx, waker_tx) = UnixStream::pair()?;
            waker_rx.set_nonblocking(true)?;
            waker_tx.set_nonblocking(true)?;
            handles.push(ShardHandle {
                shared: Arc::new(ShardShared::new()),
                waker: WakeHandle(Arc::new(waker_tx)),
            });
            waker_rxs.push(waker_rx);
        }

        // Phase 1, fallible: every epoll instance and registration is
        // created before any thread starts, so a failure partway (fd
        // exhaustion on a later shard) unwinds by Drop — epolls, wakers,
        // and the listener all close, no thread was spawned, the port is
        // released. (Spawning as we went would leak running loops and a
        // bound listener feeding shards that never came to exist.)
        let mut loop_shards = Vec::with_capacity(shard_count);
        let mut listener = Some(listener);
        for (index, waker_rx) in waker_rxs.into_iter().enumerate() {
            let epoll = Epoll::new()?;
            epoll.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
            let acceptor = match listener.take() {
                Some(listener) => {
                    debug_assert_eq!(index, 0, "listener goes to shard 0");
                    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
                    Some(Acceptor {
                        listener,
                        shards: handles.clone(),
                        next_shard: 0,
                        accept_errors: Arc::clone(&accept_errors),
                        listener_muted_until: None,
                        accept_backoff: ACCEPT_BACKOFF_START,
                    })
                }
                None => None,
            };
            loop_shards.push(LoopShard {
                epoll,
                waker_rx,
                shared: Arc::clone(&handles[index].shared),
                slots: Vec::new(),
                free: Vec::new(),
                acceptor,
                clock: config.clock.clone(),
                ctx: Arc::clone(&ctx),
                try_handler: try_handler.clone(),
            });
            // A publish on the hub pokes this shard's waker, so a parked
            // poll resolves on the very next loop iteration instead of
            // waiting out the 50 ms tick.
            let waker = handles[index].waker.clone();
            config
                .park_hub
                .register_waker(Box::new(move || waker.wake()));
        }

        // Phase 2, infallible: start every loop and its dispatch slice.
        let per_shard_workers = config.workers.max(1).div_ceil(shard_count);
        let mut threads = Vec::with_capacity(shard_count * (per_shard_workers + 1));
        let spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name)
                .spawn(body)
                .expect("failed to spawn thread")
        };
        for (index, shard) in loop_shards.into_iter().enumerate() {
            threads.push(spawn(
                format!("rcb-loop-{index}"),
                Box::new(move || shard.run()),
            ));
            for _ in 0..per_shard_workers {
                let shared = Arc::clone(&handles[index].shared);
                let handler = Arc::clone(&handler);
                let waker = handles[index].waker.clone();
                threads.push(spawn(
                    format!("rcb-pool-{index}"),
                    Box::new(move || dispatch_worker(shared, handler, waker)),
                ));
            }
        }

        Ok(EpollServer {
            addr: local,
            shards: handles,
            accept_errors,
            ctx,
            threads,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate engine counters: accept errors plus the per-shard
    /// connection assignment (round-robin keeps these balanced).
    pub(crate) fn stats(&self) -> ServerStats {
        let connections_per_shard: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.shared.conns_assigned.load(Ordering::Relaxed))
            .collect();
        let mut stats = ServerStats {
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            connections_accepted: connections_per_shard.iter().sum(),
            shards: connections_per_shard.len(),
            connections_per_shard,
            ..ServerStats::default()
        };
        self.ctx.fill_stats(&mut stats);
        stats
    }

    /// Stops every shard **before** joining any thread: all loops observe
    /// the stop flag concurrently (each gets its own waker byte), so total
    /// shutdown time is one drain, not one drain per shard. Join order is
    /// deterministic — shard 0's loop, its dispatch pool, shard 1's loop,
    /// ... — which the drain test relies on being prompt and leak-free.
    pub(crate) fn shutdown(&mut self) {
        for shard in &self.shards {
            shard.shared.stop.store(true, Ordering::Relaxed);
            shard.shared.available.notify_all();
            shard.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for EpollServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
