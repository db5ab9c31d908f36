//! The deterministic world: a seeded in-process network fabric.
//!
//! [`SimNet`] is a transport the real HTTP stack can run over with zero
//! sockets: named hosts bind [`SimListener`]s, clients open [`SimConn`]
//! byte streams whose delivery times come from a [`LinkModel`] (FIFO
//! serialization + latency, plus seeded jitter/loss draws from a
//! [`DetRng`] forked per connection), and a partition set can cut and
//! heal host pairs mid-session. [`World`] wraps a `SimNet` around a
//! shared [`VirtualClock`] and a scenario-level RNG — the turmoil-style
//! harness (SNIPPETS.md 1–3) the `rcb-core` world sim drives.
//!
//! The fabric runs in **pump mode** only: everything on one thread under
//! the world's virtual clock. A scenario loop alternates "pump every
//! endpoint to quiescence" with "advance the clock to the next event"
//! ([`SimNet::next_event_time`]). Every read is the nonblocking
//! [`SimConn::try_read`]; nothing blocks, nothing sleeps, and two
//! same-seed runs replay the exact same trace. [`World::new`] is the only
//! way to build a fabric, so a fabric always runs on virtual time.
//!
//! TCP semantics: a conn is a **reliable in-order byte stream**. A loss
//! draw is a retransmission delay, a jitter/reorder draw perturbs a
//! segment's computed arrival, and in-order delivery is restored by
//! clamping per-direction arrivals monotone (head-of-line blocking) —
//! bytes are never dropped or permuted, exactly like TCP over a lossy
//! wire.
//!
//! Lock ordering: the fabric is one `Mutex<NetInner>`; every operation
//! locks it alone and never calls out while holding it, so it composes as
//! a leaf under any caller lock.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, IoSlice, Write};
use std::sync::{Arc, Mutex};

use rcb_util::{Clock, DetRng, SimDuration, SimTime, VirtualClock};

use crate::link::{LinkModel, LinkSpec};

/// Per-direction buffering cap (in-flight + delivered, bytes). A writer
/// that would exceed it gets an error — the sim equivalent of a send
/// buffer that never drains.
const DIR_CAPACITY: usize = 8 * 1024 * 1024;

/// Which end of a connection a [`SimConn`] handle is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Client,
    Server,
}

impl Side {
    /// Index of the direction this side writes into.
    fn out_dir(self) -> usize {
        match self {
            Side::Client => 0, // client → server
            Side::Server => 1, // server → client
        }
    }

    /// Index of the direction this side reads from.
    fn in_dir(self) -> usize {
        1 - self.out_dir()
    }
}

/// One direction of a connection: segments in flight (arrival-stamped)
/// plus bytes already deliverable to the reader.
#[derive(Default)]
struct DirState {
    /// FIFO serialization point (`Pipe`-style busy-until).
    busy_until: SimTime,
    /// Arrival clamp making delivery monotone (head-of-line blocking).
    last_arrival: SimTime,
    /// Segments on the wire, arrival-ordered by construction.
    in_flight: VecDeque<(SimTime, Vec<u8>)>,
    /// Bytes that have arrived and await the reader.
    delivered: VecDeque<u8>,
    /// Total buffered bytes (in_flight + delivered).
    buffered: usize,
    /// The writing side closed (EOF once the queues drain).
    closed: bool,
}

struct ConnState {
    client: String,
    server: String,
    link: LinkModel,
    rng: DetRng,
    dirs: [DirState; 2],
    reset: bool,
    /// Handle-dropped flags per [`Side::out_dir`] index.
    side_gone: [bool; 2],
}

struct ListenerState {
    /// `(ready_at, conn_id)` — connections completing their handshake.
    pending: VecDeque<(SimTime, u64)>,
    open: bool,
}

struct NetInner {
    next_conn_id: u64,
    rng: DetRng,
    listeners: BTreeMap<String, ListenerState>,
    conns: BTreeMap<u64, ConnState>,
    /// Normalized `(a, b)` host pairs currently partitioned.
    partitions: BTreeSet<(String, String)>,
    trace: Vec<String>,
    /// Loss-delay draws taken (observability for lossy-link tests).
    loss_events: u64,
}

impl NetInner {
    fn partitioned(&self, a: &str, b: &str) -> bool {
        self.partitions.contains(&normalize_pair(a, b))
    }
}

fn normalize_pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// The in-process network fabric. Shared (`Arc`) between every conn and
/// listener handle; all state lives behind one leaf mutex.
pub struct SimNet {
    clock: Clock,
    inner: Mutex<NetInner>,
}

impl SimNet {
    /// Creates a fabric on `clock`, with `seed` driving every per-conn
    /// jitter/loss draw. [`World::new`] is the only caller: it passes the
    /// world's virtual clock.
    pub(crate) fn new(clock: Clock, seed: u64) -> Arc<SimNet> {
        Arc::new(SimNet {
            clock,
            inner: Mutex::new(NetInner {
                next_conn_id: 0,
                rng: DetRng::new(seed),
                listeners: BTreeMap::new(),
                conns: BTreeMap::new(),
                partitions: BTreeSet::new(),
                trace: Vec::new(),
                loss_events: 0,
            }),
        })
    }

    /// The clock this fabric runs on.
    pub fn clock(&self) -> Clock {
        self.clock.clone()
    }

    fn trace_line(inner: &mut NetInner, now: SimTime, msg: impl AsRef<str>) {
        inner
            .trace
            .push(format!("t={} {}", now.as_micros(), msg.as_ref()));
    }

    /// Appends a scenario-level line to the event trace.
    pub fn note(&self, msg: &str) {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        Self::trace_line(&mut inner, now, msg);
    }

    /// A copy of the event trace so far.
    pub fn trace(&self) -> Vec<String> {
        self.inner.lock().unwrap().trace.clone()
    }

    /// Number of loss-delay draws charged so far.
    pub fn loss_events(&self) -> u64 {
        self.inner.lock().unwrap().loss_events
    }

    /// Binds `host` — at most one listener per name.
    pub fn bind(self: &Arc<Self>, host: &str) -> io::Result<SimListener> {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        if inner.listeners.get(host).is_some_and(|l| l.open) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("host {host} already bound"),
            ));
        }
        inner.listeners.insert(
            host.to_string(),
            ListenerState {
                pending: VecDeque::new(),
                open: true,
            },
        );
        Self::trace_line(&mut inner, now, format!("bind {host}"));
        Ok(SimListener {
            net: self.clone(),
            host: host.to_string(),
        })
    }

    /// Opens a connection from `from` to the listener bound at `to` over
    /// `link`. The handshake costs one RTT: the returned client conn can
    /// write immediately, but nothing is delivered (and the server side
    /// is not acceptable) before `now + rtt`.
    pub fn connect(self: &Arc<Self>, from: &str, to: &str, link: LinkModel) -> io::Result<SimConn> {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        if inner.partitioned(from, to) {
            Self::trace_line(
                &mut inner,
                now,
                format!("connect-refused {from}->{to} (partitioned)"),
            );
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("{from} -> {to} is partitioned"),
            ));
        }
        if !inner.listeners.get(to).is_some_and(|l| l.open) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no listener at {to}"),
            ));
        }
        let id = inner.next_conn_id;
        inner.next_conn_id += 1;
        let rng = inner.rng.fork(id);
        let established = now + link.spec.rtt();
        let mut conn = ConnState {
            client: from.to_string(),
            server: to.to_string(),
            link,
            rng,
            dirs: [DirState::default(), DirState::default()],
            reset: false,
            side_gone: [false, false],
        };
        for d in &mut conn.dirs {
            d.busy_until = established;
            d.last_arrival = established;
        }
        inner.conns.insert(id, conn);
        inner
            .listeners
            .get_mut(to)
            .expect("listener checked above")
            .pending
            .push_back((established, id));
        Self::trace_line(&mut inner, now, format!("connect #{id} {from}->{to}"));
        Ok(SimConn {
            net: self.clone(),
            id,
            side: Side::Client,
        })
    }

    /// Cuts every connection between `a` and `b` (established and
    /// pending) and refuses new ones until [`SimNet::heal`].
    pub fn partition(&self, a: &str, b: &str) {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        inner.partitions.insert(normalize_pair(a, b));
        let mut cut = Vec::new();
        for (&id, conn) in inner.conns.iter_mut() {
            if !conn.reset
                && ((conn.client == a && conn.server == b)
                    || (conn.client == b && conn.server == a))
            {
                conn.reset = true;
                cut.push(id);
            }
        }
        for id in &cut {
            Self::trace_line(&mut inner, now, format!("reset #{id}"));
        }
        Self::trace_line(&mut inner, now, format!("partition {a}|{b}"));
    }

    /// Removes the partition between `a` and `b`; new connections flow
    /// again (cut connections stay dead — endpoints must reconnect).
    pub fn heal(&self, a: &str, b: &str) {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        inner.partitions.remove(&normalize_pair(a, b));
        Self::trace_line(&mut inner, now, format!("heal {a}|{b}"));
    }

    /// The earliest future fabric event strictly after `after`: a segment
    /// arrival or a handshake completing. Matured-but-unread data does
    /// not count (a quiescent pump has already consumed it).
    pub fn next_event_time(&self, after: SimTime) -> Option<SimTime> {
        let inner = self.inner.lock().unwrap();
        let mut best: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > after && best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        for conn in inner.conns.values() {
            if conn.reset {
                continue;
            }
            for d in &conn.dirs {
                // Arrivals are monotone per direction: the first one
                // beyond `after` is this direction's next event (earlier
                // ones have matured and wait only on a reader).
                if let Some(&(arrival, _)) =
                    d.in_flight.iter().find(|&&(arrival, _)| arrival > after)
                {
                    consider(arrival);
                }
            }
        }
        for l in inner.listeners.values() {
            if let Some(&(ready, _)) = l.pending.iter().find(|&&(ready, _)| ready > after) {
                consider(ready);
            }
        }
        best
    }

    fn try_accept(self: &Arc<Self>, host: &str) -> io::Result<SimConn> {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        let listener = inner.listeners.get_mut(host).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, format!("{host} not bound"))
        })?;
        match listener.pending.front() {
            Some(&(ready, _)) if ready <= now => {
                let (_, id) = listener.pending.pop_front().expect("peeked above");
                Self::trace_line(&mut inner, now, format!("accept #{id} at {host}"));
                Ok(SimConn {
                    net: self.clone(),
                    id,
                    side: Side::Server,
                })
            }
            _ => Err(io::ErrorKind::WouldBlock.into()),
        }
    }

    /// Sends `bufs` as one transfer, as one kernel `writev` sends them
    /// together: one serialization slot, one jitter and one loss draw.
    fn write(&self, id: u64, side: Side, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let len: usize = bufs.iter().map(|b| b.len()).sum();
        if len == 0 {
            return Ok(0);
        }
        let now = self.clock.now();
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let conn = inner
            .conns
            .get_mut(&id)
            .ok_or_else(|| io::Error::from(io::ErrorKind::ConnectionReset))?;
        if conn.reset {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        let dir_idx = side.out_dir();
        let (bps, latency) = match side {
            Side::Client => (conn.link.spec.up_bps, conn.link.spec.latency),
            Side::Server => (conn.link.spec.down_bps, conn.link.spec.latency),
        };
        let d = &mut conn.dirs[dir_idx];
        if d.buffered + len > DIR_CAPACITY {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                "sim conn buffer full (reader not draining)",
            ));
        }
        // FIFO serialization, then latency, then the seeded perturbations.
        let begin = now.max(d.busy_until);
        d.busy_until = begin + LinkSpec::serialization(len, bps);
        let mut arrival = d.busy_until + latency;
        if conn.link.jitter > SimDuration::ZERO {
            arrival +=
                SimDuration::from_micros(conn.rng.next_below(conn.link.jitter.as_micros() + 1));
        }
        if conn.link.loss > 0.0 && conn.rng.chance(conn.link.loss) {
            arrival += conn.link.loss_penalty;
            inner.loss_events += 1;
        }
        // Head-of-line blocking: a TCP stream delivers in order.
        arrival = arrival.max(d.last_arrival);
        d.last_arrival = arrival;
        let mut bytes = Vec::with_capacity(len);
        for buf in bufs {
            bytes.extend_from_slice(buf);
        }
        d.in_flight.push_back((arrival, bytes));
        d.buffered += len;
        SimNet::trace_line(
            inner,
            now,
            format!("xfer #{id} dir{dir_idx} {len}B arr={}", arrival.as_micros()),
        );
        Ok(len)
    }

    /// Moves matured segments into the reader-visible queue.
    fn mature(d: &mut DirState, now: SimTime) {
        while let Some(&(arrival, _)) = d.in_flight.front() {
            if arrival > now {
                break;
            }
            let (_, bytes) = d.in_flight.pop_front().expect("peeked above");
            d.delivered.extend(bytes);
        }
    }

    /// One nonblocking read attempt. `Ok(0)` is EOF (peer closed and the
    /// stream is drained); `WouldBlock` means nothing deliverable *yet*.
    fn try_read(&self, id: u64, side: Side, buf: &mut [u8]) -> io::Result<usize> {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        let conn = inner
            .conns
            .get_mut(&id)
            .ok_or_else(|| io::Error::from(io::ErrorKind::ConnectionReset))?;
        let d = &mut conn.dirs[side.in_dir()];
        Self::mature(d, now);
        if !d.delivered.is_empty() {
            let n = buf.len().min(d.delivered.len());
            for b in buf.iter_mut().take(n) {
                *b = d.delivered.pop_front().expect("len checked");
            }
            d.buffered -= n;
            return Ok(n);
        }
        if conn.reset {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if d.closed && d.in_flight.is_empty() {
            return Ok(0); // clean EOF
        }
        Err(io::ErrorKind::WouldBlock.into())
    }

    fn close_side(&self, id: u64, side: Side) {
        let mut inner = self.inner.lock().unwrap();
        let remove = if let Some(conn) = inner.conns.get_mut(&id) {
            conn.dirs[side.out_dir()].closed = true;
            conn.side_gone[side.out_dir()] = true;
            conn.side_gone == [true, true]
        } else {
            false
        };
        if remove {
            inner.conns.remove(&id);
        }
    }
}

/// A bound host accepting simulated connections.
pub struct SimListener {
    net: Arc<SimNet>,
    host: String,
}

impl SimListener {
    /// The host name this listener is bound to.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Accepts one handshake-complete connection, or `WouldBlock`.
    pub fn try_accept(&self) -> io::Result<SimConn> {
        self.net.try_accept(&self.host)
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        let mut inner = self.net.inner.lock().unwrap();
        if let Some(l) = inner.listeners.get_mut(&self.host) {
            l.open = false;
        }
    }
}

impl std::fmt::Debug for SimListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimListener({})", self.host)
    }
}

/// One end of a simulated TCP connection. Writes through `Write`, reads
/// through the nonblocking [`SimConn::try_read`]; dropping the handle
/// closes this side.
pub struct SimConn {
    net: Arc<SimNet>,
    id: u64,
    side: Side,
}

impl SimConn {
    /// Fabric-wide connection id (stable across both ends).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Nonblocking read: `Ok(0)` = EOF, `WouldBlock` = nothing yet.
    pub fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.net.try_read(self.id, self.side, buf)
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.net.write(self.id, self.side, &[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.net.write(self.id, self.side, bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        self.net.close_side(self.id, self.side);
    }
}

impl std::fmt::Debug for SimConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimConn(#{} {:?})", self.id, self.side)
    }
}

/// A seeded world: virtual clock + fabric + scenario RNG. The only way
/// to build a fabric, so every fabric runs on the world's virtual clock.
pub struct World {
    clock: Clock,
    vclock: Arc<VirtualClock>,
    net: Arc<SimNet>,
    rng: DetRng,
}

impl World {
    /// Creates a world at `t = 0` whose every random draw derives from
    /// `seed`.
    pub fn new(seed: u64) -> World {
        let (clock, vclock) = Clock::new_virtual();
        let net = SimNet::new(clock.clone(), seed);
        World {
            clock,
            vclock,
            net,
            rng: DetRng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// A clock handle server/agent code should consult.
    pub fn clock(&self) -> Clock {
        self.clock.clone()
    }

    /// The fabric (for direct `bind`/`connect`/trace access).
    pub fn net(&self) -> Arc<SimNet> {
        self.net.clone()
    }

    /// The scenario-level RNG (deterministic, forked from the seed).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances virtual time to `t` (monotonic).
    pub fn advance_to(&self, t: SimTime) {
        self.vclock.advance_to(t);
    }

    /// Advances virtual time by `d`.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        self.vclock.advance(d)
    }

    /// Binds a named host.
    pub fn bind(&self, host: &str) -> io::Result<SimListener> {
        self.net.bind(host)
    }

    /// Connects `from` to `to` over `link`.
    pub fn connect(&self, from: &str, to: &str, link: LinkModel) -> io::Result<SimConn> {
        self.net.connect(from, to, link)
    }

    /// Cuts `a` ↔ `b`.
    pub fn partition(&self, a: &str, b: &str) {
        self.net.partition(a, b);
    }

    /// Heals `a` ↔ `b`.
    pub fn heal(&self, a: &str, b: &str) {
        self.net.heal(a, b);
    }

    /// Earliest fabric event strictly after now.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.net.next_event_time(self.now())
    }

    /// Appends a scenario-level trace line.
    pub fn note(&self, msg: &str) {
        self.net.note(msg);
    }

    /// A copy of the event trace.
    pub fn trace(&self) -> Vec<String> {
        self.net.trace()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "World(now={})", self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_link() -> LinkModel {
        LinkModel::from_spec(LinkSpec::symmetric(
            100_000_000,
            SimDuration::from_millis(1),
        ))
    }

    /// Pump-mode helper: advance to the next fabric event.
    fn step(world: &World) -> bool {
        match world.next_event_time() {
            Some(t) => {
                world.advance_to(t);
                true
            }
            None => false,
        }
    }

    #[test]
    fn bytes_flow_client_to_server_after_latency() {
        let world = World::new(1);
        let listener = world.bind("host").unwrap();
        let mut client = world.connect("p1", "host", fast_link()).unwrap();
        // Handshake not complete: nothing to accept at t=0.
        assert_eq!(
            listener.try_accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        client.write_all(b"hello").unwrap();
        assert!(step(&world), "handshake completion is an event");
        let mut server = listener.try_accept().unwrap();
        let mut buf = [0u8; 16];
        // Data may need a further advance (serialization + latency).
        let n = loop {
            match server.try_read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => assert!(step(&world)),
                Err(e) => panic!("unexpected {e}"),
            }
        };
        assert_eq!(&buf[..n], b"hello");
        // And the reply direction works symmetrically.
        server.write_all(b"world").unwrap();
        let n = loop {
            match client.try_read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => assert!(step(&world)),
                Err(e) => panic!("unexpected {e}"),
            }
        };
        assert_eq!(&buf[..n], b"world");
    }

    #[test]
    fn dropping_writer_is_clean_eof() {
        let world = World::new(2);
        let listener = world.bind("host").unwrap();
        let mut client = world.connect("p1", "host", fast_link()).unwrap();
        client.write_all(b"bye").unwrap();
        drop(client);
        while step(&world) {}
        let mut server = listener.try_accept().unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.try_read(&mut buf).unwrap(), 3);
        assert_eq!(server.try_read(&mut buf).unwrap(), 0, "EOF after drain");
    }

    #[test]
    fn partition_resets_conns_and_refuses_new_ones_until_heal() {
        let world = World::new(3);
        let _listener = world.bind("host").unwrap();
        let mut client = world.connect("p1", "host", fast_link()).unwrap();
        world.partition("p1", "host");
        assert_eq!(
            client.write(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        let mut buf = [0u8; 4];
        assert_eq!(
            client.try_read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(
            world.connect("p1", "host", fast_link()).unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        // Unrelated hosts are unaffected.
        assert!(world.connect("p2", "host", fast_link()).is_ok());
        world.heal("p1", "host");
        assert!(world.connect("p1", "host", fast_link()).is_ok());
    }

    #[test]
    fn ordering_survives_jitter_and_loss() {
        // A very jittery, lossy link must still deliver a TCP stream:
        // same bytes, same order, no duplication.
        let world = World::new(4);
        let listener = world.bind("host").unwrap();
        let link = fast_link()
            .with_jitter(SimDuration::from_millis(50))
            .with_loss(0.3, SimDuration::from_millis(80));
        let mut client = world.connect("p1", "host", link).unwrap();
        let mut sent = Vec::new();
        for i in 0..50u8 {
            let seg = vec![i; 7];
            client.write_all(&seg).unwrap();
            sent.extend(seg);
        }
        while step(&world) {}
        let mut server = listener.try_accept().unwrap();
        let mut got: Vec<u8> = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match server.try_read(&mut buf) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(got, sent);
        assert!(world.net().loss_events() > 0, "loss draws actually fired");
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let run = |seed: u64| -> Vec<String> {
            let world = World::new(seed);
            let listener = world.bind("host").unwrap();
            let link = fast_link().with_jitter(SimDuration::from_millis(10));
            let mut c1 = world.connect("p1", "host", link).unwrap();
            let mut c2 = world.connect("p2", "host", link).unwrap();
            c1.write_all(b"aaaa").unwrap();
            c2.write_all(b"bbbb").unwrap();
            while step(&world) {}
            let _s1 = listener.try_accept().unwrap();
            let _s2 = listener.try_accept().unwrap();
            world.trace()
        };
        assert_eq!(run(7), run(7), "same seed replays byte-identically");
        assert_ne!(run(7), run(8), "jitter draws depend on the seed");
    }

    #[test]
    fn a_vectored_write_is_one_transfer() {
        let world = World::new(7);
        let listener = world.bind("host").unwrap();
        let mut client = world.connect("p1", "host", fast_link()).unwrap();
        let (head, body) = (&b"HTTP/1.1 200 OK\r\n\r\n"[..], &b"<newContent/>"[..]);
        let sent = client
            .write_vectored(&[IoSlice::new(head), IoSlice::new(body)])
            .unwrap();
        assert_eq!(sent, head.len() + body.len());
        let xfers: Vec<String> = world
            .trace()
            .into_iter()
            .filter(|line| line.contains("xfer"))
            .collect();
        assert_eq!(xfers.len(), 1, "{xfers:?}");
        assert!(xfers[0].contains(&format!(" {sent}B ")), "{}", xfers[0]);
        while step(&world) {}
        let mut server = listener.try_accept().unwrap();
        let mut buf = [0u8; 64];
        let n = server.try_read(&mut buf).unwrap();
        assert_eq!(&buf[..n], [head, body].concat().as_slice());
    }

    #[test]
    fn capacity_overflow_errors_instead_of_blocking() {
        let world = World::new(6);
        let _listener = world.bind("host").unwrap();
        let mut client = world.connect("p1", "host", fast_link()).unwrap();
        let chunk = vec![0u8; 1024 * 1024];
        let mut wrote = 0usize;
        let err = loop {
            match client.write(&chunk) {
                Ok(n) => wrote += n,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        assert_eq!(wrote, DIR_CAPACITY);
    }
}
