//! Single-threaded, nonblocking server driver for the deterministic
//! world sim (pump mode).
//!
//! The threaded engines ([`crate::server`] and its epoll engine) serve
//! kernel sockets on the wall clock, and threads make replay
//! nondeterministic. [`SimDriver`], the fabric's only driver, is a
//! deterministic driver of the same per-connection state machine,
//! `ConnCore`: the same parser, admission, park/wake/timeout
//! resolution and guards — advanced by explicit [`SimDriver::pump`] calls
//! from the scenario loop, with every read a nonblocking
//! [`rcb_sim::SimConn::try_read`], every handler call inline, and every
//! deadline measured on the shared virtual clock. Behaviour observed under
//! the world sim is therefore the production behaviour, not a mirror of
//! it.
//!
//! The scenario loop alternates:
//!
//! 1. `while driver.pump() {}` — serve everything currently servable;
//! 2. advance the virtual clock to the next event
//!    ([`rcb_sim::SimNet::next_event_time`] joined with
//!    [`SimDriver::next_park_deadline`]);
//!
//! which is the standard discrete-event shape: no sleeps, no condvars, no
//! wall time anywhere.

use rcb_sim::{SimConn, SimListener};
use rcb_util::{Clock, SimTime};
use std::sync::Arc;

use crate::conn::{ConnCore, ConnCtx, Step};
use crate::serialize::WriteProgress;
use crate::server::{invoke_handler, Handler, ServerConfig, ServerStats};

/// The pump-mode server: accepts from a [`SimListener`] and drives every
/// connection's `ConnCore` with the shared [`Handler`], entirely
/// nonblocking.
pub struct SimDriver {
    listener: SimListener,
    handler: Handler,
    clock: Clock,
    ctx: Arc<ConnCtx>,
    conns: Vec<(SimConn, ConnCore)>,
    requests_served: u64,
    connections_accepted: u64,
}

impl SimDriver {
    /// Wraps `listener`; the park hub, clock, and overload limits come
    /// from `config` (the same fields the threaded engines use).
    pub fn new(listener: SimListener, handler: Handler, config: &ServerConfig) -> SimDriver {
        SimDriver {
            listener,
            handler,
            clock: config.clock.clone(),
            ctx: ConnCtx::new(config),
            conns: Vec::new(),
            requests_served: 0,
            connections_accepted: 0,
        }
    }

    /// One service sweep: accept whatever has finished its handshake,
    /// then per connection resolve a due park, drain readable bytes, and
    /// dispatch complete requests. The admission load is the number of
    /// requests admitted to the handler this sweep. Returns whether
    /// anything happened — the scenario loop pumps until `false` before
    /// advancing the clock.
    pub fn pump(&mut self) -> bool {
        let now = self.clock.now();
        let mut progress = false;
        while let Ok(conn) = self.listener.try_accept() {
            self.conns
                .push((conn, ConnCore::new(Arc::clone(&self.ctx), now)));
            self.connections_accepted += 1;
            progress = true;
        }
        let mut admitted = 0;
        let mut served = 0;
        self.conns.retain_mut(|(conn, core)| {
            let answered = core.answered();
            let keep = service(
                conn,
                core,
                &self.handler,
                &self.clock,
                &mut admitted,
                &mut progress,
            );
            served += core.answered() - answered;
            keep
        });
        self.requests_served += served;
        progress
    }

    /// The soonest parked long-poll deadline, if any — the scenario loop
    /// folds this into its next-event computation so park timeouts fire
    /// even when the fabric is silent.
    pub fn next_park_deadline(&self) -> Option<SimTime> {
        self.conns
            .iter()
            .filter_map(|(_, core)| core.parked_on())
            .map(|(_, _, deadline)| deadline)
            .min()
    }

    /// The soonest connection-guard deadline (header-read or idle), if
    /// any. Scenario loops that want guard trips to fire even when the
    /// fabric is otherwise silent fold this in alongside
    /// [`SimDriver::next_park_deadline`].
    pub fn next_guard_deadline(&self) -> Option<SimTime> {
        self.conns
            .iter()
            .filter(|(_, core)| core.parked_on().is_none())
            .filter_map(|(_, core)| core.deadline())
            .min()
    }

    /// Overload/guard counters in the same shape the threaded engines
    /// report, so world-sim scenarios can assert on server-side totals.
    pub fn server_stats(&self) -> ServerStats {
        let mut stats = ServerStats {
            connections_accepted: self.connections_accepted,
            ..ServerStats::default()
        };
        self.ctx.fill_stats(&mut stats);
        stats
    }

    /// Live connections (accepted, not yet closed).
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Long-polls currently parked.
    pub fn parked(&self) -> usize {
        self.conns
            .iter()
            .filter(|(_, core)| core.parked_on().is_some())
            .count()
    }

    /// Requests answered so far (parked polls count on resolution).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }
}

impl std::fmt::Debug for SimDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDriver")
            .field("connections", &self.conns.len())
            .field("parked", &self.parked())
            .field("requests_served", &self.requests_served)
            .finish()
    }
}

/// One pass over one connection: a due park resolves first — its
/// closure runs whatever else arrived in this step, a reset included —
/// then readable bytes are fed, then the core runs until it idles:
/// handler calls inline, writes straight to the fabric. Returns whether
/// the connection stays open.
fn service(
    conn: &mut SimConn,
    core: &mut ConnCore,
    handler: &Handler,
    clock: &Clock,
    admitted: &mut usize,
    progress: &mut bool,
) -> bool {
    let now = clock.now();
    *progress |= core.resolve_park(now);
    let mut buf = [0u8; 16 * 1024];
    while core.wants_read() {
        match conn.try_read(&mut buf) {
            Ok(0) => core.eof(),
            Ok(n) => {
                core.feed(&buf[..n], now);
                *progress = true;
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => return false, // reset (partition)
        }
    }
    loop {
        match core.next(now, || *admitted) {
            Step::Dispatch(request) => {
                *progress = true;
                *admitted += 1;
                core.complete(invoke_handler(handler, request), now);
            }
            Step::Write => {
                *progress = true;
                match core.drain(clock, |w| w.write_some(conn)) {
                    Ok(WriteProgress::Done) => {}
                    Ok(WriteProgress::Blocked) => return true,
                    Err(_) => return false,
                }
            }
            Step::Idle => return true,
            Step::Close => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::try_parse_response;
    use crate::message::{Request, Response, Status};
    use crate::serialize::serialize_request;
    use crate::server::{handler_fn, HandlerOutcome, Park, ParkChannel};
    use rcb_sim::{LinkModel, LinkSpec, World};
    use rcb_util::SimDuration;
    use std::io::Write;

    fn link() -> LinkModel {
        LinkModel::from_spec(LinkSpec::symmetric(
            100_000_000,
            SimDuration::from_millis(1),
        ))
    }

    /// Pump the driver and the fabric to quiescence, advancing the clock
    /// through fabric events and park deadlines.
    fn run(world: &World, driver: &mut SimDriver) {
        loop {
            while driver.pump() {}
            let next = match (world.next_event_time(), driver.next_park_deadline()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            match next {
                Some(t) if t > world.now() => world.advance_to(t),
                Some(_) => break, // deadline due now: one more pump round
                None => break,
            }
        }
        while driver.pump() {}
    }

    fn read_one(conn: &mut SimConn) -> Option<Response> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match conn.try_read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        try_parse_response(&buf).unwrap().map(|(resp, _)| resp)
    }

    #[test]
    fn serves_requests_over_the_fabric_without_threads() {
        let world = World::new(21);
        let config = ServerConfig {
            clock: world.clock(),
            ..ServerConfig::default()
        };
        let handler = handler_fn(|req: Request| {
            Response::with_body(Status::OK, "text/plain", req.target.into_bytes())
        });
        let mut driver = SimDriver::new(world.bind("host").unwrap(), handler, &config);
        let mut c1 = world.connect("p1", "host", link()).unwrap();
        let mut c2 = world.connect("p2", "host", link()).unwrap();
        c1.write_all(&serialize_request(&Request::get("/a")))
            .unwrap();
        c2.write_all(&serialize_request(&Request::get("/b")))
            .unwrap();
        run(&world, &mut driver);
        assert_eq!(read_one(&mut c1).unwrap().body_str(), "/a");
        assert_eq!(read_one(&mut c2).unwrap().body_str(), "/b");
        assert_eq!(driver.requests_served(), 2);
        assert_eq!(driver.connections(), 2, "keep-alive conns stay");

        // A client that hangs up after its reply is a clean EOF, and the
        // driver keeps serving new connections.
        drop(c1);
        run(&world, &mut driver);
        assert_eq!(driver.connections(), 1, "the hung-up conn is closed");
        let mut p3 = world.connect("p3", "host", link()).unwrap();
        p3.write_all(&serialize_request(&Request::get("/after")))
            .unwrap();
        run(&world, &mut driver);
        assert_eq!(read_one(&mut p3).unwrap().body_str(), "/after");
        assert_eq!(driver.requests_served(), 3);
    }

    #[test]
    fn parked_poll_wakes_on_publish_and_times_out_on_virtual_deadline() {
        let world = World::new(22);
        let config = ServerConfig {
            clock: world.clock(),
            ..ServerConfig::default()
        };
        let hub = Arc::clone(&config.park_hub);
        let channel = Arc::new(ParkChannel::default());
        let parks_on = Arc::clone(&channel);
        let handler: Handler = Arc::new(move |_req: Request| {
            HandlerOutcome::Park(Park {
                channel: Arc::clone(&parks_on),
                // Park on the *current* mark, like a real poll handler:
                // only keys published after this request wake it.
                wait_key: parks_on.published(),
                max_wait: std::time::Duration::from_secs(5),
                on_wake: Box::new(|| {
                    Response::with_body(Status::OK, "text/plain", b"woken".to_vec())
                }),
                on_timeout: Box::new(|| {
                    Response::with_body(Status::OK, "text/plain", b"timeout".to_vec())
                }),
            })
        });
        let mut driver = SimDriver::new(world.bind("host").unwrap(), handler, &config);

        // First poll: published before the deadline -> "woken".
        let mut c1 = world.connect("p1", "host", link()).unwrap();
        c1.write_all(&serialize_request(&Request::get("/poll")))
            .unwrap();
        while world.next_event_time().is_some() {
            world.advance_to(world.next_event_time().unwrap());
            while driver.pump() {}
        }
        assert_eq!(driver.parked(), 1, "poll parked, no dispatch slot burned");
        hub.publish(&channel, 1);
        run(&world, &mut driver);
        assert_eq!(read_one(&mut c1).unwrap().body_str(), "woken");

        // Second poll: nothing published -> virtual-deadline timeout, with
        // zero wall-clock waiting.
        let mut c2 = world.connect("p2", "host", link()).unwrap();
        c2.write_all(&serialize_request(&Request::get("/poll")))
            .unwrap();
        let before = world.now();
        run(&world, &mut driver);
        assert_eq!(read_one(&mut c2).unwrap().body_str(), "timeout");
        assert!(
            (world.now() - before).as_millis() >= 5_000,
            "timeout consumed virtual, not wall, time"
        );
    }
}
