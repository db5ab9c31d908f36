//! `poll-idle` (workers engine) and `poll-idle-epoll` (sharded epoll):
//! one thread on one keep-alive connection polls 256 routed sessions in
//! a seeded round-robin order, closed loop. Every poll is signed and up
//! to date, so the agent answers with the empty prefab: the engine, the
//! router and the HMAC check do all the work, snapshot and content none.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcb_core::router::{session_prefix, RouterHost, SessionFactory, SessionRouter};
use rcb_core::snippet::SnippetOutcome;
use rcb_crypto::SessionKey;
use rcb_http::server::{HandlerOutcome, ServerBackend};
use rcb_http::{Request, Response};
use rcb_origin::OriginRegistry;
use rcb_util::{DetRng, RcbError, Result};

use crate::common::{
    self, join_and_sync, ns_since, CpuWindow, CpuWindows, Peer, Stop, ThreadReport, Wire,
};
use crate::replay;
use crate::stats::{self, Sample, FAILED};
use crate::trace::{self, Layers, Tracer};
use crate::{Args, Measured, Outcome, Workload};

/// Routed sessions, one participant each.
pub const SESSIONS: usize = 256;
/// The Table-1 page every session shows.
pub const SITE: &str = "google.com";
/// Latency window: a few thousand polls each.
const WINDOW_NS: u64 = 250_000_000;
const MIN_PER_WINDOW: usize = 100;
/// Set-ups per timed run (each takes ~0.4 s).
const SETUP_REPEATS: usize = 5;
/// Ops of the traced phase: 64 rounds over the sessions (about 1 s).
pub const TRACED_OPS: u64 = 64 * SESSIONS as u64;

fn backend(w: Workload) -> ServerBackend {
    match w {
        Workload::PollIdleEpoll => ServerBackend::EpollSharded(common::EPOLL_SHARDS),
        _ => ServerBackend::Workers,
    }
}

/// The set-up state: host, connection, participants and the order in
/// which ops visit them.
pub struct Fleet {
    host: RouterHost,
    wire: Wire,
    peers: Vec<Peer>,
    keys: Vec<SessionKey>,
    sids: Vec<String>,
    order: Vec<usize>,
}

/// Starts the router host with [`SESSIONS`] sessions and joins one
/// participant to each over one connection, through the first full sync.
pub fn setup(backend: ServerBackend, seed: u64) -> Result<Fleet> {
    let mut rng = DetRng::new(seed);
    let mut sids = Vec::with_capacity(SESSIONS);
    let mut keys = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        sids.push(format!("{:016x}", rng.next_u64()));
        keys.push(SessionKey::generate_deterministic(&mut rng));
    }
    // Every session's host browser loads the page here; the router
    // takes each one over when the session's first request arrives.
    let mut origins = OriginRegistry::with_alexa20();
    let mut provisioned = BTreeMap::new();
    for (sid, key) in sids.iter().zip(&keys) {
        let browser = common::load_site(&mut origins, SITE)?;
        provisioned.insert(sid.clone(), (browser, key.clone()));
    }
    let provisioned = Mutex::new(provisioned);
    let factory: SessionFactory = Box::new(move |sid| provisioned.lock().ok()?.remove(sid));
    let host = RouterHost::start(
        "127.0.0.1:0",
        factory,
        common::agent_config(),
        common::router_config(),
        common::server_config(backend),
    )?;
    // Sessions are created here rather than lazily by the first join, so
    // their state is allocated by this thread and not by whichever engine
    // thread served the join — which kept peak RSS from repeating.
    for sid in &sids {
        host.router().create_session(sid)?;
    }
    let mut wire = Wire::connect(&host.addr().to_string())?;
    let mut peers = Vec::with_capacity(SESSIONS);
    for (i, (sid, key)) in sids.iter().zip(&keys).enumerate() {
        peers.push(join_and_sync(
            &mut wire,
            &session_prefix(sid),
            key.clone(),
            i as u64 + 1,
        )?);
    }
    let mut order: Vec<usize> = (0..SESSIONS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    Ok(Fleet {
        host,
        wire,
        peers,
        keys,
        sids,
        order,
    })
}

/// One idle poll, checked: 200, empty body, no new content.
fn idle_poll(peer: &mut Peer, wire: &mut Wire, tr: &mut Tracer, op: u64) -> Result<()> {
    let s = tr.begin(op, "snippet.build");
    let req = peer.snippet.build_poll();
    tr.end(s);
    tr.keep_request(&req);
    let s = tr.begin(op, "client.roundtrip");
    let resp = wire.round_trip(&req);
    tr.end(s);
    let resp = resp?;
    if resp.status.0 != 200 || !resp.body.is_empty() {
        return Err(RcbError::Protocol(format!(
            "idle poll answered {} with {} body bytes",
            resp.status.0,
            resp.body.len()
        )));
    }
    let s = tr.begin(op, "snippet.apply");
    let outcome = peer.apply(&resp);
    tr.end(s);
    match outcome? {
        SnippetOutcome::NoNewContent => Ok(()),
        SnippetOutcome::Updated { .. } => {
            Err(RcbError::Protocol("idle poll carried content".into()))
        }
    }
}

/// The closed loop: next session in order, one poll, until `stop`.
fn drive(
    fleet: &mut Fleet,
    stop: Stop,
    tr: &mut Tracer,
    epoch: Instant,
    cpu: &CpuWindows,
) -> ThreadReport {
    let mut report = ThreadReport::default();
    cpu.join_as_participant();
    let n = fleet.order.len() as u64;
    let mut k = 0u64;
    while !stop.done(k) {
        let peer = &mut fleet.peers[fleet.order[(k % n) as usize]];
        let op = tr.begin(k, "op");
        let t = Instant::now();
        let result = idle_poll(peer, &mut fleet.wire, tr, k);
        let latency_ns = t.elapsed().as_nanos() as u64;
        tr.end(op);
        let done_ns = ns_since(epoch);
        cpu.op_done();
        match result {
            Ok(()) => report.samples.push(Sample {
                done_ns,
                latency_ns,
            }),
            Err(e) => {
                report.samples.push(Sample {
                    done_ns,
                    latency_ns: FAILED,
                });
                report.errors.push(format!("op {k}: {e}"));
                if let Err(e) = fleet.wire.reconnect() {
                    report.errors.push(format!("reconnect: {e}"));
                    break;
                }
            }
        }
        k += 1;
    }
    report
}

/// Runs [`drive`] on a thread of its own, so its CPU time is the
/// participant's and everything else the host's. Returns the report, the
/// CPU windows and the response bytes read.
fn drive_measured(
    fleet: &mut Fleet,
    stop: Stop,
    tr: &mut Tracer,
) -> (ThreadReport, Vec<CpuWindow>, u64) {
    let bytes0 = fleet.wire.bytes_in;
    let epoch = Instant::now();
    let (report, cpu) = common::with_cpu_windows(WINDOW_NS, |cpu| {
        std::thread::scope(|s| {
            s.spawn(|| drive(fleet, stop, tr, epoch, cpu))
                .join()
                .expect("load thread panicked")
        })
    });
    (report, cpu, fleet.wire.bytes_in - bytes0)
}

/// Router counters the correctness checks read.
fn counters(fleet: &Fleet) -> [u64; 5] {
    let s = fleet.host.stats();
    [
        s.requests_routed,
        s.totals.polls_empty,
        s.totals.body_bytes_copied,
        s.totals.auth_failures,
        s.fairness_queued,
    ]
}

/// Checks the counters moved exactly as `ops` idle polls should move them.
fn check_counters(before: [u64; 5], after: [u64; 5], ops: u64, errors: &mut Vec<String>) {
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    if d[0] != ops {
        errors.push(format!("routed requests {} != ops {ops}", d[0]));
    }
    if d[1] != ops {
        errors.push(format!("empty polls {} != ops {ops}", d[1]));
    }
    if d[2] != 0 {
        errors.push(format!("tcp.body_bytes_copied = {}", d[2]));
    }
    if d[3] != 0 {
        errors.push(format!("tcp.auth_failures = {}", d[3]));
    }
}

fn config_line(args: &Args) -> String {
    let b = backend(args.workload).resolved();
    format!(
        "engine={} shards={} workers={} page={SITE} sessions={SESSIONS} clients=1 loop=closed",
        b.label(),
        b.shard_count(),
        common::WORKERS
    )
}

pub fn run(args: &Args) -> Result<Outcome> {
    let backend = backend(args.workload);
    if args.trace {
        return traced(args, backend);
    }
    let (mut fleet, setups) = common::repeated_setup(SETUP_REPEATS, || setup(backend, args.seed))?;
    let c0 = counters(&fleet);
    let stop = Stop::At(Instant::now() + Duration::from_secs(args.seconds));
    let (report, cpu, wire_bytes) = drive_measured(&mut fleet, stop, &mut Tracer::off());
    let ops = report.samples.len() as u64;
    let mut errors = report.errors;
    check_counters(c0, counters(&fleet), ops, &mut errors);
    let failed = report
        .samples
        .iter()
        .filter(|s| s.latency_ns == FAILED)
        .count() as u64;
    Ok(Outcome {
        config: config_line(args),
        measured: Measured {
            setups,
            samples: report.samples,
            window_ns: WINDOW_NS,
            min_per_window: MIN_PER_WINDOW,
            attempted: ops,
            failed,
            cpu,
            wire_bytes,
            errors,
        },
        layers: BTreeMap::new(),
    })
}

/// The traced run: a fixed-length traced phase right after set-up (so
/// its counts repeat exactly for a seed), an untraced phase for the
/// tracing overhead, then the per-layer replays.
fn traced(args: &Args, backend: ServerBackend) -> Result<Outcome> {
    let mut fleet = setup(backend, args.seed)?;
    let mut v = Layers::new();
    v.insert("rss.after_setup_mb", stats::peak_rss_mb());
    let mut errors = Vec::new();

    let c0 = counters(&fleet);
    let mut tr = Tracer::on(Instant::now());
    let (report, _, wire_bytes) = drive_measured(&mut fleet, Stop::After(TRACED_OPS), &mut tr);
    let c1 = counters(&fleet);
    errors.extend(report.errors);
    check_counters(c0, c1, TRACED_OPS, &mut errors);
    for (name, value) in traced_counts(c0, c1, wire_bytes) {
        v.insert(name, value as f64);
    }
    for (span, metric) in trace::PARTICIPANT_SPANS {
        v.insert(metric, trace::p50_us(&[&tr], span));
    }
    v.insert(
        "snippet.m6_us",
        trace::durations_p50_us(fleet.peers.iter().flat_map(|p| p.snippet.m6.samples())),
    );
    if let Some(s) = fleet.host.router().session(&fleet.sids[0]) {
        v.insert("snapshot.xml_bytes", s.published_xml_len() as f64);
    }

    let stop = Stop::At(Instant::now() + Duration::from_secs(args.seconds.div_ceil(2)));
    let (plain, _, _) = drive_measured(&mut fleet, stop, &mut Tracer::off());
    errors.extend(plain.errors);
    let traced_p50 = trace::latency_p50_us(&report.samples);
    let untraced_p50 = trace::latency_p50_us(&plain.samples);
    v.insert(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );

    // Replays of the traced phase's own requests, one layer at a time.
    let requests = tr.requests.clone();
    let keys: Vec<SessionKey> = (0..requests.len())
        .map(|k| fleet.keys[fleet.order[k % fleet.order.len()]].clone())
        .collect();
    let router = Arc::clone(fleet.host.router());
    drop(fleet.wire);
    fleet.host.shutdown();
    let prefab = Response::empty_ok().into_prefab();
    let stub_us = replay::engine_and_auth(&mut v, backend, &requests, &keys, prefab, &mut errors)?;
    let direct_us = handler_direct(&mut v, &router, &requests, &mut errors);
    let blocking = v["snippet.build_us"] + stub_us + direct_us + v["snippet.apply_us"];
    v.insert("trace.unexplained_us", untraced_p50 - blocking);

    if let Err(e) = trace::write_spans(args.workload.name(), args.seed, &[("participant", &tr)]) {
        errors.push(format!("writing spans: {e}"));
    }
    let all = report.samples.iter().chain(&plain.samples);
    Ok(Outcome {
        config: config_line(args),
        measured: Measured {
            attempted: all.clone().count() as u64,
            failed: all.filter(|s| s.latency_ns == FAILED).count() as u64,
            errors,
            ..Measured::default()
        },
        layers: v,
    })
}

/// The counts of a traced phase that must repeat exactly for a seed.
fn traced_counts(c0: [u64; 5], c1: [u64; 5], wire_bytes: u64) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("tcp.polls_empty", c1[1] - c0[1]),
        ("tcp.body_bytes_copied", c1[2] - c0[2]),
        ("tcp.auth_failures", c1[3] - c0[3]),
        ("router.fairness_queued", c1[4] - c0[4]),
        ("wire_bytes", wire_bytes),
    ])
}

/// Calls the router's handler in-process with `requests`, recording the
/// median µs per call and heap allocations per call (the call only, not
/// the clone of its input). Returns the median.
fn handler_direct(
    v: &mut Layers,
    router: &Arc<SessionRouter>,
    requests: &[Request],
    errors: &mut Vec<String>,
) -> f64 {
    let handler = router.make_handler();
    let mut ns = Vec::with_capacity(requests.len());
    let mut allocs = 0;
    for req in requests {
        let req = req.clone();
        crate::alloc::start();
        let t = Instant::now();
        let out = handler(req);
        let elapsed = t.elapsed().as_nanos() as u64;
        let (n, _) = crate::alloc::take();
        allocs += n;
        ns.push(elapsed);
        match out {
            HandlerOutcome::Respond(r) if r.status.0 == 200 && r.body.is_empty() => {}
            other => errors.push(format!("direct handler call answered {other:?}")),
        }
    }
    let direct_us = trace::median_us(&mut ns);
    v.insert("handler.direct_us", direct_us);
    v.insert(
        "handler.allocs_per_call",
        allocs as f64 / requests.len().max(1) as f64,
    );
    direct_us
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two same-seed traced phases give identical counts and bytes.
    #[test]
    fn traced_counts_repeat_for_a_seed() {
        let run = || {
            let mut fleet = setup(ServerBackend::EpollSharded(common::EPOLL_SHARDS), 5).unwrap();
            let c0 = counters(&fleet);
            let mut tr = Tracer::on(Instant::now());
            let (report, _, bytes) =
                drive_measured(&mut fleet, Stop::After(2 * SESSIONS as u64), &mut tr);
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            let mut errors = Vec::new();
            let mut v = Layers::new();
            handler_direct(&mut v, fleet.host.router(), &tr.requests, &mut errors);
            assert!(errors.is_empty(), "{errors:?}");
            (
                traced_counts(c0, counters(&fleet), bytes),
                v["handler.allocs_per_call"],
            )
        };
        crate::alloc::enable();
        assert_eq!(run(), run());
    }
}
