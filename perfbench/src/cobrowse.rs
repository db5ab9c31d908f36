//! `cobrowse-merge`: one session on google.com (workers engine), two
//! participants on two threads and two connections, each a closed loop.
//! Every poll carries a seeded `FormInput` on the search form's `q`
//! field (co-filling, as in the paper's Fig. 10); one participant
//! advertises `d=1`, the other is a legacy client. An op is one
//! act-and-sync round trip: the agent merges the action under the host
//! mutex, regenerates the page and answers with the full XML, which the
//! participant applies.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rcb_browser::UserAction;
use rcb_core::snippet::SnippetOutcome;
use rcb_core::tcp::TcpHost;
use rcb_crypto::SessionKey;
use rcb_http::server::ServerBackend;
use rcb_http::Response;
use rcb_origin::OriginRegistry;
use rcb_util::{DetRng, RcbError, Result};

use crate::common::{
    self, generations, join_and_sync, ns_since, CpuWindow, CpuWindows, Peer, Stop, ThreadReport,
    Wire,
};
use crate::replay;
use crate::stats::{self, Sample, FAILED};
use crate::trace::{self, Layers, Tracer};
use crate::{Args, Measured, Outcome};

/// The Table-1 page the session shows (6.8 KB: per-op overhead stays a
/// visible share of the op).
pub const SITE: &str = "google.com";
/// The co-filled form and field.
const FORM: &str = "q";
const FIELD: &str = "q";
/// Every written value has this many letters, so the page — and every
/// reply — keeps its size whichever participant's value it shows.
const VALUE_LEN: usize = 16;
/// Latency window: a few hundred act-and-sync ops each.
const WINDOW_NS: u64 = 250_000_000;
const MIN_PER_WINDOW: usize = 100;
/// Set-ups per timed run (each takes ~25 ms).
const SETUP_REPEATS: usize = 15;
/// Ops per participant in the traced phase (about 1.5 s).
pub const TRACED_OPS: u64 = 1500;
const PARTICIPANTS: u64 = 2;

fn backend() -> ServerBackend {
    ServerBackend::Workers
}

/// The set-up state: host, and per participant its peer, connection and
/// value stream.
pub struct Table {
    host: TcpHost,
    key: SessionKey,
    peers: Vec<(Peer, Wire, DetRng)>,
}

/// Starts the host on the loaded page and joins both participants
/// through their first full sync.
pub fn setup(seed: u64) -> Result<Table> {
    let mut rng = DetRng::new(seed);
    let key = SessionKey::generate_deterministic(&mut rng);
    let browser = common::load_site(&mut OriginRegistry::with_alexa20(), SITE)?;
    let host = TcpHost::start_from_browser(
        "127.0.0.1:0",
        browser,
        key.clone(),
        common::agent_config(),
        common::server_config(backend()),
    )?;
    let addr = host.addr().to_string();
    let mut peers = Vec::new();
    for pid in 1..=PARTICIPANTS {
        let mut wire = Wire::connect(&addr)?;
        let mut peer = join_and_sync(&mut wire, "", key.clone(), pid)?;
        peer.snippet.delta = pid == 1;
        peers.push((peer, wire, rng.fork(pid)));
    }
    Ok(Table { host, key, peers })
}

fn value(rng: &mut DetRng) -> String {
    (0..VALUE_LEN)
        .map(|_| char::from(b'a' + rng.next_below(26) as u8))
        .collect()
}

fn fill(value: String) -> UserAction {
    UserAction::FormInput {
        form: FORM.into(),
        field: FIELD.into(),
        value,
    }
}

/// One participant's closed loop: act, poll, apply, until `stop`.
/// Returns the report, the values written in order, and the last reply.
fn act_loop(
    peer: &mut Peer,
    wire: &mut Wire,
    rng: &mut DetRng,
    stop: Stop,
    epoch: Instant,
    tr: &mut Tracer,
    cpu: &CpuWindows,
) -> (ThreadReport, Vec<String>, Option<Response>) {
    let mut report = ThreadReport::default();
    let mut written = Vec::new();
    let mut last = None;
    cpu.join_as_participant();
    let mut k = 0u64;
    while !stop.done(k) {
        let v = value(rng);
        written.push(v.clone());
        peer.snippet.capture_action(fill(v));
        let op = tr.begin(k, "op");
        let t = Instant::now();
        let s = tr.begin(k, "snippet.build");
        let req = peer.snippet.build_poll();
        tr.end(s);
        tr.keep_request(&req);
        let s = tr.begin(k, "client.roundtrip");
        let resp = wire.round_trip(&req);
        tr.end(s);
        let s = tr.begin(k, "snippet.apply");
        let outcome = match &resp {
            Ok(r) => peer.apply(r),
            Err(e) => Err(RcbError::Io(e.to_string())),
        };
        tr.end(s);
        let s = tr.begin(k, "client.objects");
        let result = outcome.and_then(|o| peer.fetch_objects(wire, &o).map(|()| o));
        tr.end(s);
        let latency_ns = t.elapsed().as_nanos() as u64;
        tr.end(op);
        let done_ns = ns_since(epoch);
        cpu.op_done();
        let ok = match result {
            Ok(SnippetOutcome::Updated { .. }) => true,
            Ok(SnippetOutcome::NoNewContent) => {
                report
                    .errors
                    .push(format!("op {k}: merged action came back without content"));
                false
            }
            Err(e) => {
                report.errors.push(format!("op {k}: {e}"));
                if let Err(e) = wire.reconnect() {
                    report.errors.push(format!("reconnect: {e}"));
                    break;
                }
                false
            }
        };
        report.samples.push(Sample {
            done_ns,
            latency_ns: if ok { latency_ns } else { FAILED },
        });
        last = resp.ok();
        peer.collect_garbage();
        k += 1;
    }
    (report, written, last)
}

/// Both participants' loops, on two threads.
struct Merged {
    reports: Vec<ThreadReport>,
    written: Vec<Vec<String>>,
    last_reply: Option<Response>,
    cpu: Vec<CpuWindow>,
    wire_bytes: u64,
}

fn drive(table: &mut Table, stop: Stop, tracers: &mut [Tracer]) -> Merged {
    let bytes0: u64 = table.peers.iter().map(|(_, w, _)| w.bytes_in).sum();
    let epoch = Instant::now();
    let (results, cpu) = common::with_cpu_windows(WINDOW_NS, |cpu| {
        std::thread::scope(|s| {
            let handles: Vec<_> = table
                .peers
                .iter_mut()
                .zip(tracers.iter_mut())
                .map(|((peer, wire, rng), tr)| {
                    s.spawn(move || act_loop(peer, wire, rng, stop, epoch, tr, cpu))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("participant thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let bytes1: u64 = table.peers.iter().map(|(_, w, _)| w.bytes_in).sum();
    let mut m = Merged {
        reports: Vec::new(),
        written: Vec::new(),
        last_reply: None,
        cpu,
        wire_bytes: bytes1 - bytes0,
    };
    for (report, written, last) in results {
        m.reports.push(report);
        m.written.push(written);
        m.last_reply = m.last_reply.or(last);
    }
    m
}

/// Every merged edit must have produced exactly one new page version.
fn check_generations(g0: u64, g1: u64, acts: u64, errors: &mut Vec<String>) {
    if g1 - g0 != acts {
        errors.push(format!("{} generations for {acts} merged edits", g1 - g0));
    }
}

/// After the loops: participant 1 writes one more value, both sync, and
/// the host must hold that value while both participants serialize equal
/// to a participant that joins now.
fn check_converged(table: &mut Table, errors: &mut Vec<String>) -> Result<()> {
    let g0 = generations(&table.host);
    let (peer, wire, rng) = &mut table.peers[0];
    let last = value(rng);
    peer.snippet.capture_action(fill(last.clone()));
    peer.poll(wire)?;
    for (peer, wire, _) in table.peers.iter_mut() {
        peer.poll(wire)?;
    }
    check_generations(g0, generations(&table.host), 1, errors);
    let fields = table.host.form_fields(FORM);
    if fields != [(FIELD.to_string(), last.clone())] {
        errors.push(format!(
            "host form holds {fields:?}, last write was {last:?}"
        ));
    }
    let mut vwire = Wire::connect(&table.host.addr().to_string())?;
    let verifier = join_and_sync(&mut vwire, "", table.key.clone(), 99)?;
    let expect = verifier.serialized();
    for (i, (peer, _, _)) in table.peers.iter().enumerate() {
        if peer.serialized() != expect {
            errors.push(format!("participant {} diverged from the host", i + 1));
        }
    }
    Ok(())
}

fn config_line() -> String {
    let b = backend().resolved();
    format!(
        "engine={} shards={} workers={} page={SITE} clients={PARTICIPANTS} loop=closed",
        b.label(),
        b.shard_count(),
        common::WORKERS
    )
}

fn failures(reports: &[ThreadReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.latency_ns == FAILED)
        .count() as u64
}

pub fn run(args: &Args) -> Result<Outcome> {
    if args.trace {
        return traced(args);
    }
    let (mut table, setups) = common::repeated_setup(SETUP_REPEATS, || setup(args.seed))?;
    let g0 = generations(&table.host);
    let stop = Stop::At(Instant::now() + Duration::from_secs(args.seconds));
    let m = drive(&mut table, stop, &mut [Tracer::off(), Tracer::off()]);
    let acts: u64 = m.written.iter().map(|w| w.len() as u64).sum();
    let mut errors: Vec<String> = m.reports.iter().flat_map(|r| r.errors.clone()).collect();
    check_generations(g0, generations(&table.host), acts, &mut errors);
    check_converged(&mut table, &mut errors)?;
    let failed = failures(&m.reports);
    let samples: Vec<Sample> = m.reports.into_iter().flat_map(|r| r.samples).collect();
    Ok(Outcome {
        config: config_line(),
        measured: Measured {
            setups,
            attempted: samples.len() as u64,
            failed,
            samples,
            window_ns: WINDOW_NS,
            min_per_window: MIN_PER_WINDOW,
            cpu: m.cpu,
            wire_bytes: m.wire_bytes,
            errors,
        },
        layers: BTreeMap::new(),
    })
}

/// The traced run: a fixed-length traced phase right after set-up (so
/// its counts repeat exactly for a seed), an untraced phase for the
/// tracing overhead, then the per-layer replays.
fn traced(args: &Args) -> Result<Outcome> {
    let mut table = setup(args.seed)?;
    let mut v = Layers::new();
    v.insert("rss.after_setup_mb", stats::peak_rss_mb());
    let mut errors = Vec::new();
    let m5_0 = table.host.with_agent_stats(|s| s.m5.len());
    let m6_0: Vec<usize> = table
        .peers
        .iter()
        .map(|(p, _, _)| p.snippet.m6.len())
        .collect();
    let objects0: u64 = table.peers.iter().map(|(p, _, _)| p.objects_fetched).sum();

    let s0 = table.host.stats();
    let g0 = generations(&table.host);
    let epoch = Instant::now();
    let mut tracers = [Tracer::on(epoch), Tracer::on(epoch)];
    let mut m = drive(&mut table, Stop::After(TRACED_OPS), &mut tracers);
    let s1 = table.host.stats();
    let g1 = generations(&table.host);
    let ops = (TRACED_OPS * PARTICIPANTS) as f64;
    errors.extend(m.reports.iter().flat_map(|r| r.errors.clone()));
    check_generations(g0, g1, TRACED_OPS * PARTICIPANTS, &mut errors);
    common::record_host_counts(
        &mut v,
        &common::host_counts(&s0, &s1, g1 - g0, m.wire_bytes),
        ops,
    );
    v.insert(
        "router.fairness_queued",
        table.host.session_router().stats().fairness_queued as f64,
    );
    let tr: Vec<&Tracer> = tracers.iter().collect();
    for (span, metric) in trace::PARTICIPANT_SPANS {
        v.insert(metric, trace::p50_us(&tr, span));
    }
    let m5 = table
        .host
        .with_agent_stats(|s| trace::durations_p50_us(&s.m5.samples()[m5_0..]));
    v.insert("content.generate_us", m5);
    let m6 = table.peers.iter().zip(&m6_0);
    v.insert(
        "snippet.m6_us",
        trace::durations_p50_us(
            m6.flat_map(|((peer, _, _), &from)| &peer.snippet.m6.samples()[from..]),
        ),
    );
    let objects1: u64 = table.peers.iter().map(|(p, _, _)| p.objects_fetched).sum();
    v.insert("client.objects_per_op", (objects1 - objects0) as f64 / ops);
    v.insert(
        "agent.cache_entries",
        table.host.agent_cache_lens().0 as f64,
    );
    v.insert("snapshot.xml_bytes", table.host.published_xml_len() as f64);

    let stop = Stop::At(Instant::now() + Duration::from_secs(args.seconds.div_ceil(2)));
    let plain = drive(&mut table, stop, &mut [Tracer::off(), Tracer::off()]);
    errors.extend(plain.reports.iter().flat_map(|r| r.errors.clone()));
    let traced_p50 = trace::latency_p50_us(m.reports.iter().flat_map(|r| &r.samples));
    let untraced_p50 = trace::latency_p50_us(plain.reports.iter().flat_map(|r| &r.samples));
    v.insert(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    check_converged(&mut table, &mut errors)?;

    // Replays of the traced phase's inputs.
    let requests: Vec<_> = tracers
        .iter()
        .flat_map(|t| t.requests.iter().cloned())
        .collect();
    let keys = vec![table.key.clone(); requests.len()];
    let prefab = m
        .last_reply
        .take()
        .unwrap_or_else(Response::empty_ok)
        .into_prefab();
    let key = table.key.clone();
    table.host.shutdown();
    drop(table);
    let stub_us =
        replay::engine_and_auth(&mut v, backend(), &requests, &keys, prefab, &mut errors)?;
    // The host merged the two streams in whatever order they arrived;
    // the replay alternates them, which yields the same page sizes.
    let actions: Vec<(u64, String)> = (0..TRACED_OPS as usize)
        .flat_map(|k| (0..PARTICIPANTS as usize).map(move |p| (p, k)))
        .filter_map(|(p, k)| Some((p as u64 + 1, m.written.get(p)?.get(k)?.clone())))
        .collect();
    let browser = common::load_site(&mut OriginRegistry::with_alexa20(), SITE)?;
    let mut merge_ns = Vec::with_capacity(actions.len());
    replay::write_path(&mut v, browser, key, actions.len(), |i, agent, browser| {
        let (pid, value) = &actions[i];
        let t = Instant::now();
        agent.merge_poll_actions(*pid, vec![fill(value.clone())], browser);
        merge_ns.push(t.elapsed().as_nanos() as u64);
    })?;
    v.insert("agent.merge_us", trace::median_us(&mut merge_ns));
    let blocking = v["snippet.build_us"]
        + stub_us
        + v["agent.merge_us"]
        + v["snapshot.plan_us"]
        + v["snapshot.finish_us"]
        + v["snippet.apply_us"];
    v.insert("trace.unexplained_us", untraced_p50 - blocking);

    let threads = [("participant1", &tracers[0]), ("participant2", &tracers[1])];
    if let Err(e) = trace::write_spans("cobrowse-merge", args.seed, &threads) {
        errors.push(format!("writing spans: {e}"));
    }
    let attempted = m
        .reports
        .iter()
        .chain(&plain.reports)
        .map(|r| r.samples.len() as u64)
        .sum();
    Ok(Outcome {
        config: config_line(),
        measured: Measured {
            attempted,
            failed: failures(&m.reports) + failures(&plain.reports),
            errors,
            ..Measured::default()
        },
        layers: v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two same-seed traced phases give identical counts and bytes, and
    /// both end converged.
    #[test]
    fn traced_counts_repeat_for_a_seed() {
        let run = || {
            let mut table = setup(11).unwrap();
            let s0 = table.host.stats();
            let g0 = generations(&table.host);
            let m = drive(
                &mut table,
                Stop::After(50),
                &mut [Tracer::off(), Tracer::off()],
            );
            for r in &m.reports {
                assert!(r.errors.is_empty(), "{:?}", r.errors);
            }
            let counts = common::host_counts(
                &s0,
                &table.host.stats(),
                generations(&table.host) - g0,
                m.wire_bytes,
            );
            let mut errors = Vec::new();
            check_converged(&mut table, &mut errors).unwrap();
            assert!(errors.is_empty(), "{errors:?}");
            counts
        };
        assert_eq!(run(), run());
    }
}
