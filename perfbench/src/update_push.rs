//! `update-push`: one session on wikipedia.org (cache mode, sharded
//! epoll engine). Thread 1 is the host: it applies a seeded script of
//! small body edits through `TcpHost::mutate_page` on an open-loop
//! schedule. Thread 2 drives two watchers, each a long-poll advertising
//! `d=1` on its own connection: it reads both woken replies, applies
//! them, and parks both again. An op is one edit delivered to one
//! watcher, timed from the edit's due time until the watcher applied it
//! (less the time the shared thread spent on the other watcher).

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rcb_core::snippet::SnippetOutcome;
use rcb_core::tcp::{TcpHost, TcpHostStats};
use rcb_crypto::SessionKey;
use rcb_html::{Document, NodeId};
use rcb_http::server::ServerBackend;
use rcb_http::Response;
use rcb_origin::OriginRegistry;
use rcb_util::{DetRng, RcbError, Result};

use crate::common::{
    self, join_and_sync, ns_since, CpuWindow, CpuWindows, Peer, ThreadReport, Wire,
};
use crate::replay;
use crate::stats::{self, Sample, FAILED};
use crate::trace::{self, Layers, Tracer};
use crate::{Args, Measured, Outcome};

/// The Table-1 page the session shows (51.7 KB of HTML).
pub const SITE: &str = "wikipedia.org";
/// Edit period. A cycle (edit, two wakes, two applies) takes 6–8 ms on
/// two vCPUs, so the schedule leaves twofold headroom.
const PERIOD_NS: u64 = 16_000_000;
/// Latency window: 100 edits, 200 ops.
const WINDOW_NS: u64 = 100 * PERIOD_NS;
const MIN_PER_WINDOW: usize = 100;
/// Set-ups per timed run (each takes ~25 ms).
const SETUP_REPEATS: usize = 15;
/// Edits of the traced phase.
pub const TRACED_EDITS: usize = 100;
const WATCHERS: u64 = 2;

fn backend() -> ServerBackend {
    ServerBackend::EpollSharded(common::EPOLL_SHARDS)
}

/// One scripted host edit: new text, of the same length as the old, for
/// one paragraph's text node.
pub struct Edit {
    node: NodeId,
    text: String,
}

/// The set-up state.
pub struct Stage {
    host: TcpHost,
    key: SessionKey,
    watchers: Vec<(Peer, Wire)>,
    /// Editable paragraph texts: node and byte length.
    targets: Vec<(NodeId, usize)>,
    /// Parks the host has made so far that edits must wait for.
    parks: u64,
    rng: DetRng,
}

/// Text nodes that are the first child of a `<p>` in the body.
fn paragraph_texts(doc: &Document) -> Vec<(NodeId, usize)> {
    let Some(body) = doc.body() else {
        return Vec::new();
    };
    doc.descendants(body)
        .into_iter()
        .filter(|&n| doc.is_element(n, "p"))
        .filter_map(|p| {
            let t = *doc.children(p).first()?;
            Some((t, doc.text(t)?.len()))
        })
        .filter(|&(_, len)| len > 0)
        .collect()
}

/// `n` edits drawn from `rng`: a paragraph, and fresh lowercase words of
/// exactly its length (the page size stays constant).
fn script(rng: &mut DetRng, targets: &[(NodeId, usize)], n: usize) -> Vec<Edit> {
    (0..n)
        .map(|_| {
            let (node, len) = targets[rng.next_below(targets.len() as u64) as usize];
            let text = (0..len)
                .map(|i| {
                    if i % 7 == 6 {
                        ' '
                    } else {
                        char::from(b'a' + rng.next_below(26) as u8)
                    }
                })
                .collect();
            Edit { node, text }
        })
        .collect()
}

/// Starts the host on the loaded page, joins both watchers through
/// their first full sync, and parks a long-poll from each.
pub fn setup(seed: u64) -> Result<Stage> {
    let mut rng = DetRng::new(seed);
    let key = SessionKey::generate_deterministic(&mut rng);
    let browser = common::load_site(&mut OriginRegistry::with_alexa20(), SITE)?;
    let targets = paragraph_texts(browser.doc.as_ref().expect("page loaded"));
    if targets.is_empty() {
        return Err(RcbError::InvalidInput(format!(
            "{SITE} has no paragraph to edit"
        )));
    }
    let host = TcpHost::start_from_browser(
        "127.0.0.1:0",
        browser,
        key.clone(),
        common::agent_config(),
        common::server_config(backend()),
    )?;
    let addr = host.addr().to_string();
    let mut watchers = Vec::new();
    for pid in 1..=WATCHERS {
        let mut wire = Wire::connect(&addr)?;
        let mut peer = join_and_sync(&mut wire, "", key.clone(), pid)?;
        peer.snippet.long_poll = Some(common::PARK_WAIT);
        peer.snippet.delta = true;
        wire.send(&peer.snippet.build_poll())?;
        watchers.push((peer, wire));
    }
    // Set-up ends once both polls are parked. The wait spins (yielding)
    // on the host's counter: no sleep adds a fixed quantum to set-up.
    let t = Instant::now();
    while host.stats().polls_parked < WATCHERS {
        if t.elapsed() > common::READ_TIMEOUT {
            return Err(RcbError::Protocol("watchers never parked".into()));
        }
        std::thread::yield_now();
    }
    Ok(Stage {
        host,
        key,
        watchers,
        targets,
        parks: WATCHERS,
        rng,
    })
}

/// What the editor tells the watcher thread about one published edit.
#[derive(Clone, Copy)]
struct Published {
    due_ns: u64,
    started_ns: u64,
    doc_time: u64,
}

/// The host thread: edit `i` is due at `(i + 1) * PERIOD`. It goes out
/// only once both watchers are parked again after edit `i - 1`, so every
/// edit wakes both (exactly-once delivery, repeatable counts); with the
/// schedule's headroom that wait is normally zero, and when it is not it
/// shows as generator lag and op latency.
fn editor(
    host: &TcpHost,
    edits: &[Edit],
    parks: u64,
    epoch: Instant,
    tx: mpsc::Sender<Published>,
    tr: &mut Tracer,
) -> (ThreadReport, Vec<u64>) {
    let mut report = ThreadReport::default();
    let mut lags = Vec::with_capacity(edits.len());
    for (i, edit) in edits.iter().enumerate() {
        let due_ns = (i as u64 + 1) * PERIOD_NS;
        let now = ns_since(epoch);
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let need = parks + WATCHERS * i as u64;
        let wait = Instant::now();
        while host.stats().polls_parked < need {
            if wait.elapsed() > common::READ_TIMEOUT {
                report
                    .errors
                    .push(format!("edit {i}: watchers did not park again"));
                return (report, lags);
            }
            std::thread::yield_now();
        }
        let started_ns = ns_since(epoch);
        lags.push(stats::lag_ns(due_ns, started_ns));
        let s = tr.begin(i as u64, "host.mutate");
        let result = host.mutate_page(|doc| {
            let _ = doc.set_text(edit.node, edit.text.as_str());
        });
        tr.end(s);
        if let Err(e) = result {
            report.errors.push(format!("edit {i}: mutate_page: {e}"));
            break;
        }
        let doc_time = host.published_doc_time();
        if tx
            .send(Published {
                due_ns,
                started_ns,
                doc_time,
            })
            .is_err()
        {
            break;
        }
    }
    (report, lags)
}

/// The watcher thread's per-run results beyond its [`ThreadReport`].
#[derive(Default)]
struct WatchLog {
    /// Edit start to first watcher's reply read, per edit.
    push_ns: Vec<u64>,
    last_reply: Option<Response>,
}

/// The participant thread: for each edit, read and apply both replies
/// (checking each is edit `i`'s delta), then park both again.
fn watch(
    watchers: &mut [(Peer, Wire)],
    edits: usize,
    epoch: Instant,
    rx: mpsc::Receiver<Published>,
    tr: &mut Tracer,
    cpu: &CpuWindows,
) -> (ThreadReport, WatchLog) {
    let mut report = ThreadReport::default();
    let mut log = WatchLog::default();
    cpu.join_as_participant();
    'edits: for i in 0..edits {
        let op = i as u64;
        let mut published: Option<Published> = None;
        // The thread stands in for independent browsers: a watcher's
        // latency leaves out the time spent applying the other watcher's
        // copy of the same edit, which a browser of its own would not
        // wait for (and which would make latencies bimodal).
        let mut served_others_ns = 0;
        for (w, (peer, wire)) in watchers.iter_mut().enumerate() {
            let s = tr.begin(op, "client.wait");
            let resp = wire.recv();
            tr.end(s);
            let read_ns = ns_since(epoch);
            let deltas = peer.snippet.deltas_applied;
            let s = tr.begin(op, "snippet.apply");
            let outcome = match &resp {
                Ok(r) => peer.apply(r),
                Err(e) => Err(RcbError::Io(e.to_string())),
            };
            tr.end(s);
            let done_ns = ns_since(epoch);
            let p = match published {
                Some(p) => p,
                None => match rx.recv_timeout(common::READ_TIMEOUT) {
                    Ok(p) => *published.insert(p),
                    Err(_) => {
                        report.errors.push(format!("edit {i}: never published"));
                        break 'edits;
                    }
                },
            };
            if w == 0 {
                log.push_ns.push(read_ns.saturating_sub(p.started_ns));
            }
            let ok = match &outcome {
                Ok(SnippetOutcome::Updated { doc_time, .. })
                    if *doc_time == p.doc_time && peer.snippet.deltas_applied == deltas + 1 =>
                {
                    true
                }
                Ok(other) => {
                    report
                        .errors
                        .push(format!("edit {i} watcher {w}: got {other:?}"));
                    false
                }
                Err(e) => {
                    report.errors.push(format!("edit {i} watcher {w}: {e}"));
                    false
                }
            };
            let latency_ns = if ok {
                done_ns.saturating_sub(p.due_ns + served_others_ns)
            } else {
                FAILED
            };
            report.samples.push(Sample {
                done_ns,
                latency_ns,
            });
            cpu.op_done();
            if let Ok(outcome) = &outcome {
                if let Err(e) = peer.fetch_objects(wire, outcome) {
                    report
                        .errors
                        .push(format!("edit {i} watcher {w} objects: {e}"));
                }
            }
            served_others_ns += ns_since(epoch) - read_ns;
            if let Ok(r) = resp {
                log.last_reply = Some(r);
            }
            if !ok {
                break 'edits;
            }
        }
        for (peer, wire) in watchers.iter_mut() {
            let s = tr.begin(op, "snippet.build");
            let req = peer.snippet.build_poll();
            tr.end(s);
            tr.keep_request(&req);
            if let Err(e) = wire.send(&req) {
                report.errors.push(format!("edit {i}: re-poll: {e}"));
                break 'edits;
            }
        }
        for (peer, _) in watchers.iter_mut() {
            peer.collect_garbage();
        }
    }
    // An aborted run still accounts for every op it did not deliver.
    let total = edits * watchers.len();
    let done_ns = ns_since(epoch);
    while report.samples.len() < total {
        report.samples.push(Sample {
            done_ns,
            latency_ns: FAILED,
        });
    }
    (report, log)
}

/// One run of `edits` through both threads.
struct Pushed {
    editor: ThreadReport,
    watcher: ThreadReport,
    lags: Vec<u64>,
    log: WatchLog,
    cpu: Vec<CpuWindow>,
    wire_bytes: u64,
}

fn drive(stage: &mut Stage, edits: &[Edit], tr_host: &mut Tracer, tr_part: &mut Tracer) -> Pushed {
    let Stage {
        host,
        watchers,
        parks,
        ..
    } = stage;
    let bytes0: u64 = watchers.iter().map(|(_, w)| w.bytes_in).sum();
    let epoch = Instant::now();
    let (tx, rx) = mpsc::channel();
    let (((editor, lags), (watcher, log)), cpu) = common::with_cpu_windows(WINDOW_NS, |cpu| {
        std::thread::scope(|s| {
            let host: &TcpHost = host;
            let parks = *parks;
            let e = s.spawn(move || editor(host, edits, parks, epoch, tx, tr_host));
            let w = s.spawn(|| watch(watchers, edits.len(), epoch, rx, tr_part, cpu));
            (
                e.join().expect("editor thread panicked"),
                w.join().expect("watcher thread panicked"),
            )
        })
    });
    *parks += WATCHERS * edits.len() as u64;
    let bytes1: u64 = watchers.iter().map(|(_, w)| w.bytes_in).sum();
    Pushed {
        editor,
        watcher,
        lags,
        log,
        cpu,
        wire_bytes: bytes1 - bytes0,
    }
}

/// Checks the host counters moved as `edits` delta wakes of both
/// watchers should move them.
fn check_counters(s0: &TcpHostStats, s1: &TcpHostStats, edits: u64, errors: &mut Vec<String>) {
    let ops = WATCHERS * edits;
    let woken = s1.polls_woken_delta - s0.polls_woken_delta;
    if woken != ops {
        errors.push(format!(
            "tcp.polls_woken_delta {woken} != deltas delivered {ops}"
        ));
    }
    if s1.delta_fallbacks != s0.delta_fallbacks {
        errors.push(format!(
            "{} delta fallbacks",
            s1.delta_fallbacks - s0.delta_fallbacks
        ));
    }
    if s1.polls_park_timeouts != s0.polls_park_timeouts {
        errors.push(format!(
            "{} parks timed out",
            s1.polls_park_timeouts - s0.polls_park_timeouts
        ));
    }
}

/// Each watcher's DOM must serialize equal to that of a participant that
/// joins now and takes the full content.
fn check_converged(stage: &Stage, errors: &mut Vec<String>) -> Result<u64> {
    let mut wire = Wire::connect(&stage.host.addr().to_string())?;
    let mut verifier = Peer::join(&mut wire, "", stage.key.clone(), 99)?;
    let joined = wire.bytes_in;
    let resp = wire.round_trip(&verifier.snippet.build_poll())?;
    let full_reply = wire.bytes_in - joined;
    let outcome = verifier.apply(&resp)?;
    verifier.fetch_objects(&mut wire, &outcome)?;
    let expect = verifier.serialized();
    for (w, (peer, _)) in stage.watchers.iter().enumerate() {
        if peer.serialized() != expect {
            errors.push(format!("watcher {w} diverged from a full sync"));
        }
    }
    Ok(full_reply)
}

fn config_line() -> String {
    let b = backend().resolved();
    format!(
        "engine={} shards={} workers={} page={SITE} clients={WATCHERS} loop=open period_ms={}",
        b.label(),
        b.shard_count(),
        common::WORKERS,
        PERIOD_NS / 1_000_000
    )
}

pub fn run(args: &Args) -> Result<Outcome> {
    if args.trace {
        return traced(args);
    }
    let (mut stage, setups) = common::repeated_setup(SETUP_REPEATS, || setup(args.seed))?;
    let n = (args.seconds * 1_000_000_000 / PERIOD_NS) as usize;
    let edits = script(&mut stage.rng, &stage.targets, n);
    let s0 = stage.host.stats();
    let p = drive(&mut stage, &edits, &mut Tracer::off(), &mut Tracer::off());
    let mut errors = p.editor.errors;
    errors.extend(p.watcher.errors);
    check_counters(&s0, &stage.host.stats(), n as u64, &mut errors);
    check_converged(&stage, &mut errors)?;
    let failed = p
        .watcher
        .samples
        .iter()
        .filter(|s| s.latency_ns == FAILED)
        .count() as u64;
    Ok(Outcome {
        config: config_line(),
        measured: Measured {
            setups,
            attempted: p.watcher.samples.len() as u64,
            failed,
            samples: p.watcher.samples,
            window_ns: WINDOW_NS,
            min_per_window: MIN_PER_WINDOW,
            cpu: p.cpu,
            wire_bytes: p.wire_bytes,
            errors,
        },
        layers: BTreeMap::new(),
    })
}

/// The traced run: a fixed-length traced phase right after set-up (so
/// its counts repeat exactly for a seed), an untraced phase for the
/// tracing overhead, then the per-layer replays.
fn traced(args: &Args) -> Result<Outcome> {
    let mut stage = setup(args.seed)?;
    let mut v = Layers::new();
    v.insert("rss.after_setup_mb", stats::peak_rss_mb());
    let mut errors = Vec::new();
    let m5_0 = stage.host.with_agent_stats(|s| s.m5.len());
    let m6_0: Vec<usize> = stage
        .watchers
        .iter()
        .map(|(p, _)| p.snippet.m6.len())
        .collect();
    let objects0: u64 = stage.watchers.iter().map(|(p, _)| p.objects_fetched).sum();

    let edits = script(&mut stage.rng, &stage.targets, TRACED_EDITS);
    let s0 = stage.host.stats();
    let g0 = common::generations(&stage.host);
    let epoch = Instant::now();
    let (mut tr_host, mut tr_part) = (Tracer::on(epoch), Tracer::on(epoch));
    let mut p = drive(&mut stage, &edits, &mut tr_host, &mut tr_part);
    let s1 = stage.host.stats();
    let g1 = common::generations(&stage.host);
    errors.append(&mut p.editor.errors);
    errors.append(&mut p.watcher.errors);
    check_counters(&s0, &s1, TRACED_EDITS as u64, &mut errors);
    let ops = p.watcher.samples.len().max(1) as f64;
    common::record_host_counts(
        &mut v,
        &common::host_counts(&s0, &s1, g1 - g0, p.wire_bytes),
        ops,
    );
    v.insert(
        "router.fairness_queued",
        stage.host.session_router().stats().fairness_queued as f64,
    );
    v.insert("host.mutate_us", trace::p50_us(&[&tr_host], "host.mutate"));
    v.insert(
        "snippet.apply_us",
        trace::p50_us(&[&tr_part], "snippet.apply"),
    );
    v.insert(
        "snippet.build_us",
        trace::p50_us(&[&tr_part], "snippet.build"),
    );
    // A long-poll has no round trip of its own: here it is the time from
    // the edit's start until the first watcher has read its reply.
    v.insert("client.roundtrip_us", trace::median_us(&mut p.log.push_ns));
    let (lag_p50, lag_max) = stats::lag_summary(&mut p.lags);
    v.insert("loadgen.lag_p50_us", lag_p50 as f64 / 1e3);
    v.insert("loadgen.lag_max_us", lag_max as f64 / 1e3);
    let m5 = stage
        .host
        .with_agent_stats(|s| trace::durations_p50_us(&s.m5.samples()[m5_0..]));
    v.insert("content.generate_us", m5);
    let m6 = stage.watchers.iter().zip(&m6_0);
    v.insert(
        "snippet.m6_us",
        trace::durations_p50_us(
            m6.flat_map(|((peer, _), &from)| &peer.snippet.m6.samples()[from..]),
        ),
    );
    let objects1: u64 = stage.watchers.iter().map(|(p, _)| p.objects_fetched).sum();
    v.insert("client.objects_per_op", (objects1 - objects0) as f64 / ops);
    v.insert(
        "agent.cache_entries",
        stage.host.agent_cache_lens().0 as f64,
    );
    v.insert("snapshot.xml_bytes", stage.host.published_xml_len() as f64);
    let full_reply = check_converged(&stage, &mut errors)? as f64;
    v.insert(
        "wire.delta_saved_ratio",
        1.0 - p.wire_bytes as f64 / ops / full_reply,
    );

    let n = (args.seconds.div_ceil(2) * 1_000_000_000 / PERIOD_NS) as usize;
    let plain_edits = script(&mut stage.rng, &stage.targets, n);
    let plain = drive(
        &mut stage,
        &plain_edits,
        &mut Tracer::off(),
        &mut Tracer::off(),
    );
    errors.extend(plain.editor.errors);
    errors.extend(plain.watcher.errors);
    let traced_p50 = trace::latency_p50_us(&p.watcher.samples);
    let untraced_p50 = trace::latency_p50_us(&plain.watcher.samples);
    v.insert(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );

    // Replays of the traced phase's inputs.
    let requests = tr_part.requests.clone();
    let keys = vec![stage.key.clone(); requests.len()];
    let prefab = p
        .log
        .last_reply
        .take()
        .unwrap_or_else(Response::empty_ok)
        .into_prefab();
    let key = stage.key.clone();
    stage.host.shutdown();
    drop(stage);
    replay::engine_and_auth(&mut v, backend(), &requests, &keys, prefab, &mut errors)?;
    let browser = common::load_site(&mut OriginRegistry::with_alexa20(), SITE)?;
    replay::write_path(&mut v, browser, key, edits.len(), |i, _, browser| {
        let edit = &edits[i];
        let _ = browser.mutate_dom(|doc| {
            let _ = doc.set_text(edit.node, edit.text.as_str());
        });
    })?;
    let blocking = lag_p50 as f64 / 1e3 + v["client.roundtrip_us"] + v["snippet.apply_us"];
    v.insert("trace.unexplained_us", untraced_p50 - blocking);

    if let Err(e) = trace::write_spans(
        "update-push",
        args.seed,
        &[("host", &tr_host), ("watchers", &tr_part)],
    ) {
        errors.push(format!("writing spans: {e}"));
    }
    let all = p.watcher.samples.iter().chain(&plain.watcher.samples);
    Ok(Outcome {
        config: config_line(),
        measured: Measured {
            attempted: all.clone().count() as u64,
            failed: all.filter(|s| s.latency_ns == FAILED).count() as u64,
            errors,
            ..Measured::default()
        },
        layers: v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two same-seed traced phases give identical counts and bytes.
    #[test]
    fn traced_counts_repeat_for_a_seed() {
        let run = || {
            let mut stage = setup(9).unwrap();
            let edits = script(&mut stage.rng, &stage.targets, 20);
            let s0 = stage.host.stats();
            let g0 = common::generations(&stage.host);
            let p = drive(&mut stage, &edits, &mut Tracer::off(), &mut Tracer::off());
            assert!(p.watcher.errors.is_empty(), "{:?}", p.watcher.errors);
            let g1 = common::generations(&stage.host);
            let mut errors = Vec::new();
            check_converged(&stage, &mut errors).unwrap();
            assert!(errors.is_empty(), "{errors:?}");
            common::host_counts(&s0, &stage.host.stats(), g1 - g0, p.wire_bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn edits_keep_paragraph_lengths() {
        let doc = rcb_html::parse_document(
            "<html><body><p>abc def</p><p>x</p><div>no</div></body></html>",
        );
        let targets = paragraph_texts(&doc);
        assert_eq!(targets.len(), 2);
        let edits = script(&mut DetRng::new(3), &targets, 10);
        for e in &edits {
            let (_, len) = targets.iter().find(|(n, _)| *n == e.node).unwrap();
            assert_eq!(e.text.len(), *len);
        }
    }
}
