//! Per-layer replays for the traced run: the run's own inputs fed
//! again, after the timed window, through one layer's public entry
//! points at a time.

use std::time::Instant;

use rcb_browser::Browser;
use rcb_core::agent::RcbAgent;
use rcb_core::auth;
use rcb_core::snapshot::ContentSnapshot;
use rcb_crypto::SessionKey;
use rcb_http::server::{handler_fn, HttpServer, ServerBackend};
use rcb_http::{Request, Response};
use rcb_util::{Clock, RcbError, Result};

use crate::common::{self, Wire};
use crate::stats;
use crate::trace::{self, Layers};

/// Serves `prefab` from a stub handler on the same engine configuration
/// and sends `requests` through it over one connection (`engine.*`),
/// then re-signs and verifies each request under its key (`auth.*`).
/// Returns the stub's median round trip in µs.
pub fn engine_and_auth(
    v: &mut Layers,
    backend: ServerBackend,
    requests: &[Request],
    keys: &[SessionKey],
    prefab: Response,
    errors: &mut Vec<String>,
) -> Result<f64> {
    let handler = handler_fn(move |_| prefab.clone());
    let mut server = HttpServer::bind_with("127.0.0.1:0", handler, common::server_config(backend))?;
    let mut wire = Wire::connect(&server.addr().to_string())?;
    let me = stats::current_tid();
    let before = stats::task_cpu_ns();
    let mut rtt = Vec::with_capacity(requests.len());
    let mut failures = 0;
    for req in requests {
        let t = Instant::now();
        match wire.round_trip(req) {
            Ok(r) if r.status.0 == 200 => rtt.push(t.elapsed().as_nanos() as u64),
            _ => failures += 1,
        }
    }
    let after = stats::task_cpu_ns();
    let (host_ns, _) = stats::split_cpu(&before, &after, &[me]);
    drop(wire);
    server.shutdown();
    let stub_rtt_us = trace::median_us(&mut rtt);
    v.insert("engine.stub_rtt_us", stub_rtt_us);
    v.insert(
        "engine.stub_host_cpu_us",
        host_ns as f64 / requests.len().max(1) as f64 / 1e3,
    );
    v.insert("engine.failures", failures as f64);

    let mut sign = Vec::with_capacity(requests.len());
    let mut verify = Vec::with_capacity(requests.len());
    for (req, key) in requests.iter().zip(keys) {
        let mut unsigned = req.clone();
        unsigned.target = auth::strip_mac(&req.target).0;
        let t = Instant::now();
        auth::sign_request(key, &mut unsigned);
        sign.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let ok = auth::verify_request(key, req);
        verify.push(t.elapsed().as_nanos() as u64);
        if !ok || unsigned.target != req.target {
            errors.push(format!("auth replay disagrees on {}", req.target));
        }
    }
    v.insert("auth.sign_us", trace::median_us(&mut sign));
    v.insert("auth.verify_us", trace::median_us(&mut verify));
    Ok(stub_rtt_us)
}

/// Replays `steps` changes of the host page on a benchmark-owned agent
/// and host browser: `step(i, agent, browser)` applies change `i` (a DOM
/// edit or a merged action, timed by the caller), then the snapshot is
/// planned, finished against its predecessor, admitted, and its Fig.-4
/// XML parsed as a participant would. Records `snapshot.plan_us`,
/// `snapshot.finish_us`, `snapshot.finish_alloc_kb` and `xml.parse_us`.
pub fn write_path(
    v: &mut Layers,
    mut browser: Browser,
    key: SessionKey,
    steps: usize,
    mut step: impl FnMut(usize, &mut RcbAgent, &mut Browser),
) -> Result<()> {
    let clock = Clock::wall();
    let mut agent = RcbAgent::new(key, common::agent_config());
    let mode = agent.config.cache_mode;
    let mut prev = ContentSnapshot::build(&mut agent, &browser, clock.now(), None)?;
    let (mut plan_ns, mut finish_ns, mut finish_bytes, mut parse_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..steps {
        step(i, &mut agent, &mut browser);
        let t = Instant::now();
        let plan = ContentSnapshot::plan(&mut agent, &browser, clock.now())?;
        plan_ns.push(t.elapsed().as_nanos() as u64);
        crate::alloc::start();
        let t = Instant::now();
        let finished = plan.finish(Some(&prev));
        finish_ns.push(t.elapsed().as_nanos() as u64);
        finish_bytes.push(crate::alloc::take().1);
        let (snap, generated) = finished?;
        if let Some(content) = generated {
            agent.admit_generated(snap.dom_version, mode, content);
        }
        let t = Instant::now();
        let parsed = rcb_xml::parse_new_content(snap.xml());
        parse_ns.push(t.elapsed().as_nanos() as u64);
        if !matches!(parsed, Ok(Some(_))) {
            return Err(RcbError::Protocol(format!(
                "replayed XML {i} does not parse"
            )));
        }
        prev = snap;
    }
    v.insert("snapshot.plan_us", trace::median_us(&mut plan_ns));
    v.insert("snapshot.finish_us", trace::median_us(&mut finish_ns));
    let kib = stats::percentile(&mut finish_bytes, 50.0).unwrap_or(0.0) / 1024.0;
    v.insert("snapshot.finish_alloc_kb", kib);
    v.insert("xml.parse_us", trace::median_us(&mut parse_ns));
    Ok(())
}
