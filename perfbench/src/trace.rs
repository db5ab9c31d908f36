//! Outside-in tracing for the traced run: spans recorded by the
//! benchmark around each call it makes into a layer, kept in memory and
//! written out when the run ends, plus the table of per-layer metrics
//! and the end-to-end metrics each should move.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use rcb_http::Request;
use rcb_util::SimDuration;

/// At most this many requests are kept per thread for the replays.
const KEPT_REQUESTS: usize = 4096;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op this call belongs to; every span of an op shares it.
    pub op: u64,
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Off, every call is a branch and nothing
/// is recorded.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    /// Requests this thread sent, for the replays.
    pub requests: Vec<Request>,
}

const NO_SPAN: u32 = u32::MAX;

impl Tracer {
    /// A tracer that records nothing (the timed run).
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// A recording tracer; span times are relative to `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            open: Vec::new(),
            spans: Vec::with_capacity(1 << 16),
            requests: Vec::new(),
        }
    }

    /// Opens a span of op `op`, nested in the innermost open one.
    pub fn begin(&mut self, op: u64, name: &'static str) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
    }

    /// Keeps a copy of a sent request for the replays.
    pub fn keep_request(&mut self, req: &Request) {
        if self.on && self.requests.len() < KEPT_REQUESTS {
            self.requests.push(req.clone());
        }
    }

    /// Durations in nanoseconds of every closed span called `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| s.end_ns - s.start_ns)
    }
}

/// Median duration of the spans called `name` across tracers, in µs
/// (0 when no such span was recorded).
pub fn p50_us(tracers: &[&Tracer], name: &str) -> f64 {
    let mut d: Vec<u64> = tracers.iter().flat_map(|t| t.durations(name)).collect();
    crate::stats::percentile(&mut d, 50.0).map_or(0.0, |ns| ns / 1e3)
}

/// Median of raw nanosecond timings, in µs.
pub fn median_us(ns: &mut [u64]) -> f64 {
    crate::stats::percentile(ns, 50.0).map_or(0.0, |v| v / 1e3)
}

/// Median of recorded durations (the program's M5/M6 samples), in µs.
pub fn durations_p50_us<'a>(samples: impl IntoIterator<Item = &'a SimDuration>) -> f64 {
    let mut us: Vec<u64> = samples.into_iter().map(|d| d.as_micros()).collect();
    crate::stats::percentile(&mut us, 50.0).unwrap_or(0.0)
}

/// Median op latency of a phase, in µs.
pub fn latency_p50_us<'a>(samples: impl IntoIterator<Item = &'a crate::stats::Sample>) -> f64 {
    let mut ns: Vec<u64> = samples.into_iter().map(|s| s.latency_ns).collect();
    median_us(&mut ns)
}

/// The participant-side spans every closed-loop op records, and the
/// per-layer metric each one's median feeds.
pub const PARTICIPANT_SPANS: [(&str, &str); 3] = [
    ("snippet.build", "snippet.build_us"),
    ("client.roundtrip", "client.roundtrip_us"),
    ("snippet.apply", "snippet.apply_us"),
];

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Writes every span as one tab-separated line under
/// `perfbench/out/` (relative to the working directory) and returns the
/// file's path.
pub fn write_spans(
    workload: &str,
    seed: u64,
    threads: &[(&str, &Tracer)],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "thread\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (thread, t) in threads {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{thread}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()?;
    Ok(path)
}

/// One per-layer metric: the layer module it reads, the end-to-end
/// metrics it should move, and the workloads where most of that work is.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
    pub workloads: &'static str,
}

const E2E_HOST: &str = "latency_p50_us host_cpu_us_per_op";
const E2E_PUSH: &str = "wire_bytes_per_op participant_cpu_us_per_op latency_p50_us";
const E2E_PART: &str = "participant_cpu_us_per_op latency_p50_us";
const IDLE: &str = "poll-idle poll-idle-epoll";
const WRITE: &str = "update-push cobrowse-merge";

macro_rules! m {
    ($name:literal, $unit:literal, $better:literal, $layer:literal, $moves:expr, $on:expr) => {
        LayerMetric {
            name: $name,
            unit: $unit,
            better: $better,
            layer: $layer,
            moves: $moves,
            workloads: $on,
        }
    };
}

/// Every per-layer metric the traced run reports, in `BENCHMARK.json`
/// order. A metric whose layer does no work on a workload reads 0 there.
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    m!("engine.stub_rtt_us", "us", "lower", "http::server, http::epoll", E2E_HOST, IDLE),
    m!("engine.stub_host_cpu_us", "us", "lower", "http::server, http::epoll", E2E_HOST, IDLE),
    m!("engine.failures", "count", "lower", "http::server, http::epoll", E2E_HOST, IDLE),
    m!("handler.direct_us", "us", "lower", "core::router, core::tcp", E2E_HOST, IDLE),
    m!("handler.allocs_per_call", "count", "lower", "core::router, core::tcp", E2E_HOST, IDLE),
    m!("auth.verify_us", "us", "lower", "core::auth, crypto", E2E_HOST, IDLE),
    m!("router.fairness_queued", "count", "lower", "core::router", E2E_HOST, IDLE),
    m!("tcp.polls_empty", "count", "lower", "core::tcp", E2E_HOST, IDLE),
    m!("tcp.auth_failures", "count", "lower", "core::tcp, core::auth", E2E_HOST, IDLE),
    m!("tcp.body_bytes_copied", "B", "lower", "core::tcp", E2E_HOST, IDLE),
    m!("host.mutate_us", "us", "lower", "core::tcp, browser", E2E_HOST, "update-push"),
    m!("agent.merge_us", "us", "lower", "core::agent", E2E_HOST, "cobrowse-merge"),
    m!("snapshot.plan_us", "us", "lower", "core::snapshot", E2E_HOST, WRITE),
    m!("snapshot.finish_us", "us", "lower", "core::snapshot", E2E_HOST, WRITE),
    m!("content.generate_us", "us", "lower", "core::content", E2E_HOST, WRITE),
    m!("xml.parse_us", "us", "lower", "xml", E2E_PART, WRITE),
    m!("snapshot.finish_alloc_kb", "KiB", "lower", "core::snapshot", E2E_HOST, WRITE),
    m!("agent.generations_per_op", "count", "lower", "core::agent", E2E_HOST, WRITE),
    m!("agent.cache_entries", "count", "lower", "core::agent", "setup_s", WRITE),
    m!("tcp.polls_per_update", "count", "lower", "core::tcp, http", E2E_PUSH, "update-push"),
    m!("tcp.polls_woken_delta", "count", "higher", "core::tcp", E2E_PUSH, "update-push"),
    m!("tcp.delta_fallbacks", "count", "lower", "core::tcp", E2E_PUSH, "update-push"),
    m!("wire.delta_saved_ratio", "ratio", "higher", "core::snapshot, http::batch", E2E_PUSH, "update-push"),
    m!("snapshot.xml_bytes", "B", "lower", "core::snapshot, xml", E2E_PUSH, WRITE),
    m!("snippet.build_us", "us", "lower", "core::snippet", E2E_PART, WRITE),
    m!("auth.sign_us", "us", "lower", "core::auth, crypto", E2E_PART, WRITE),
    m!("snippet.apply_us", "us", "lower", "core::snippet, xml, html", E2E_PART, WRITE),
    m!("snippet.m6_us", "us", "lower", "core::snippet, html", E2E_PART, WRITE),
    m!("client.roundtrip_us", "us", "lower", "http::client", E2E_PART, WRITE),
    m!("client.objects_per_op", "count", "lower", "http::client", "wire_bytes_per_op", WRITE),
    m!("loadgen.lag_p50_us", "us", "lower", "benchmark", "none", "update-push"),
    m!("loadgen.lag_max_us", "us", "lower", "benchmark", "none", "update-push"),
    m!("rss.after_setup_mb", "MB", "lower", "benchmark", "peak_rss_mb", "all"),
    m!("trace.overhead_pct", "%", "lower", "benchmark", "none", "all"),
    m!("trace.unexplained_us", "us", "lower", "benchmark", "none", "all"),
];

/// Fills every per-layer metric from `values`, 0 for those the workload
/// did not produce.
pub fn layer_values(values: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    LAYER_METRICS
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_op_id() {
        let mut t = Tracer::on(Instant::now());
        let op = t.begin(7, "op");
        let a = t.begin(7, "client.roundtrip");
        t.end(a);
        let b = t.begin(7, "snippet.apply");
        t.end(b);
        t.end(op);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let mut off = Tracer::off();
        let s = off.begin(1, "op");
        off.end(s);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_layer_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let mut pos = 0;
        for m in LAYER_METRICS {
            let needle = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            let at = per_layer[pos..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order"));
            pos += at + needle.len();
        }
        assert_eq!(per_layer.matches("\"name\"").count(), LAYER_METRICS.len());
    }
}
