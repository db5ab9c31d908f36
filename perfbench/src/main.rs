//! End-to-end and per-layer benchmark of the RCB host, driven over
//! loopback from inside one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <poll-idle|poll-idle-epoll|update-push|cobrowse-merge> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload and prints the end-to-end metrics;
//! `--trace 1` runs the same workload and seed with spans, a counting
//! allocator and per-layer replays, and prints the per-layer metrics.
//! The last line of standard output is one JSON object; the exit code is
//! non-zero when a correctness check failed.

mod alloc;
mod cobrowse;
mod common;
mod poll_idle;
mod replay;
mod stats;
mod trace;
mod update_push;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed the benchmark is tuned on, and the one held out for
/// confirming a claimed gain.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLDOUT_SEED: u64 = 20_091_109;

/// The workloads, each defined in its own module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PollIdle,
    PollIdleEpoll,
    UpdatePush,
    CobrowseMerge,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "poll-idle" => Some(Workload::PollIdle),
            "poll-idle-epoll" => Some(Workload::PollIdleEpoll),
            "update-push" => Some(Workload::UpdatePush),
            "cobrowse-merge" => Some(Workload::CobrowseMerge),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PollIdle => "poll-idle",
            Workload::PollIdleEpoll => "poll-idle-epoll",
            Workload::UpdatePush => "update-push",
            Workload::CobrowseMerge => "cobrowse-merge",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a timed run measured, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Cost of each set-up made in the run.
    pub setups: Vec<common::SetupCost>,
    pub samples: Vec<stats::Sample>,
    /// Latency window length and the fewest samples a window must hold.
    pub window_ns: u64,
    pub min_per_window: usize,
    pub attempted: u64,
    pub failed: u64,
    /// CPU per sampling window (same length as the latency window).
    pub cpu: Vec<common::CpuWindow>,
    pub wire_bytes: u64,
    /// Correctness failures.
    pub errors: Vec<String>,
}

/// Everything a workload reports.
pub struct Outcome {
    /// Resolved engine, shard and worker counts, page — printed with
    /// every result.
    pub config: String,
    pub measured: Measured,
    /// Per-layer values (traced runs only).
    pub layers: trace::Layers,
}

fn json_number(v: f64) -> String {
    // JSON has no infinity: a latency made infinite by failed ops is
    // printed as a huge finite number (the run is already incorrect).
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("1e300")
    }
}

fn json_line(correct: bool, m: &Measured, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    )
}

/// CPU per op in µs: computed per sampling window holding enough ops,
/// then the median across windows.
fn cpu_per_op_us(m: &Measured, ns: impl Fn(&common::CpuWindow) -> u64) -> f64 {
    let per_window: Vec<f64> = m
        .cpu
        .iter()
        .filter(|w| w.ops >= m.min_per_window as u64)
        .map(|w| ns(w) as f64 / w.ops as f64 / 1e3)
        .collect();
    stats::median(&per_window).unwrap_or(f64::INFINITY)
}

/// The end-to-end metrics of a timed run, in `BENCHMARK.json` order,
/// plus the ungated diagnostics printed beside them.
fn end_to_end(m: &Measured) -> (Vec<(&'static str, f64, &'static str)>, String) {
    let ops = m.attempted.max(1) as f64;
    let windowed = |p| {
        stats::windowed_percentile(&m.samples, m.window_ns, m.min_per_window, p)
            .map_or((f64::INFINITY, 0), |(ns, w)| (ns / 1e3, w))
    };
    let (p50, windows) = windowed(50.0);
    let (p90, _) = windowed(90.0);
    let mut all: Vec<u64> = m.samples.iter().map(|s| s.latency_ns).collect();
    let p99 = stats::percentile(&mut all, 99.0).map_or(f64::INFINITY, |ns| ns / 1e3);
    let setup_cpu: Vec<f64> = m.setups.iter().map(|s| s.cpu_s).collect();
    let setup_wall: Vec<f64> = m.setups.iter().map(|s| s.wall_s).collect();
    let metrics = vec![
        (
            "setup_s",
            stats::median(&setup_cpu).unwrap_or(f64::INFINITY),
            "s",
        ),
        ("latency_p50_us", p50, "us"),
        ("host_cpu_us_per_op", cpu_per_op_us(m, |w| w.host_ns), "us"),
        (
            "participant_cpu_us_per_op",
            cpu_per_op_us(m, |w| w.participant_ns),
            "us",
        ),
        ("wire_bytes_per_op", m.wire_bytes as f64 / ops, "B"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    // Printed beside the metrics rather than reported as metrics: on a
    // shared virtual machine the tail percentiles and set-up wall time
    // follow hypervisor steal more than the program, and the error ratio
    // already reaches the result line as `failed`.
    let diag = format!(
        "diagnostics: error_ratio={} latency_p90_us={} latency_p99_us={} samples={} windows={} \
         setup_wall_s={} setup_cpu_s={setup_cpu:?}",
        m.failed as f64 / ops,
        json_number(p90),
        json_number(p99),
        all.len(),
        windows,
        json_number(stats::median(&setup_wall).unwrap_or(f64::INFINITY)),
    );
    (metrics, diag)
}

fn main() -> ExitCode {
    // The program reads `RCB_*` variables in places no configuration can
    // override (e.g. the router's shed responder); a run under any of
    // them would measure a different program than the one pinned here.
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RCB_"))
        .collect();
    if !inherited.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset every RCB_* variable",
            inherited.join(", ")
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        alloc::enable();
    }
    let result = match args.workload {
        Workload::PollIdle | Workload::PollIdleEpoll => poll_idle::run(&args),
        Workload::UpdatePush => update_push::run(&args),
        Workload::CobrowseMerge => cobrowse::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.config
    );
    let m = &outcome.measured;
    for e in &m.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = m.errors.is_empty() && m.failed == 0;
    let metrics = if args.trace {
        for lm in trace::LAYER_METRICS {
            let v = outcome.layers.get(lm.name).copied().unwrap_or(0.0);
            println!(
                "{:<26} {:>14} {:<5} better={} layer={} moves=[{}] on=[{}]",
                lm.name,
                json_number(v),
                lm.unit,
                lm.better,
                lm.layer,
                lm.moves,
                lm.workloads
            );
        }
        trace::layer_values(&outcome.layers)
    } else {
        let (metrics, diag) = end_to_end(m);
        for (name, v, unit) in &metrics {
            println!("{name:<26} {:>14} {unit}", json_number(*v));
        }
        println!("{diag}");
        metrics
    };
    println!("{}", json_line(correct, m, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_the_documented_form() {
        let a = parse_args(&argv(
            "--workload update-push --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::UpdatePush);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload poll-idle --seed")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_finite_numbers() {
        let m = Measured {
            attempted: 10,
            failed: 1,
            ..Measured::default()
        };
        let line = json_line(
            false,
            &m,
            &[
                ("latency_p50_us", f64::INFINITY, "us"),
                ("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"latency_p50_us\": \
             {\"value\": 1e300, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
