//! Metric math shared by every workload: nearest-rank percentiles with
//! failed ops counted as +∞, per-window medians, the host/participant
//! CPU split read from `schedstat`, `VmHWM` parsing and open-loop lag.

use std::collections::BTreeMap;

/// The latency recorded for a failed op: it sorts after every real
/// sample, so a failure misses every latency limit.
pub const FAILED: u64 = u64::MAX;

/// One completed (or failed) op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion instant, nanoseconds since the measured window began.
    pub done_ns: u64,
    /// Op latency in nanoseconds, or [`FAILED`].
    pub latency_ns: u64,
}

/// Nearest-rank percentile of an unsorted set, in the units given;
/// `f64::INFINITY` when the rank lands on a failure.
pub fn percentile(values: &mut [u64], p: f64) -> Option<f64> {
    values.sort_unstable();
    rcb_util::percentile_nearest_rank(values, p).map(as_f64)
}

fn as_f64(v: u64) -> f64 {
    if v == FAILED {
        f64::INFINITY
    } else {
        v as f64
    }
}

/// Median of a set of values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `p`-th latency percentile computed per fixed window of
/// `window_ns` (by completion time), then the median across windows.
/// Windows holding fewer than `min_samples` ops — the ragged tail of the
/// run — are left out. Returns `(median across windows, windows used)`.
pub fn windowed_percentile(
    samples: &[Sample],
    window_ns: u64,
    min_samples: usize,
    p: f64,
) -> Option<(f64, usize)> {
    let mut windows: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in samples {
        windows
            .entry(s.done_ns / window_ns)
            .or_default()
            .push(s.latency_ns);
    }
    let per_window: Vec<f64> = windows
        .into_values()
        .filter(|w| w.len() >= min_samples)
        .filter_map(|mut w| percentile(&mut w, p))
        .collect();
    median(&per_window).map(|m| (m, per_window.len()))
}

/// On-CPU nanoseconds: the first field of a `schedstat` line.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of every live thread of this process, by tid.
pub fn task_cpu_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(ns) = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
        {
            out.insert(tid, ns);
        }
    }
    out
}

/// The calling thread's kernel tid (from the `/proc/thread-self` link,
/// which reads `<pid>/task/<tid>`).
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Splits the CPU time spent between two [`task_cpu_ns`] readings into
/// `(host_ns, participant_ns)`: threads whose tid is in `participants`
/// count as participant time, every other thread as host time. A thread
/// born between the readings counts from zero.
pub fn split_cpu(
    before: &BTreeMap<u64, u64>,
    after: &BTreeMap<u64, u64>,
    participants: &[u64],
) -> (u64, u64) {
    let mut host = 0;
    let mut part = 0;
    for (tid, &ns) in after {
        let delta = ns.saturating_sub(before.get(tid).copied().unwrap_or(0));
        if participants.contains(tid) {
            part += delta;
        } else {
            host += delta;
        }
    }
    (host, part)
}

/// CPU time of the whole process in seconds: every thread, live or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`, exact for running threads too).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in kibibytes.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// How late an open-loop generator started an op: zero when it started
/// on or before its due time.
pub fn lag_ns(due_ns: u64, started_ns: u64) -> u64 {
    started_ns.saturating_sub(due_ns)
}

/// `(p50, max)` of a set of generator lags.
pub fn lag_summary(lags: &mut [u64]) -> (u64, u64) {
    lags.sort_unstable();
    let p50 = rcb_util::percentile_nearest_rank(lags, 50.0).unwrap_or(0);
    (p50, lags.last().copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(done_ms: u64, latency_us: u64) -> Sample {
        Sample {
            done_ns: done_ms * 1_000_000,
            latency_ns: latency_us * 1_000,
        }
    }

    #[test]
    fn percentile_counts_failures_as_infinite() {
        let mut v = vec![30, 10, 20, FAILED];
        assert_eq!(percentile(&mut v, 50.0), Some(20.0));
        assert_eq!(percentile(&mut v, 75.0), Some(30.0));
        assert_eq!(percentile(&mut v, 90.0), Some(f64::INFINITY));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn median_handles_odd_even_and_infinite() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(
            median(&[1.0, f64::INFINITY, f64::INFINITY]),
            Some(f64::INFINITY)
        );
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_percentile_takes_median_across_full_windows() {
        // Three 100 ms windows: p50s of 10, 20 and 1000 µs; a fourth,
        // ragged window has too few samples and is dropped.
        let mut s = Vec::new();
        for (w, lat) in [(0, 10), (1, 20), (2, 1000)] {
            for i in 0..4 {
                s.push(at(w * 100 + i, lat));
            }
        }
        s.push(at(350, 5));
        assert_eq!(
            windowed_percentile(&s, 100_000_000, 4, 50.0),
            Some((20_000.0, 3))
        );
        // One stalled window moves the median by one window, not by its size.
        assert_eq!(
            windowed_percentile(&s, 100_000_000, 4, 90.0),
            Some((20_000.0, 3))
        );
        assert_eq!(windowed_percentile(&s, 100_000_000, 5, 50.0), None);
    }

    #[test]
    fn windowed_percentile_sees_failures() {
        let mut s: Vec<Sample> = (0..10).map(|i| at(i, 10)).collect();
        s[9].latency_ns = FAILED;
        let (p90, _) = windowed_percentile(&s, 1_000_000_000, 10, 90.0).unwrap();
        assert_eq!(p90, 10_000.0);
        let (p100, _) = windowed_percentile(&s, 1_000_000_000, 10, 100.0).unwrap();
        assert!(p100.is_infinite());
    }

    #[test]
    fn schedstat_parses_first_field() {
        assert_eq!(parse_schedstat("373889672 3316232 47\n"), Some(373_889_672));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn cpu_split_attributes_threads_and_counts_new_ones_from_zero() {
        let before = BTreeMap::from([(1, 100), (2, 1_000), (3, 50)]);
        // tid 3 exited (its time is lost), tid 4 is new.
        let after = BTreeMap::from([(1, 150), (2, 1_600), (4, 70)]);
        assert_eq!(split_cpu(&before, &after, &[2]), (50 + 70, 600));
        assert_eq!(split_cpu(&before, &after, &[]), (50 + 600 + 70, 0));
    }

    #[test]
    fn own_thread_is_found_in_task_list() {
        let tid = current_tid();
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::black_box(0u64);
        }
        assert!(task_cpu_ns().contains_key(&tid));
    }

    #[test]
    fn process_cpu_time_counts_other_threads() {
        let before = process_cpu_s();
        std::thread::spawn(|| {
            let spin = std::time::Instant::now();
            while spin.elapsed() < std::time::Duration::from_millis(30) {
                std::hint::black_box(0u64);
            }
        })
        .join()
        .unwrap();
        assert!(process_cpu_s() - before >= 0.025);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1748 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1748));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1700));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn open_loop_lag_is_lateness_only() {
        assert_eq!(lag_ns(1_000, 900), 0);
        assert_eq!(lag_ns(1_000, 1_250), 250);
        let mut lags = vec![0, 250, 0, 4_000, 10];
        assert_eq!(lag_summary(&mut lags), (10, 4_000));
        assert_eq!(lag_summary(&mut []), (0, 0));
    }
}
