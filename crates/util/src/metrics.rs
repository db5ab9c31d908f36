//! Lightweight measurement primitives.
//!
//! The experiment harness needs three things: event counters, duration
//! histograms with summary statistics (the paper reports per-site averages
//! over five repetitions), and a wall-clock stopwatch for the CPU-bound
//! metrics M5/M6.

use std::time::Instant;

use crate::clock::SimDuration;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A duration sample set with summary statistics.
///
/// Stores raw samples (experiments here record at most a few thousand) so
/// exact percentiles can be computed; no bucketing error. A histogram
/// made with [`Histogram::recent`] keeps only its most recent samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    samples: Vec<SimDuration>,
    /// The most samples held at once.
    cap: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            samples: Vec::new(),
            cap: usize::MAX,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram that keeps every sample.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Creates an empty histogram that keeps at most `cap` samples: a
    /// record that finds it full first drops the oldest half, so memory
    /// stays bounded and each record costs amortized O(1). Every summary
    /// covers the samples kept.
    pub fn recent(cap: usize) -> Self {
        Histogram {
            samples: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        if self.samples.len() >= self.cap {
            self.samples.drain(..self.cap.div_ceil(2));
        }
        self.samples.push(d);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_micros() as u128).sum();
        SimDuration::from_micros((total / self.samples.len() as u128) as u64)
    }

    /// Exact percentile via nearest-rank (`p` in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> SimDuration {
        let mut sorted = self.samples.clone();
        sorted.sort();
        match nearest_rank_index(sorted.len(), p) {
            Some(idx) => sorted[idx],
            None => SimDuration::ZERO,
        }
    }

    /// Sample standard deviation in microseconds (0 for <2 samples).
    ///
    /// The paper reports five-repetition averages; reports here add the
    /// spread so a reader can judge simulator determinism vs CPU noise.
    pub fn stddev_micros(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean().as_micros() as f64;
        let var: f64 = self
            .samples
            .iter()
            .map(|d| {
                let x = d.as_micros() as f64 - mean;
                x * x
            })
            .sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// Minimum sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Maximum sample, or zero when empty.
    pub fn max(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Borrow of the raw samples.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }
}

/// Index of the nearest-rank percentile in a sorted slice of length `len`.
///
/// Nearest-rank definition: `rank = ceil(p/100 · len)` clamped to
/// `[1, len]`; the returned index is `rank - 1`. Returns `None` for an
/// empty slice. `p` is clamped to `[0, 100]`, so `p = 0` selects the
/// minimum and `p = 100` the maximum.
///
/// This is the one audited implementation shared by the router's
/// per-session outlier aggregation and the bench gates; the hand-rolled
/// `ceil`/`clamp` (and off-by-one `round`) variants it replaced disagreed
/// at the boundaries (len 1, p = 100, all-equal ties).
pub fn nearest_rank_index(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    Some(rank.clamp(1, len) - 1)
}

/// Nearest-rank percentile of an already **sorted ascending** slice.
///
/// Thin wrapper over [`nearest_rank_index`] for the common `u64` sample
/// case (microsecond latencies, byte counts). Returns `None` when empty.
pub fn percentile_nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    nearest_rank_index(sorted.len(), p).map(|i| sorted[i])
}

/// Wall-clock stopwatch for CPU-bound measurements (M5/M6).
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall-clock time converted into a [`SimDuration`] so CPU and
    /// network metrics share one report type.
    pub fn elapsed(&self) -> SimDuration {
        SimDuration::from_micros(self.start.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn a_recent_histogram_keeps_the_newest_samples_in_order() {
        const CAP: usize = 16_384;
        let mut h = Histogram::recent(CAP);
        for i in 0..100_000u64 {
            h.record(SimDuration::from_micros(i));
            assert!(h.len() <= CAP, "over the bound at sample {i}");
        }
        // Full at 16,384, then half dropped per 8,192 records after.
        assert!(h.len() > CAP / 2, "kept {}", h.len());
        let first = 100_000 - h.len() as u64;
        let expected: Vec<SimDuration> = (first..100_000).map(SimDuration::from_micros).collect();
        assert_eq!(h.samples(), &expected[..], "the newest, oldest first");
        assert_eq!(h.max(), SimDuration::from_micros(99_999));
        assert_eq!(h.min(), SimDuration::from_micros(first));
        // An unbounded histogram keeps everything.
        let mut all = Histogram::new();
        for i in 0..100_000u64 {
            all.record(SimDuration::from_micros(i));
        }
        assert_eq!(all.len(), 100_000);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        for ms in [10u64, 20, 30, 40, 50] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.mean().as_millis(), 30);
        assert_eq!(h.min().as_millis(), 10);
        assert_eq!(h.max().as_millis(), 50);
        assert_eq!(h.percentile(50.0).as_millis(), 30);
        assert_eq!(h.percentile(100.0).as_millis(), 50);
        assert_eq!(h.percentile(0.0).as_millis(), 10);
    }

    #[test]
    fn stddev_measures_spread() {
        let mut tight = Histogram::new();
        let mut wide = Histogram::new();
        for ms in [100u64, 100, 100] {
            tight.record(SimDuration::from_millis(ms));
        }
        for ms in [50u64, 100, 150] {
            wide.record(SimDuration::from_millis(ms));
        }
        assert_eq!(tight.stddev_micros(), 0.0);
        assert!((wide.stddev_micros() - 50_000.0).abs() < 1.0);
        assert_eq!(Histogram::new().stddev_micros(), 0.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn nearest_rank_len_one() {
        // Any percentile of a single sample is that sample.
        for p in [0.0, 0.1, 50.0, 99.0, 100.0] {
            assert_eq!(nearest_rank_index(1, p), Some(0), "p={p}");
            assert_eq!(percentile_nearest_rank(&[42], p), Some(42), "p={p}");
        }
    }

    #[test]
    fn nearest_rank_len_100() {
        let sorted: Vec<u64> = (1..=100).collect();
        // With len 100, rank = ceil(p) exactly: p99 is the 99th value.
        assert_eq!(percentile_nearest_rank(&sorted, 99.0), Some(99));
        assert_eq!(percentile_nearest_rank(&sorted, 100.0), Some(100));
        assert_eq!(percentile_nearest_rank(&sorted, 50.0), Some(50));
        assert_eq!(percentile_nearest_rank(&sorted, 1.0), Some(1));
        // p = 0 clamps the rank up to 1: the minimum, never a panic.
        assert_eq!(percentile_nearest_rank(&sorted, 0.0), Some(1));
        // p99.5 must round *up* to rank 100, not truncate to 99.
        assert_eq!(percentile_nearest_rank(&sorted, 99.5), Some(100));
    }

    #[test]
    fn nearest_rank_all_equal() {
        let sorted = [7u64; 31];
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_nearest_rank(&sorted, p), Some(7), "p={p}");
        }
    }

    #[test]
    fn nearest_rank_empty_and_out_of_range() {
        assert_eq!(nearest_rank_index(0, 99.0), None);
        assert_eq!(percentile_nearest_rank(&[], 50.0), None);
        // Out-of-range percentiles clamp instead of indexing out of bounds.
        assert_eq!(percentile_nearest_rank(&[1, 2, 3], -5.0), Some(1));
        assert_eq!(percentile_nearest_rank(&[1, 2, 3], 250.0), Some(3));
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        let mut spin = 0u64;
        for i in 0..10_000u64 {
            spin = spin.wrapping_add(i);
        }
        assert!(spin > 0);
        // Elapsed is non-decreasing; two reads should be ordered.
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
