//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the real criterion
//! cannot be fetched. This shim keeps the workspace's `harness = false`
//! benches compiling and running with the same source: benchmark groups,
//! `bench_function` / `bench_with_input`, `iter` / `iter_batched`,
//! throughput annotation, and the `criterion_group!` / `criterion_main!`
//! macros.
//!
//! Measurement is deliberately simple — a few warmup iterations, then
//! `sample_size` timed iterations, reporting mean time per iteration (and
//! throughput when declared). When invoked by `cargo test` (the runner
//! passes `--test`), each benchmark body runs exactly once as a smoke test.

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Re-exported like criterion's: an identity function the optimizer must
/// assume reads/writes its argument.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// How `iter_batched` groups its inputs. The shim sets up one input per
/// iteration whatever the size; the variant keeps call sites compatible
/// with the real crate.
#[derive(Clone, Copy)]
pub enum BatchSize {
    LargeInput,
}

#[derive(Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

pub struct Criterion {
    sample_size: usize,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo test` runs harness-less bench binaries with `--test`.
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            sample_size: 100,
            test_mode,
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 1, "sample size must be >= 1");
        self.sample_size = n;
        self
    }

    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "sample size must be >= 1");
        self.sample_size = Some(n);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.into(), &mut f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.into(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    fn run(&self, id: BenchmarkId, f: &mut dyn FnMut(&mut Bencher)) {
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        let mut bencher = Bencher {
            samples: if self.criterion.test_mode { 1 } else { samples },
            warmup: if self.criterion.test_mode { 0 } else { 3 },
            mean: Duration::ZERO,
        };
        f(&mut bencher);
        let label = format!("{}/{}", self.name, id.id);
        if self.criterion.test_mode {
            println!("test-mode {label}: ok (1 iteration)");
            return;
        }
        let per_iter = bencher.mean;
        match self.throughput {
            Some(Throughput::Bytes(n)) if per_iter > Duration::ZERO => {
                let mibps = n as f64 / per_iter.as_secs_f64() / (1024.0 * 1024.0);
                println!("{label}: {per_iter:?}/iter ({mibps:.1} MiB/s)");
            }
            Some(Throughput::Elements(n)) if per_iter > Duration::ZERO => {
                let eps = n as f64 / per_iter.as_secs_f64();
                println!("{label}: {per_iter:?}/iter ({eps:.0} elem/s)");
            }
            _ => println!("{label}: {per_iter:?}/iter"),
        }
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    samples: usize,
    warmup: usize,
    mean: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        self.mean = start.elapsed() / self.samples as u32;
    }

    /// Times `routine` alone, on a fresh input from `setup` each
    /// iteration; neither the setup nor dropping the output is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.warmup {
            black_box(routine(setup()));
        }
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed();
            drop(output);
        }
        self.mean = total / self.samples as u32;
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
