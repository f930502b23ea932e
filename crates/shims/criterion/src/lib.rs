//! Stand-in for the subset of [criterion](https://docs.rs/criterion) this
//! workspace's benches use, for an environment without crates-io access.
//!
//! Provides the same macro/builder surface (`criterion_group!`,
//! `criterion_main!`, `Criterion`, `BenchmarkId`, benchmark groups,
//! `Bencher::iter`) backed by a simple wall-clock harness: warm up for
//! `warm_up_time`, then time samples until `measurement_time` or
//! `sample_size` samples are exhausted, and print the median time per
//! iteration. A sample is one call, or a batch of calls for a routine
//! faster than [`MIN_SAMPLE`]. The median keeps one preempted sample
//! from moving the row. No plots or comparison with saved baselines.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Shortest span one sample times: a faster routine runs in batches of
/// calls per sample, so the clock's own cost stays small against it.
pub const MIN_SAMPLE: Duration = Duration::from_micros(10);

/// Harness configuration and entry point, mirroring `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    /// Sets the target number of measured samples.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the measurement budget.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up budget.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let cfg = self.clone();
        run_one(&cfg, &id.into(), f);
    }
}

/// A named collection of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample size for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Overrides the measurement budget for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measurement_time = d;
        self
    }

    fn config(&self) -> Criterion {
        let mut cfg = self.criterion.clone();
        if let Some(n) = self.sample_size {
            cfg.sample_size = n;
        }
        cfg
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_one(&self.config(), &full, f);
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(&self.config(), &full, |b| f(b, input));
    }

    /// Ends the group (kept for API compatibility; prints nothing).
    pub fn finish(self) {}
}

/// A benchmark identifier: function name plus a parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Builds an id from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing driver handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher<'a> {
    cfg: &'a Criterion,
    /// (median time per iteration, samples) recorded by `iter`.
    measured: Option<(Duration, u64)>,
}

impl Bencher<'_> {
    /// Calls `routine` repeatedly: warm-up first (at least one call,
    /// which sizes the batches), then timed samples until the time
    /// budget or sample size is reached.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let warm_start = Instant::now();
        let mut warm_iters = 0u32;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= self.cfg.warm_up_time || warm_iters >= 10_000 {
                break;
            }
        }
        let per_call = warm_start.elapsed() / warm_iters;
        let batch = MIN_SAMPLE.as_nanos().div_ceil(per_call.as_nanos().max(1)) as u64;

        let budget = self.cfg.measurement_time;
        let start = Instant::now();
        let mut samples = Vec::new();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
            if samples.len() >= self.cfg.sample_size || start.elapsed() >= budget {
                break;
            }
        }
        let n = samples.len() as u64;
        self.measured = Some((Duration::from_secs_f64(median(&mut samples)), n));
    }
}

/// The median of `samples` (the mean of the middle two for an even
/// count); reorders them.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn run_one<F>(cfg: &Criterion, id: &str, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        cfg,
        measured: None,
    };
    f(&mut bencher);
    match bencher.measured {
        Some((median, samples)) if samples > 0 => {
            let per = median.as_secs_f64();
            println!(
                "{id:<56} time: {} (median of {samples} samples)",
                format_time(per)
            );
        }
        _ => println!("{id:<56} (no measurement recorded)"),
    }
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Mirrors `criterion::criterion_group!`: defines a function running the
/// target benchmarks with the given (or default) configuration.
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

/// Mirrors `criterion::criterion_main!`: a `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_iterations() {
        let cfg = Criterion::default()
            .sample_size(5)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut b = Bencher {
            cfg: &cfg,
            measured: None,
        };
        let mut count = 0u64;
        b.iter(|| count += 1);
        let (_, iters) = b.measured.unwrap();
        assert!((1..=5).contains(&iters));
        assert!(count >= iters);
    }

    #[test]
    fn median_ignores_one_slow_sample() {
        let mut even = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
        let mut steady = [1.0, 1.1, 0.9, 1.0, 1.05];
        let mut one_slow = [1.0, 1.1, 0.9, 1.0, 400.0];
        assert_eq!(median(&mut steady), median(&mut one_slow));
    }

    #[test]
    fn one_preempted_sample_leaves_the_median_unchanged() {
        // Every call spins 200 µs except one that stalls 40 ms: the mean
        // of 21 samples would read ≥ 2 ms, the median stays near 200 µs.
        let cfg = Criterion::default()
            .sample_size(21)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_secs(30));
        let mut b = Bencher {
            cfg: &cfg,
            measured: None,
        };
        let mut calls = 0;
        b.iter(|| {
            calls += 1;
            let spin = if calls == 15 { 40_000 } else { 200 };
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(spin) {}
        });
        let (median, samples) = b.measured.unwrap();
        // At most 5 warm-up calls fit the 1 ms warm-up, so call 15 is a
        // sample; calls over MIN_SAMPLE run one per sample.
        assert_eq!(samples, 21);
        assert!((22..=26).contains(&calls), "{calls} calls");
        assert!(
            median >= Duration::from_micros(200) && median < Duration::from_millis(1),
            "{median:?}"
        );
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::new("dot", 42).to_string(), "dot/42");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &x| b.iter(|| x * 2));
        group.finish();
    }

    #[test]
    fn time_formatting() {
        assert!(format_time(2.0).ends_with(" s"));
        assert!(format_time(2e-3).ends_with(" ms"));
        assert!(format_time(2e-6).ends_with(" µs"));
        assert!(format_time(2e-9).ends_with(" ns"));
    }
}
