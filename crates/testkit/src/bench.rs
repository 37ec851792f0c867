//! A wall-clock benchmark runner: warmup, N timed samples, and a
//! min/median/p95 report — the workspace's replacement for `criterion`.
//!
//! Each benchmark target is still a `harness = false` binary under
//! `benches/`; instead of criterion's statistical machinery it measures
//! batched wall-clock samples with `std::time::Instant` and prints one
//! report line per benchmark. Good enough to rank kernels and catch
//! order-of-magnitude regressions, with zero dependencies.
//!
//! Environment knobs:
//!
//! - `TESTKIT_BENCH_SAMPLES` — number of timed samples (default 20)
//! - `TESTKIT_BENCH_WARMUP_MS` — warmup duration per benchmark (default 300)
//! - `TESTKIT_BENCH_SAMPLE_MS` — target duration of one sample batch
//!   (default 50); short functions are looped enough times per sample to
//!   reach it, so timer resolution never dominates.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Bench`] run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Number of timed samples per benchmark.
    pub samples: usize,
    /// Warmup duration before sampling starts.
    pub warmup: Duration,
    /// Target wall-clock duration of one sample batch.
    pub sample_time: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            samples: 20,
            warmup: Duration::from_millis(300),
            sample_time: Duration::from_millis(50),
        }
    }
}

impl BenchConfig {
    /// Default config with `TESTKIT_BENCH_*` environment overrides applied.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(n) = env_usize("TESTKIT_BENCH_SAMPLES") {
            cfg.samples = n.max(1);
        }
        if let Some(ms) = env_usize("TESTKIT_BENCH_WARMUP_MS") {
            cfg.warmup = Duration::from_millis(ms as u64);
        }
        if let Some(ms) = env_usize("TESTKIT_BENCH_SAMPLE_MS") {
            cfg.sample_time = Duration::from_millis(ms.max(1) as u64);
        }
        cfg
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Timing summary of one benchmark, in seconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct BenchReport {
    /// Fastest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// 95th-percentile sample.
    pub p95: f64,
    /// Slowest sample.
    pub max: f64,
    /// Iterations executed per sample batch.
    pub iters_per_sample: usize,
    /// Number of samples taken.
    pub samples: usize,
}

/// A benchmark suite: groups of named benchmarks sharing one config.
pub struct Bench {
    suite: String,
    config: BenchConfig,
}

impl Bench {
    /// Creates a suite with [`BenchConfig::from_env`] and prints its header.
    pub fn from_env(suite: &str) -> Self {
        let config = BenchConfig::from_env();
        println!(
            "# bench suite '{suite}' — {} samples, {:?} warmup, ~{:?} per sample",
            config.samples, config.warmup, config.sample_time
        );
        Self { suite: suite.to_string(), config }
    }

    /// Creates a suite with an explicit config.
    pub fn with_config(suite: &str, config: BenchConfig) -> Self {
        Self { suite: suite.to_string(), config }
    }

    /// Opens a named benchmark group (mirrors criterion's `benchmark_group`).
    pub fn group(&mut self, name: &str) -> Group<'_> {
        println!("\n## {}/{name}", self.suite);
        Group { bench: self, name: name.to_string() }
    }
}

/// A named group of benchmarks; see [`Bench::group`].
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
}

impl Group<'_> {
    /// Times `f` (warmup, then batched samples) and prints one report line.
    /// The closure's return value is passed through [`black_box`] so the
    /// optimizer cannot elide the work.
    pub fn bench<R>(&mut self, id: impl std::fmt::Display, mut f: impl FnMut() -> R) -> BenchReport {
        let cfg = &self.bench.config;

        // Warmup: run until the warmup budget elapses, counting iterations
        // to estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < cfg.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let est_per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters_per_sample =
            ((cfg.sample_time.as_secs_f64() / est_per_iter).ceil() as usize).max(1);

        let mut times = Vec::with_capacity(cfg.samples);
        for _ in 0..cfg.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            times.push(start.elapsed().as_secs_f64() / iters_per_sample as f64);
        }
        times.sort_by(f64::total_cmp);
        let report = BenchReport {
            min: times[0],
            median: times[times.len() / 2],
            p95: times[(times.len() * 95 / 100).min(times.len() - 1)],
            max: times[times.len() - 1],
            iters_per_sample,
            samples: times.len(),
        };
        println!(
            "{:<32} median {:>10}  p95 {:>10}  min {:>10}  ({} samples x {} iters)",
            format!("{}/{}", self.name, id),
            fmt_duration(report.median),
            fmt_duration(report.p95),
            fmt_duration(report.min),
            report.samples,
            report.iters_per_sample,
        );
        report
    }

    /// Alias keeping migrated criterion call sites readable.
    pub fn bench_function<R>(&mut self, id: impl std::fmt::Display, f: impl FnMut() -> R) -> BenchReport {
        self.bench(id, f)
    }

    /// Ends the group (purely cosmetic; mirrors criterion's API).
    pub fn finish(self) {}
}

/// The outcome of a [`paired`] timing: quantiles of the per-pair ratios
/// `time(b) / time(a)`, so above 1 means `a` is faster.
#[derive(Debug, Clone, Copy)]
pub struct PairedReport {
    /// Median per-pair ratio.
    pub median: f64,
    /// First quartile of the ratios.
    pub q1: f64,
    /// Third quartile of the ratios.
    pub q3: f64,
    /// Number of pairs timed.
    pub pairs: usize,
}

impl PairedReport {
    /// Interquartile range of the ratios.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Times `a` against `b` in `pairs` alternating rounds, after one warm-up
/// call of each, and reports the per-pair ratios `time(b) / time(a)`.
///
/// Timing two functions in two separate blocks lets a change in the host's
/// speed between the blocks (another tenant, a frequency step) pass for a
/// difference between the functions. A pair runs both back to back, so
/// both see the same phase, and the order alternates from pair to pair so
/// neither side always runs on the other's warm caches.
///
/// # Panics
/// Panics if `pairs` is 0.
pub fn paired(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> PairedReport {
    assert!(pairs > 0, "paired: need at least one pair");
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    time(&mut a);
    time(&mut b);
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                let ta = time(&mut a);
                (ta, time(&mut b))
            } else {
                let tb = time(&mut b);
                (time(&mut a), tb)
            };
            tb / ta.max(f64::MIN_POSITIVE)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let at = |q: usize| ratios[(ratios.len() - 1) * q / 4];
    PairedReport { median: at(2), q1: at(1), q3: at(3), pairs }
}

/// Formats seconds human-readably (ns/µs/ms/s).
pub fn fmt_duration(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1}ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.1}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{:.3}s", seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BenchConfig {
        BenchConfig {
            samples: 5,
            warmup: Duration::from_millis(1),
            sample_time: Duration::from_millis(1),
        }
    }

    #[test]
    fn report_orders_quantiles() {
        let mut bench = Bench::with_config("unit", quick_config());
        let mut group = bench.group("smoke");
        let mut acc = 0u64;
        let report = group.bench("sum", || {
            acc = acc.wrapping_add((0..100u64).sum::<u64>());
            acc
        });
        group.finish();
        assert!(report.min <= report.median);
        assert!(report.median <= report.p95);
        assert!(report.p95 <= report.max);
        assert!(report.min > 0.0);
        assert_eq!(report.samples, 5);
    }

    #[test]
    fn paired_ratio_sees_which_side_is_slower() {
        let spin = |n: u64| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = black_box(acc.wrapping_mul(31).wrapping_add(i));
            }
            acc
        };
        let report = paired(9, || drop(spin(20_000)), || drop(spin(200_000)));
        assert_eq!(report.pairs, 9);
        assert!(report.q1 <= report.median && report.median <= report.q3);
        assert!(report.median > 2.0, "10x the work should time slower: {report:?}");
    }

    #[test]
    fn fmt_duration_picks_sane_units() {
        assert!(fmt_duration(3.5e-9).ends_with("ns"));
        assert!(fmt_duration(3.5e-6).ends_with("µs"));
        assert!(fmt_duration(3.5e-3).ends_with("ms"));
        assert!(fmt_duration(2.0).ends_with('s'));
    }
}
