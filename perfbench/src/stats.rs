//! Order statistics over per-operation latency samples.
//!
//! Every timing the benchmark reports comes from one sample per operation
//! (a request, a hop, an optimizer step, a pretraining run), never from
//! batched averages, and is summarized as a median plus the highest
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; fewer would make it the maximum in disguise.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // `99.9 * 10_000 / 100` is 9990.000000000002 in f64; snap near-integers
    // so the rank does not jump by one on representation error.
    let x = p * n as f64 / 100.0;
    let r = if (x - x.round()).abs() < 1e-6 {
        x.round()
    } else {
        x.ceil()
    };
    (r as usize).clamp(1, n.max(1))
}

/// Samples ranked strictly above the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p`% of all samples at or below it. `NaN` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile on the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median, the rule-selected tail percentile and the sample count of one
/// latency population.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` chosen by [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

/// Sorts `samples` in place and summarizes them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_unstable_by(f64::total_cmp);
    Summary {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
    }
}

/// Median of an unsorted slice (nearest rank), `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Length of one throughput slice.
const SLICE_S: f64 = 0.5;

/// Work completed per second, measured over consecutive slices of at least
/// [`SLICE_S`] and reported as the median slice. The host this benchmark
/// was tuned on switches between CPU-speed levels for seconds at a time;
/// the median slice follows the prevailing level where a run-long average
/// mixes in whatever share of the other level a run happened to catch.
pub struct SliceRate {
    start: std::time::Instant,
    work: f64,
    rates: Vec<f64>,
}

impl SliceRate {
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
            work: 0.0,
            rates: Vec::new(),
        }
    }

    /// Records `work` units completed just now.
    pub fn add(&mut self, work: f64) {
        self.work += work;
        let dt = self.start.elapsed().as_secs_f64();
        if dt >= SLICE_S {
            self.rates.push(self.work / dt);
            self.work = 0.0;
            self.start = std::time::Instant::now();
        }
    }

    /// Median slice rate; `NaN` before the first full slice.
    pub fn median(&self) -> f64 {
        median(&self.rates)
    }

    pub fn slices(&self) -> usize {
        self.rates.len()
    }
}

/// Formats a summary scaled by `scale` (e.g. `1e3` for seconds → ms).
pub fn describe(s: &Summary, scale: f64, unit: &str) -> String {
    let tail = match s.tail {
        Some((p, v)) => format!("p{p} {:.4} {unit}", v * scale),
        None => format!(
            "no tail percentile (fewer than {} samples beyond p50)",
            MIN_BEYOND
        ),
    };
    format!("p50 {:.4} {unit}, {tail}, n={}", s.p50 * scale, s.n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..5_000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&higher) = LADDER.iter().rev().find(|&&q| q > p) {
                assert!(
                    beyond(n, higher) < MIN_BEYOND,
                    "n={n}: p{higher} also qualifies"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        let mut shuffled = vec![3.0, 1.0, 2.0];
        let s = summarize(&mut shuffled);
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
        assert_eq!(median(&[5.0, 1.0, 9.0, 7.0]), 5.0);
    }
}
