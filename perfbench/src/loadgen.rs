//! The seeded request schedule of the serving workload: Poisson arrivals,
//! a fixed request-size mix, and windows drawn from a hot set that fits in
//! the server's cache or from a never-repeating fresh pool.
//!
//! Windows are named by an index into a caller-defined window space; the
//! caller maps each index to window data.

use testkit::TestRng;

/// Request sizes in windows, with their count per block of [`BLOCK`]
/// consecutive requests: 80% 1, 15% 16 and 5% 64 windows.
pub const SIZES: [(usize, usize); 3] = [(1, 16), (16, 3), (64, 1)];

/// Sizes are dealt in seeded-shuffled blocks of this many requests, so the
/// mix is exact over every block. Drawing each size independently would
/// let the count of 64-window requests, which carry half of all windows,
/// swing a run's windows per second by several percent between seeds.
pub const BLOCK: usize = 20;

/// Share of windows drawn from the hot set.
pub const HOT_SHARE: f64 = 0.30;

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Seconds after the start of the open loop at which it is due.
    pub due_s: f64,
    /// Window indices, in request order.
    pub windows: Vec<usize>,
}

/// An endless (until the fresh pool runs dry) seeded request sequence.
pub struct RequestStream {
    rng: TestRng,
    rate_per_s: f64,
    clock_s: f64,
    hot: Vec<usize>,
    fresh: Vec<usize>,
    next_fresh: usize,
    /// Sizes left in the current block, dealt from the back.
    block: Vec<usize>,
}

impl RequestStream {
    /// A stream over a window space of `space` indices: `hot_len` of them,
    /// chosen by the seed, form the hot set; the rest are handed out once
    /// each, in seeded order. Requests arrive at `rate_per_s` on average.
    pub fn new(seed: u64, rate_per_s: f64, space: usize, hot_len: usize) -> Self {
        assert!(
            hot_len > 0 && hot_len < space,
            "hot set must be a proper, non-empty subset"
        );
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        let mut rng = TestRng::new(seed);
        let mut order = rng.permutation(space);
        let fresh = order.split_off(hot_len);
        Self {
            rng,
            rate_per_s,
            clock_s: 0.0,
            hot: order,
            fresh,
            next_fresh: 0,
            block: Vec::new(),
        }
    }

    /// Windows of the hot set.
    #[cfg(test)]
    pub fn hot(&self) -> &[usize] {
        &self.hot
    }

    /// The next request, or `None` once the fresh pool is exhausted.
    pub fn next_request(&mut self) -> Option<Planned> {
        // Exponential inter-arrival gaps make the arrivals Poisson.
        let u = self.rng.uniform_f64();
        self.clock_s += -(1.0 - u).ln() / self.rate_per_s;
        if self.block.is_empty() {
            self.block = SIZES
                .iter()
                .flat_map(|&(size, count)| std::iter::repeat_n(size, count))
                .collect();
            debug_assert_eq!(self.block.len(), BLOCK);
            self.rng.shuffle(&mut self.block);
        }
        let size = self.block.pop().expect("a refilled block is never empty");
        let mut windows = Vec::with_capacity(size);
        for _ in 0..size {
            if self.rng.uniform_f64() < HOT_SHARE {
                windows.push(self.hot[self.rng.below_usize(self.hot.len())]);
            } else {
                windows.push(*self.fresh.get(self.next_fresh)?);
                self.next_fresh += 1;
            }
        }
        Some(Planned {
            due_s: self.clock_s,
            windows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(seed: u64, n: usize) -> Vec<Planned> {
        let mut s = RequestStream::new(seed, 500.0, 2_000_000, 256);
        (0..n)
            .map(|_| s.next_request().expect("pool large enough"))
            .collect()
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        assert_eq!(take(7, 500), take(7, 500));
        assert_ne!(take(7, 500), take(8, 500));
    }

    #[test]
    fn arrivals_are_poisson_at_the_offered_rate() {
        let reqs = take(1, 40_000);
        let span = reqs.last().unwrap().due_s;
        let rate = reqs.len() as f64 / span;
        assert!((rate - 500.0).abs() < 500.0 * 0.02, "rate {rate}");
        // Exponential gaps: P(gap > mean) = 1/e.
        let mean = span / reqs.len() as f64;
        let mut prev = 0.0;
        let long = reqs
            .iter()
            .filter(|r| {
                let gap = r.due_s - prev;
                prev = r.due_s;
                gap > mean
            })
            .count();
        let share = long as f64 / reqs.len() as f64;
        assert!(
            (share - (-1.0f64).exp()).abs() < 0.01,
            "share of long gaps {share}"
        );
        assert!(reqs.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }

    #[test]
    fn request_mix_and_hot_share_match_the_spec() {
        let reqs = take(2, 50_000);
        assert_eq!(SIZES.iter().map(|s| s.1).sum::<usize>(), BLOCK);
        for block in reqs.chunks(BLOCK) {
            for (size, count) in SIZES {
                assert_eq!(
                    block.iter().filter(|r| r.windows.len() == size).count(),
                    count
                );
            }
        }
        let shares: Vec<f64> = SIZES.iter().map(|s| s.1 as f64 / BLOCK as f64).collect();
        assert_eq!(shares, [0.80, 0.15, 0.05]);
        // Shuffled, not dealt in a fixed order.
        assert_ne!(
            reqs[..BLOCK]
                .iter()
                .map(|r| r.windows.len())
                .collect::<Vec<_>>(),
            reqs[BLOCK..2 * BLOCK]
                .iter()
                .map(|r| r.windows.len())
                .collect::<Vec<_>>()
        );
        let stream = RequestStream::new(2, 500.0, 2_000_000, 256);
        let hot: HashSet<usize> = stream.hot().iter().copied().collect();
        assert_eq!(hot.len(), 256);
        let all: Vec<usize> = reqs
            .iter()
            .flat_map(|r| r.windows.iter().copied())
            .collect();
        let hot_hits = all.iter().filter(|w| hot.contains(w)).count();
        let share = hot_hits as f64 / all.len() as f64;
        assert!((share - HOT_SHARE).abs() < 0.01, "hot share {share}");
        // Fresh windows are never repeated and never hot, so every one of
        // them misses any cache.
        let mut seen = HashSet::new();
        for w in all.iter().filter(|w| !hot.contains(w)) {
            assert!(seen.insert(*w), "fresh window {w} repeated");
        }
    }

    #[test]
    fn an_exhausted_fresh_pool_ends_the_stream() {
        let mut s = RequestStream::new(3, 100.0, 300, 10);
        let mut fresh_used = 0;
        while let Some(r) = s.next_request() {
            fresh_used += r.windows.iter().filter(|w| !s.hot().contains(w)).count();
        }
        assert!(fresh_used <= 290);
    }
}
