//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A traced operation (an optimizer step, a request, a hop) is bracketed by
//! [`Tracer::begin`] / [`Tracer::end`]; calls inside it are wrapped in
//! [`Tracer::span`] under a phase index. Per phase the tracer keeps one
//! value per operation (the sum of that phase's spans within it), plus the
//! operation's whole duration and its heap-allocation count. No timer runs
//! inside the program itself. A disabled tracer calls straight through, so
//! the same replay code gives the untraced baseline for the overhead figure.

use crate::stats::median;
use std::time::Instant;

pub struct Tracer {
    enabled: bool,
    cur: Vec<f64>,
    per_op: Vec<Vec<f64>>,
    whole: Vec<f64>,
    allocs: Vec<f64>,
    open: Option<(Instant, u64)>,
}

impl Tracer {
    pub fn new(phases: usize, enabled: bool) -> Self {
        Self {
            enabled,
            cur: vec![0.0; phases],
            per_op: vec![Vec::new(); phases],
            whole: Vec::new(),
            allocs: Vec::new(),
            open: None,
        }
    }

    /// Runs `f`, adding its wall time to `phase` of the open operation.
    pub fn span<R>(&mut self, phase: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.cur[phase] += t0.elapsed().as_secs_f64();
        out
    }

    pub fn begin(&mut self) {
        if self.enabled {
            self.open = Some((Instant::now(), testkit::alloc::allocation_count()));
        }
    }

    pub fn end(&mut self) {
        let Some((t0, a0)) = self.open.take() else {
            return;
        };
        self.whole.push(t0.elapsed().as_secs_f64());
        self.allocs
            .push((testkit::alloc::allocation_count() - a0) as f64);
        for (acc, v) in self.per_op.iter_mut().zip(self.cur.iter_mut()) {
            acc.push(*v);
            *v = 0.0;
        }
    }

    /// Operations recorded.
    pub fn ops(&self) -> usize {
        self.whole.len()
    }

    /// `phase`'s time in the most recently ended operation, seconds.
    pub fn last(&self, phase: usize) -> f64 {
        self.per_op[phase].last().copied().unwrap_or(0.0)
    }

    /// Median per-operation time of `phase`, seconds.
    pub fn median(&self, phase: usize) -> f64 {
        median(&self.per_op[phase])
    }

    /// Summed time of `phase` over all operations, seconds.
    pub fn total(&self, phase: usize) -> f64 {
        self.per_op[phase].iter().sum()
    }

    /// Median whole-operation time, seconds.
    pub fn whole_median(&self) -> f64 {
        median(&self.whole)
    }

    pub fn whole_total(&self) -> f64 {
        self.whole.iter().sum()
    }

    /// Median heap allocations per operation (process-wide counter).
    pub fn allocs_median(&self) -> f64 {
        median(&self.allocs)
    }

    /// Summed time of `phases` over the summed whole-operation time: 1.0
    /// means the phases account for every traced microsecond.
    pub fn coverage(&self, phases: &[usize]) -> f64 {
        let covered: f64 = phases.iter().map(|&p| self.total(p)).sum();
        covered / self.whole_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_operation() {
        let mut t = Tracer::new(2, true);
        for _ in 0..3 {
            t.begin();
            t.span(0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span(0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span(1, || ());
            t.end();
        }
        assert_eq!(t.ops(), 3);
        assert!(t.median(0) >= 0.004 && t.median(0) < t.whole_median() + 1e-9);
        let c = t.coverage(&[0, 1]);
        assert!(c > 0.9 && c <= 1.0, "coverage {c}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(1, false);
        t.begin();
        assert_eq!(t.span(0, || 41 + 1), 42);
        t.end();
        assert_eq!(t.ops(), 0);
    }
}
