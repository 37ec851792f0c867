//! The workloads. Each runs its untraced measurement (`--trace 0`) or its
//! traced per-layer replay (`--trace 1`) and returns an [`Outcome`];
//! human-readable lines go to stdout as they are measured. `stream` is not
//! a workload of its own: `serve_mixed`'s traced run measures its layers.

pub mod pretrain;
pub mod serve;
pub mod stream;

use crate::stats::median;
use std::path::PathBuf;
use std::time::Instant;

/// Length of the synthetic ETTh1 series every workload draws from (the
/// dataset's published length).
pub const ETTH1_LEN: usize = 17_420;

/// Set-up is repeated this many times per run and its median reported, so
/// a single slow file-system call or process spawn does not decide
/// `setup_s`.
pub const SETUP_REPEATS: usize = 3;

#[derive(Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, owned by this run.
    pub work_dir: PathBuf,
    pub server_bin: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records an output check; a failed check makes the run incorrect.
    /// The operations that failed it are counted by the caller.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("check ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.correct = false;
        }
    }
}

/// Prints one of the issue's end-to-end metrics by name with its unit.
pub fn report(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<24} {value:>14.4} {unit:<6} {note}");
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result, and
/// returns it with the median set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), median(&times)))
}

/// Channel-major copies of the synthetic ETTh1 series: `cols[c][t]`.
pub fn etth1_columns(seed: u64) -> Vec<Vec<f32>> {
    let ds = timedrl_data::synth::forecast::etth1(ETTH1_LEN, seed);
    let (t, c) = (ds.series.shape()[0], ds.series.shape()[1]);
    let data = ds.series.data();
    (0..c)
        .map(|ch| (0..t).map(|i| data[i * c + ch]).collect())
        .collect()
}
