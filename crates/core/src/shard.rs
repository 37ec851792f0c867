//! Multi-process sharded pre-training (DESIGN.md §16).
//!
//! `N` worker *processes* pretrain one model on a [`ShardedDataset`],
//! exchanging state exclusively through atomic checkpoint files in a
//! shared run directory — no sockets, no shared memory, no locks. The
//! result is **byte-identical to a single-process run** at any worker
//! count, lifting the thread-invariance proof of the micro-batch path
//! (`trainer.rs`) across real process boundaries.
//!
//! # Protocol
//!
//! Shard `j` is owned by worker `j % n_workers`. Per optimizer step `s`:
//!
//! 1. every worker waits for `params_{s:06}.tdrl` (the coordinator —
//!    worker 0 — writes `params_000000` from the freshly seeded model);
//! 2. each worker computes, for every shard it owns, the gradient of the
//!    pretext loss on that shard's step-`s` mini-batch, on the worker's
//!    one model replica, loaded from the parameter snapshot
//!    ([`crate::trainer`]'s `replica_gradient`), and atomically writes
//!    `grad_{s:06}_{j:04}.tdrl` (`KIND_SHARD_GRAD`);
//! 3. the coordinator waits for all `S` gradient files and hands them, in
//!    ascending shard order, to the trainer's `reduce_and_step` — the
//!    same count-weighted reduce, NaN guard, clip and AdamW step as the
//!    micro-batch path — then writes `params_{s+1:06}.tdrl`.
//!
//! # Why worker count cannot change the bytes
//!
//! Each shard's gradient is a pure function of `(params_s, shard data,
//! seeds mixed from (cfg.seed, epoch/step, shard index))` — never of which
//! process computed it, when, or how many peers exist. f32 arrays
//! round-trip bit-exactly through the container format, and the reduction
//! always runs on the coordinator in fixed ascending-`j` order, so the
//! floating-point accumulation order is frozen. `n_workers` only decides
//! who *produces* each file, not what it contains.
//!
//! # Crash safety
//!
//! All writes are atomic (temp + fsync + rename), so a file either exists
//! complete or not at all; because contents are deterministic, a rewrite
//! after a crash is byte-identical and *re-running any worker is always
//! safe*. The coordinator snapshots a full `TrainingState` to
//! `coord_state.tdrl` at every epoch boundary and replays the current
//! epoch from the on-disk gradient files on restart; a non-coordinator
//! resumes from the newest `params_*` file (the coordinator's progress
//! pointer). A worker that waits longer than the plan's timeout for a
//! peer's file fails with [`TrainError::ShardTimeout`] instead of hanging
//! forever.

use crate::checkpoint::{load_training_state, save_training_state};
use crate::config::TimeDrlConfig;
use crate::error::TrainError;
use crate::model::TimeDrl;
use crate::pretext::PretextBreakdown;
use crate::trainer::{
    capture_state, mix_seed, reduce_and_step, replica_gradient, restore_state, Contribution,
    EpochMeans, PretrainReport, StepInput, UNUSED_RNG,
};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;
use timedrl_data::{BatchIndices, ShardedDataset};
use timedrl_nn::{AdamW, Module};
use timedrl_tensor::serialize::{
    decode_arrays, encode_arrays, read_file, write_file_atomic, ByteReader, KIND_ARRAYS,
    KIND_SHARD_GRAD,
};
use timedrl_tensor::{NdArray, Prng};

/// Seed-mixing domains for the sharded path: per-(epoch, shard) batch
/// order, per-(step, shard) dropout views and augmentation. Distinct from
/// the `0x5eed_*` constants of the in-process paths, so a sharded run is a
/// different (equally valid) randomness stream than `pretrain` on the
/// same seed.
const DOMAIN_ORDER: u64 = 0x5a4d_0001;
const DOMAIN_CTX: u64 = 0x5a4d_0002;
const DOMAIN_AUG: u64 = 0x5a4d_0003;

/// Placement and pacing of one worker in a sharded pre-training run.
#[derive(Debug, Clone)]
pub struct ShardTrainPlan {
    /// Directory of `shard_*.tdrl` files (one split; see
    /// [`timedrl_data::ShardWriter`]).
    pub shard_dir: PathBuf,
    /// Shared run directory for parameter/gradient exchange. Created if
    /// absent; must be the same filesystem path for every worker.
    pub run_dir: PathBuf,
    /// Total worker processes. Shard `j` belongs to worker
    /// `j % n_workers`.
    pub n_workers: usize,
    /// This process's worker index, `0..n_workers`. Worker 0 coordinates:
    /// it reduces gradients, steps the optimizer, and publishes parameter
    /// snapshots.
    pub worker: usize,
    /// Stride of the sliding-window extraction over the sharded series.
    pub stride: usize,
    /// Poll interval while waiting for a peer's file.
    pub poll_ms: u64,
    /// Give up (with [`TrainError::ShardTimeout`]) after waiting this long
    /// for a single file.
    pub timeout_ms: u64,
}

impl ShardTrainPlan {
    /// A single-worker plan with default pacing (2 ms polls, 120 s
    /// timeout); adjust the fields for multi-worker runs.
    pub fn new(shard_dir: impl Into<PathBuf>, run_dir: impl Into<PathBuf>) -> Self {
        Self {
            shard_dir: shard_dir.into(),
            run_dir: run_dir.into(),
            n_workers: 1,
            worker: 0,
            stride: 1,
            poll_ms: 2,
            timeout_ms: 120_000,
        }
    }

    fn check(&self) -> Result<(), TrainError> {
        if self.n_workers == 0 {
            return Err(TrainError::InvalidConfig("n_workers must be positive".into()));
        }
        if self.worker >= self.n_workers {
            return Err(TrainError::InvalidConfig(format!(
                "worker index {} out of range for {} workers",
                self.worker, self.n_workers
            )));
        }
        if self.stride == 0 {
            return Err(TrainError::InvalidConfig("stride must be positive".into()));
        }
        if self.poll_ms == 0 {
            return Err(TrainError::InvalidConfig("poll_ms must be positive".into()));
        }
        Ok(())
    }

    fn params_path(&self, step: u64) -> PathBuf {
        self.run_dir.join(format!("params_{step:06}.tdrl"))
    }

    fn grad_path(&self, step: u64, shard: usize) -> PathBuf {
        self.run_dir.join(format!("grad_{step:06}_{shard:04}.tdrl"))
    }

    fn coord_state_path(&self) -> PathBuf {
        self.run_dir.join("coord_state.tdrl")
    }

    fn final_model_path(&self) -> PathBuf {
        self.run_dir.join("model_final.tdrl")
    }

    fn done_path(&self) -> PathBuf {
        self.run_dir.join("done")
    }

    /// Polls until `path` exists (any worker may still be writing peers'
    /// files, hence polling rather than notification — it keeps the
    /// protocol free of every IPC primitive except the filesystem).
    fn wait_for(&self, path: &Path) -> Result<(), TrainError> {
        let mut waited = 0u64;
        while !path.exists() {
            if waited >= self.timeout_ms {
                return Err(TrainError::ShardTimeout {
                    waiting_for: path.to_path_buf(),
                    waited_ms: waited,
                });
            }
            std::thread::sleep(Duration::from_millis(self.poll_ms));
            waited += self.poll_ms;
        }
        Ok(())
    }
}

/// Everything derivable, identically in every process, from the dataset
/// geometry and the config: shard window counts and the step grid.
struct Schedule {
    /// Windows owned by each shard — counts only. The window tensors are
    /// materialized per step, per owned shard
    /// ([`ShardedDataset::shard_window_batch`]) and dropped after the
    /// gradient is written, so a worker's resident data stays one shard
    /// slab plus one mini-batch regardless of the series length — the
    /// out-of-core bound the data layer promises (DESIGN.md §16).
    shard_counts: Vec<usize>,
    /// `ceil(max windows per shard / batch_size)` — every shard advances
    /// through the same number of steps per epoch; shards with fewer
    /// batches contribute empty (count 0) gradients to the tail steps.
    steps_per_epoch: u64,
    total_steps: u64,
}

impl Schedule {
    fn build(ds: &ShardedDataset, cfg: &TimeDrlConfig, plan: &ShardTrainPlan) -> Result<Self, TrainError> {
        if ds.channels() != cfg.n_features {
            return Err(TrainError::InvalidConfig(format!(
                "sharded series has {} channels, model expects n_features {}; apply \
                 channel-independence before sharding",
                ds.channels(),
                cfg.n_features
            )));
        }
        let shard_counts: Vec<usize> = (0..ds.num_shards())
            .map(|j| ds.shard_window_count(j, cfg.input_len, 0, plan.stride))
            .collect();
        let max_count = shard_counts.iter().copied().max().unwrap_or(0);
        if max_count == 0 {
            return Err(TrainError::EmptyTrainingSet);
        }
        let steps_per_epoch = max_count.div_ceil(cfg.batch_size) as u64;
        Ok(Self {
            shard_counts,
            steps_per_epoch,
            total_steps: steps_per_epoch * cfg.epochs as u64,
        })
    }

    /// The step-`s` mini-batch (window indices into shard `j`'s windows),
    /// derived purely from `(seed, epoch, shard)` — identical in every
    /// process that computes it.
    fn batch(&self, cfg: &TimeDrlConfig, s: u64, j: usize) -> Result<Vec<usize>, TrainError> {
        let n = self.shard_counts[j];
        if n == 0 {
            return Ok(Vec::new());
        }
        let epoch = s / self.steps_per_epoch;
        let b = (s % self.steps_per_epoch) as usize;
        let mut rng = Prng::new(mix_seed(cfg.seed ^ DOMAIN_ORDER, epoch, j as u64));
        BatchIndices::new(n, cfg.batch_size, Some(&mut rng))
            .map_err(|e| TrainError::InvalidConfig(e.to_string()))?
            .nth(b)
            .map_or_else(|| Ok(Vec::new()), Ok)
    }
}

fn write_params(path: &Path, params: &[NdArray]) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&KIND_ARRAYS.to_le_bytes());
    let refs: Vec<&NdArray> = params.iter().collect();
    encode_arrays(&mut payload, &refs);
    write_file_atomic(path, &payload)
}

fn read_params(path: &Path) -> io::Result<Vec<NdArray>> {
    let payload = read_file(path, KIND_ARRAYS)?;
    let mut r = ByteReader::new(&payload);
    let arrays = decode_arrays(&mut r)?;
    r.finish()?;
    Ok(arrays)
}

/// Writes one shard's contribution to one step.
fn write_grad(path: &Path, shard: u64, step: u64, g: &Contribution) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&KIND_SHARD_GRAD.to_le_bytes());
    for word in [shard, step, g.count] {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    for v in [g.breakdown.total, g.breakdown.predictive, g.breakdown.contrastive] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let refs: Vec<&NdArray> = g.grads.iter().collect();
    encode_arrays(&mut payload, &refs);
    write_file_atomic(path, &payload)
}

/// Reads one shard's contribution to one step, checking its stamp and
/// that a nonempty contribution holds one array per parameter, shaped like
/// `params` — so the reduce can trust every file it is given.
fn read_grad(
    path: &Path,
    expect_shard: u64,
    expect_step: u64,
    params: &[NdArray],
) -> Result<Contribution, TrainError> {
    let payload = read_file(path, KIND_SHARD_GRAD)?;
    let mut r = ByteReader::new(&payload);
    let (shard, step, count) = ((r.u64())?, (r.u64())?, (r.u64())?);
    if shard != expect_shard || step != expect_step {
        return Err(TrainError::ShardProtocol(format!(
            "{} is stamped shard {shard} step {step}, expected shard {expect_shard} \
             step {expect_step}",
            path.display()
        )));
    }
    let vals = r.f32_vec(3).map_err(TrainError::Checkpoint)?;
    let grads = decode_arrays(&mut r)?;
    r.finish()?;
    let want = if count == 0 { &[][..] } else { params };
    if grads.len() != want.len() || grads.iter().zip(want).any(|(g, p)| g.shape() != p.shape()) {
        return Err(TrainError::ShardProtocol(format!(
            "{} reports {count} samples with {} gradient arrays; expected {} arrays shaped \
             like the parameters",
            path.display(),
            grads.len(),
            want.len()
        )));
    }
    Ok(Contribution {
        count,
        breakdown: PretextBreakdown { total: vals[0], predictive: vals[1], contrastive: vals[2] },
        grads,
    })
}

/// Runs this process's role in a sharded pre-training run; see the module
/// docs for the protocol. Blocks until the run completes (or a peer goes
/// missing past the timeout). Only the coordinator's return value carries
/// the loss history; other workers return an empty report.
///
/// # Errors
/// [`TrainError`] on an invalid plan/config, a corrupt or inconsistent
/// shard set, a non-finite loss, a protocol violation in the run
/// directory, or a timed-out wait.
pub fn run_shard_worker(cfg: &TimeDrlConfig, plan: &ShardTrainPlan) -> Result<PretrainReport, TrainError> {
    run_shard_worker_with(cfg, plan, |_| {})
}

/// [`run_shard_worker`] with a hook invoked at the start of every
/// optimizer step this worker participates in — the crash-harness seam
/// (`probe shard` aborts the process mid-run from it) and a progress
/// callback for long runs.
pub fn run_shard_worker_with(
    cfg: &TimeDrlConfig,
    plan: &ShardTrainPlan,
    mut on_step: impl FnMut(u64),
) -> Result<PretrainReport, TrainError> {
    plan.check()?;
    cfg.check().map_err(TrainError::InvalidConfig)?;
    if cfg.epochs == 0 {
        return Err(TrainError::InvalidConfig("epochs is 0 — no training planned".into()));
    }
    let ds = ShardedDataset::open(&plan.shard_dir)?;
    let schedule = Schedule::build(&ds, cfg, plan)?;
    std::fs::create_dir_all(&plan.run_dir).map_err(TrainError::Checkpoint)?;

    if plan.worker == 0 {
        run_coordinator(cfg, plan, &ds, &schedule, &mut on_step)
    } else {
        run_follower(cfg, plan, &ds, &schedule, &mut on_step)?;
        Ok(PretrainReport::default())
    }
}

/// Gradients this worker owes for step `s`: one file per owned shard,
/// skipped when the file already exists (atomic rename means an existing
/// file is complete, and determinism means a rewrite would be
/// byte-identical anyway).
fn produce_owned_grads(
    cfg: &TimeDrlConfig,
    plan: &ShardTrainPlan,
    ds: &ShardedDataset,
    schedule: &Schedule,
    s: u64,
    replica: &TimeDrl,
    snapshot: &[NdArray],
) -> Result<(), TrainError> {
    for j in (plan.worker..ds.num_shards()).step_by(plan.n_workers) {
        let path = plan.grad_path(s, j);
        if path.exists() {
            continue;
        }
        let idx = schedule.batch(cfg, s, j)?;
        let g = if idx.is_empty() {
            Contribution { count: 0, breakdown: PretextBreakdown::default(), grads: Vec::new() }
        } else {
            // Materialize only this step's mini-batch (one shard slab
            // resident while gathering, dropped before the gradient is
            // computed) — the whole shard's window tensor never exists.
            let batch = ds.shard_window_batch(j, cfg.input_len, 0, plan.stride, &idx)?.inputs;
            replica_gradient(
                replica,
                snapshot,
                &batch,
                mix_seed(cfg.seed ^ DOMAIN_CTX, s, j as u64),
                mix_seed(cfg.seed ^ DOMAIN_AUG, s, j as u64),
            )
            .map_err(TrainError::Backward)?
        };
        write_grad(&path, j as u64, s, &g).map_err(TrainError::Checkpoint)?;
    }
    Ok(())
}

/// A non-coordinating worker: follow the coordinator's `params_*`
/// progress pointer, contributing gradients for owned shards until the
/// `done` marker appears.
fn run_follower(
    cfg: &TimeDrlConfig,
    plan: &ShardTrainPlan,
    ds: &ShardedDataset,
    schedule: &Schedule,
    on_step: &mut impl FnMut(u64),
) -> Result<(), TrainError> {
    if plan.worker >= ds.num_shards() {
        return Ok(()); // more workers than shards: nothing owned
    }
    let replica = TimeDrl::new(cfg.clone());
    // Resume: the newest published snapshot is where the coordinator
    // needs contributions; everything earlier was already consumed (or
    // survives as byte-identical grad files).
    let mut s = (0..schedule.total_steps)
        .rev()
        .find(|&s| plan.params_path(s).exists())
        .unwrap_or(0);
    while s < schedule.total_steps {
        if plan.done_path().exists() {
            return Ok(());
        }
        on_step(s);
        let params = plan.params_path(s);
        // Poll for either the step's snapshot or the end of the run.
        let mut waited = 0u64;
        loop {
            if params.exists() || plan.done_path().exists() {
                break;
            }
            if waited >= plan.timeout_ms {
                return Err(TrainError::ShardTimeout { waiting_for: params, waited_ms: waited });
            }
            std::thread::sleep(Duration::from_millis(plan.poll_ms));
            waited += plan.poll_ms;
        }
        if !params.exists() {
            return Ok(()); // done appeared first
        }
        let snapshot = read_params(&params).map_err(TrainError::Checkpoint)?;
        produce_owned_grads(cfg, plan, ds, schedule, s, &replica, &snapshot)?;
        s += 1;
    }
    Ok(())
}

/// Worker 0: publish snapshots, contribute its own shards' gradients,
/// reduce everyone's, step the optimizer, snapshot at epoch boundaries.
fn run_coordinator(
    cfg: &TimeDrlConfig,
    plan: &ShardTrainPlan,
    ds: &ShardedDataset,
    schedule: &Schedule,
    on_step: &mut impl FnMut(u64),
) -> Result<PretrainReport, TrainError> {
    let model = TimeDrl::new(cfg.clone());
    let mut opt = AdamW::new(model.parameters(), cfg.lr, cfg.weight_decay);
    let mut report = PretrainReport::default();
    let mut start_step = 0u64;

    if plan.done_path().exists() {
        // A completed run: idempotently return its result.
        model.load(plan.final_model_path()).map_err(TrainError::Checkpoint)?;
        if let Ok(state) = load_training_state(plan.coord_state_path()) {
            report = state.report;
        }
        return Ok(report);
    }
    if plan.coord_state_path().exists() {
        let state = load_training_state(plan.coord_state_path())?;
        restore_state(&mut opt, cfg.epochs, &state)?;
        (report, start_step) = (state.report, state.step);
    }
    // Publish (or byte-identically republish, after a crash) the snapshot
    // for the first step this run will execute.
    let mut params: Vec<NdArray> = model.parameters().iter().map(|p| p.to_array()).collect();
    write_params(&plan.params_path(start_step), &params).map_err(TrainError::Checkpoint)?;

    let replica = TimeDrl::new(cfg.clone());
    let spe = schedule.steps_per_epoch;
    let mut means = EpochMeans::default();
    for s in start_step..schedule.total_steps {
        on_step(s);
        produce_owned_grads(cfg, plan, ds, schedule, s, &replica, &params)?;

        // Ascending shard order is the frozen accumulation order that
        // makes the result independent of worker count.
        let mut parts = Vec::with_capacity(ds.num_shards());
        for j in 0..ds.num_shards() {
            let path = plan.grad_path(s, j);
            plan.wait_for(&path)?;
            parts.push(read_grad(&path, j as u64, s, &params)?);
        }
        if parts.iter().all(|g| g.count == 0) {
            return Err(TrainError::ShardProtocol(format!(
                "step {s}: every shard reported an empty batch"
            )));
        }
        let breakdown = reduce_and_step(&mut opt, StepInput::Replicas(parts)).map_err(|e| {
            let last = plan.coord_state_path().exists().then(|| plan.coord_state_path());
            e.at((s / spe) as usize, s, (s % spe) as usize, last)
        })?;
        means.add(&breakdown);

        params = model.parameters().iter().map(|p| p.to_array()).collect();
        write_params(&plan.params_path(s + 1), &params).map_err(TrainError::Checkpoint)?;

        if (s + 1) % spe == 0 {
            means.close(&mut report);
            let state = capture_state(&opt, (s + 1) / spe, s + 1, [UNUSED_RNG; 3], &report);
            save_training_state(plan.coord_state_path(), &state)?;
            collect_consumed_grads(plan, s + 1)?;
        }
    }
    model.save(plan.final_model_path()).map_err(TrainError::Checkpoint)?;
    // The `done` marker is the one file that is *not* rewritten on
    // resume, so it is plain content behind the same tmp+rename pattern.
    let tmp = plan.run_dir.join("done.tmp");
    std::fs::write(&tmp, b"done\n").map_err(TrainError::Checkpoint)?;
    std::fs::rename(&tmp, plan.done_path()).map_err(TrainError::Checkpoint)?;
    Ok(report)
}

/// Deletes the gradient files of fully consumed epochs so a long run's
/// directory stays bounded by one epoch of gradients (parameter
/// snapshots are kept: they are the followers' resume pointers). A
/// straggler that recomputes a collected gradient merely rewrites
/// identical bytes into a file nobody reads again.
fn collect_consumed_grads(plan: &ShardTrainPlan, next_step: u64) -> Result<(), TrainError> {
    for entry in std::fs::read_dir(&plan.run_dir).map_err(TrainError::Checkpoint)? {
        let entry = entry.map_err(TrainError::Checkpoint)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("grad_") else { continue };
        // The step field is `{s:06}` but *widens* past six digits, so
        // parse up to the `_` separator, never a fixed-width slice.
        let Some(step_str) = rest.split('_').next() else { continue };
        if let Ok(step) = step_str.parse::<u64>() {
            if step < next_step {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use timedrl_data::ShardWriter;

    fn probe_cfg() -> TimeDrlConfig {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.batch_size = 8;
        cfg.epochs = 2;
        cfg.seed = 21;
        cfg
    }

    fn series(t: usize) -> NdArray {
        NdArray::from_fn(&[t, 1], |i| (i as f32 * 0.4).sin() + (i as f32 * 0.05).cos())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("timedrl_coreshard_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_validation_is_typed() {
        let mut plan = ShardTrainPlan::new("/nonexistent", "/nonexistent");
        plan.n_workers = 2;
        plan.worker = 2;
        assert!(matches!(plan.check(), Err(TrainError::InvalidConfig(_))));
        plan.worker = 0;
        plan.stride = 0;
        assert!(matches!(plan.check(), Err(TrainError::InvalidConfig(_))));
    }

    #[test]
    fn schedule_batches_are_process_independent() {
        let dir = tmp("sched");
        ShardWriter::new(64).unwrap().write(&series(200), dir.join("shards")).unwrap();
        let ds = ShardedDataset::open(dir.join("shards")).unwrap();
        let cfg = probe_cfg();
        let mut plan = ShardTrainPlan::new(dir.join("shards"), dir.join("run"));
        plan.stride = 4;
        let sched = Schedule::build(&ds, &cfg, &plan).unwrap();
        // Recomputing any step's batch gives the same indices.
        for s in 0..sched.total_steps {
            for j in 0..ds.num_shards() {
                assert_eq!(
                    sched.batch(&cfg, s, j).unwrap(),
                    sched.batch(&cfg, s, j).unwrap()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_worker_run_trains_and_is_reproducible() {
        let dir = tmp("single");
        ShardWriter::new(64).unwrap().write(&series(200), dir.join("shards")).unwrap();
        let cfg = probe_cfg();
        let mut plan = ShardTrainPlan::new(dir.join("shards"), dir.join("run_a"));
        plan.stride = 4;
        let report = run_shard_worker(&cfg, &plan).unwrap();
        assert_eq!(report.total.len(), cfg.epochs);
        let mut plan_b = plan.clone();
        plan_b.run_dir = dir.join("run_b");
        let report_b = run_shard_worker(&cfg, &plan_b).unwrap();
        assert_eq!(report.total, report_b.total);
        let a = std::fs::read(dir.join("run_a/model_final.tdrl")).unwrap();
        let b = std::fs::read(dir.join("run_b/model_final.tdrl")).unwrap();
        assert_eq!(a, b, "two identical single-worker runs diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rerunning_a_finished_run_is_idempotent() {
        let dir = tmp("idem");
        ShardWriter::new(64).unwrap().write(&series(150), dir.join("shards")).unwrap();
        let cfg = probe_cfg();
        let mut plan = ShardTrainPlan::new(dir.join("shards"), dir.join("run"));
        plan.stride = 4;
        let first = run_shard_worker(&cfg, &plan).unwrap();
        let before = std::fs::read(dir.join("run/model_final.tdrl")).unwrap();
        let again = run_shard_worker(&cfg, &plan).unwrap();
        assert_eq!(first.total, again.total);
        let after = std::fs::read(dir.join("run/model_final.tdrl")).unwrap();
        assert_eq!(before, after);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nan_sample_aborts_the_first_step_without_publishing_parameters() {
        let dir = tmp("nan");
        // A NaN every 16 rows: every 32-row window, hence every batch, holds one.
        let mut s = series(200);
        for row in (0..200).step_by(16) {
            s.data_mut()[row] = f32::NAN;
        }
        ShardWriter::new(64).unwrap().write(&s, dir.join("shards")).unwrap();
        let cfg = probe_cfg();
        let mut plan = ShardTrainPlan::new(dir.join("shards"), dir.join("run"));
        plan.stride = 4;
        match run_shard_worker(&cfg, &plan) {
            Err(TrainError::NonFiniteLoss {
                epoch: 0,
                step: 0,
                batch: 0,
                loss,
                last_checkpoint: None,
            }) => assert!(!loss.is_finite(), "{loss}"),
            other => panic!("expected NonFiniteLoss at step 0, got {other:?}"),
        }
        // The step-0 snapshot is the seeded model; no post-step parameters
        // or state were ever published.
        let seeded: Vec<NdArray> =
            TimeDrl::new(cfg.clone()).parameters().iter().map(|p| p.to_array()).collect();
        assert_eq!(read_params(&plan.params_path(0)).unwrap(), seeded);
        assert!(!plan.params_path(1).exists(), "a poisoned step was published");
        assert!(!plan.coord_state_path().exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grad_file_with_wrong_arrays_is_a_protocol_error() {
        let dir = tmp("badgrad");
        let params = vec![NdArray::zeros(&[2, 3]), NdArray::zeros(&[4])];
        let breakdown = PretextBreakdown { total: 1.0, predictive: 1.0, contrastive: 0.0 };
        let path = dir.join("grad.tdrl");
        let too_few = vec![NdArray::zeros(&[2, 3])];
        let misshaped = vec![NdArray::zeros(&[2, 3]), NdArray::zeros(&[5])];
        for grads in [too_few, misshaped] {
            write_grad(&path, 0, 0, &Contribution { count: 4, breakdown, grads }).unwrap();
            let err = read_grad(&path, 0, 0, &params).err().expect("mismatched grad file accepted");
            assert!(matches!(err, TrainError::ShardProtocol(_)), "{err}");
        }
        let good = Contribution { count: 4, breakdown, grads: params.clone() };
        write_grad(&path, 0, 0, &good).unwrap();
        assert_eq!(read_grad(&path, 0, 0, &params).unwrap().grads, params);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grad_collection_handles_steps_wider_than_six_digits() {
        let dir = tmp("gc_wide");
        let plan = ShardTrainPlan::new(dir.join("shards"), dir.clone());
        // `{s:06}` widens at one million steps; a fixed 6-char parse read
        // grad_1000000_* as step 100000 and deleted it before use.
        std::fs::write(plan.grad_path(999_999, 0), b"x").unwrap();
        std::fs::write(plan.grad_path(1_000_000, 0), b"x").unwrap();
        collect_consumed_grads(&plan, 1_000_000).unwrap();
        assert!(!plan.grad_path(999_999, 0).exists(), "consumed grad kept");
        assert!(plan.grad_path(1_000_000, 0).exists(), "live grad deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn channel_mismatch_is_an_invalid_config() {
        let dir = tmp("chan");
        let s = NdArray::from_fn(&[80, 3], |i| i as f32 * 0.01);
        ShardWriter::new(32).unwrap().write(&s, dir.join("shards")).unwrap();
        let cfg = probe_cfg(); // n_features == 1
        let plan = ShardTrainPlan::new(dir.join("shards"), dir.join("run"));
        let err = run_shard_worker(&cfg, &plan).unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
