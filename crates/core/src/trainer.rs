//! The self-supervised pre-training loop (Fig. 3a) and the one
//! optimizer-step engine every training path ends in.
//!
//! Three paths produce gradients:
//!
//! * whole-batch (`micro_batch: None`, [`train_step`]) — one forward on
//!   the caller's model; the loss stays on the autograd tape;
//! * micro-batch (`micro_batch: Some(m)`) — the batch splits into
//!   micro-batches of `m` samples that run on *independent model replicas*
//!   fanned out over `testkit::pool`, each with dropout/augmentation
//!   streams seeded from `(cfg.seed, step, micro-batch index)`;
//! * sharded ([`crate::shard`]) — one replica gradient per shard, computed
//!   by worker processes and read back from gradient files.
//!
//! All three finish in `reduce_and_step`. Replica gradients arrive as
//! `Contribution`s and are reduced as `Σ_j (count_j / Σ count) · g_j` in
//! ascending `j` on the calling thread (the coordinator, for shards), so
//! the floating-point accumulation order never depends on thread or
//! worker count. Then the NaN guard, gradient install (tape backward, or
//! seeding each parameter with its reduced gradient), global-norm clipping
//! at 5.0 and one AdamW step. A pretext other than TimeDRL's would change
//! how a step's loss or contributions are made, never this tail.
//!
//! The autograd graph (`Var`) is `Rc`-based and deliberately not `Send`;
//! replicas are built inside each worker and loaded from a parameter
//! snapshot, which is what keeps the parallel paths safe without locks.
//!
//! # Fault tolerance (DESIGN.md §11)
//!
//! The loop is panic-free: every failure — bad config, malformed or empty
//! data, a non-finite loss, a checkpoint I/O problem — surfaces as a typed
//! [`TrainError`]. With `checkpoint_every`/`checkpoint_path` set, a full
//! [`TrainingState`] snapshot is written
//! atomically at the configured epoch cadence; `resume_from` restores one
//! and replays the remaining epochs *bit-exactly* — the resumed run's
//! final checkpoint is byte-identical to an uninterrupted run's, at any
//! `TIMEDRL_THREADS`. A NaN/inf loss aborts the optimizer step before the
//! poisoned gradients are applied, so the last snapshot on disk stays a
//! loadable last-good state.

use crate::checkpoint::{load_training_state, save_training_state, TrainingState};
use crate::config::TimeDrlConfig;
use crate::error::TrainError;
use crate::model::TimeDrl;
use crate::pretext::{pretext_loss, PretextBreakdown};
use std::path::PathBuf;
use testkit::pool;
use timedrl_data::BatchIndices;
use timedrl_nn::{clip_grad_norm, AdamW, Ctx, Module, Optimizer};
use timedrl_tensor::{NdArray, Prng, TensorError, Var};

/// Per-epoch history of a pre-training run.
#[derive(Debug, Clone, Default)]
pub struct PretrainReport {
    /// Mean joint loss per epoch.
    pub total: Vec<f32>,
    /// Mean predictive loss per epoch.
    pub predictive: Vec<f32>,
    /// Mean contrastive loss per epoch.
    pub contrastive: Vec<f32>,
    /// Validation joint loss per epoch (only when pre-training with a
    /// validation set; empty otherwise).
    pub validation: Vec<f32>,
}

impl PretrainReport {
    /// Final-epoch joint loss, or `None` for a report with no completed
    /// epochs. (Total by construction — the old `expect`-based accessor
    /// aborted zero-epoch runs.)
    pub fn final_loss(&self) -> Option<f32> {
        self.total.last().copied()
    }

    /// Epoch index with the lowest validation loss, if tracked.
    pub fn best_validation_epoch(&self) -> Option<usize> {
        self.validation
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    }
}

/// Pre-trains `model` on unlabeled windows `[N, T, C]` with AdamW, exactly
/// the Siamese two-pass protocol of Fig. 3a. Returns the loss history.
///
/// The caller applies channel-independence (if configured) *before* calling
/// this: windows must already match the model's `n_features`.
///
/// # Errors
/// [`TrainError`] on an invalid training plan, windows that are empty or
/// not `[N, input_len, n_features]`, a non-finite loss (the step is
/// aborted first), or a checkpoint failure.
pub fn pretrain(model: &TimeDrl, windows: &NdArray) -> Result<PretrainReport, TrainError> {
    pretrain_impl(model, windows, None)
}

/// Like [`pretrain`], additionally evaluating the pretext loss on
/// `val_windows` at the end of every epoch (the paper's 60/20/20 split
/// reserves 20% for validation). Validation uses a fixed dropout stream
/// per epoch so the two-view loss is comparable across epochs, and takes
/// no gradient steps.
///
/// # Errors
/// Same failure modes as [`pretrain`]; `val_windows` is shape-checked
/// before the first step.
pub fn pretrain_with_validation(
    model: &TimeDrl,
    windows: &NdArray,
    val_windows: &NdArray,
) -> Result<PretrainReport, TrainError> {
    pretrain_impl(model, windows, Some(val_windows))
}

/// Rejects anything but `[N, input_len, n_features]` windows, on which the
/// model's forward would panic.
fn check_windows(cfg: &TimeDrlConfig, x: &NdArray) -> Result<(), TrainError> {
    match x.shape() {
        [_, t, c] if *t == cfg.input_len && *c == cfg.n_features => Ok(()),
        got => Err(TrainError::BadWindows {
            expected: "[N, input_len, n_features]",
            got: got.to_vec(),
        }),
    }
}

fn pretrain_impl(
    model: &TimeDrl,
    windows: &NdArray,
    val_windows: Option<&NdArray>,
) -> Result<PretrainReport, TrainError> {
    let cfg = model.config().clone();
    cfg.check().map_err(TrainError::InvalidConfig)?;
    if cfg.epochs == 0 {
        return Err(TrainError::InvalidConfig("epochs is 0 — no training planned".into()));
    }
    check_windows(&cfg, windows)?;
    if let Some(val) = val_windows {
        check_windows(&cfg, val)?;
    }
    if windows.shape()[0] == 0 {
        return Err(TrainError::EmptyTrainingSet);
    }
    let mut opt = AdamW::new(model.parameters(), cfg.lr, cfg.weight_decay);
    let mut epoch_rng = Prng::new(cfg.seed ^ 0x5eed_0001);
    let mut ctx = Ctx::train(cfg.seed ^ 0x5eed_0002);
    let mut aug_rng = Prng::new(cfg.seed ^ 0x5eed_0003);
    let n = windows.shape()[0];

    let mut report = PretrainReport::default();
    let mut step = 0u64;
    let mut start_epoch = 0usize;
    let mut last_checkpoint: Option<PathBuf> = None;

    if let Some(path) = &cfg.resume_from {
        let state = load_training_state(path)?;
        [epoch_rng, ctx.rng, aug_rng] = restore_state(&mut opt, cfg.epochs, &state)?;
        (report, step, start_epoch) = (state.report, state.step, state.next_epoch as usize);
        last_checkpoint = Some(path.clone());
    }

    for epoch in start_epoch..cfg.epochs {
        let mut means = EpochMeans::default();
        let batch_iter = BatchIndices::new(n, cfg.batch_size, Some(&mut epoch_rng))
            .map_err(|e| TrainError::InvalidConfig(e.to_string()))?;
        for idx in batch_iter {
            let breakdown = match cfg.micro_batch {
                Some(m) => micro_batch_step(&cfg, windows, &idx, m, step, &mut opt),
                None => {
                    let batch = gather_rows(windows, &idx);
                    train_step(model, &mut opt, &batch, &mut ctx, &mut aug_rng)
                }
            }
            .map_err(|e| e.at(epoch, step, means.batches, last_checkpoint.clone()))?;
            means.add(&breakdown);
            step += 1;
        }
        means.close(&mut report);

        if let Some(val) = val_windows {
            // Fixed seed per evaluation: the dropout views (which the
            // contrastive term needs) are identical across epochs, so the
            // validation series is comparable.
            let mut val_ctx = Ctx::train(cfg.seed ^ 0x5eed_0004);
            let mut val_aug = Prng::new(cfg.seed ^ 0x5eed_0005);
            let mut sum = 0.0f64;
            let mut count = 0usize;
            let val_iter = BatchIndices::new(val.shape()[0], cfg.batch_size, None)
                .map_err(|e| TrainError::InvalidConfig(e.to_string()))?;
            for idx in val_iter {
                let batch = gather_rows(val, &idx);
                let (_, breakdown) = pretext_loss(model, &batch, &mut val_ctx, &mut val_aug);
                sum += breakdown.total as f64;
                count += 1;
            }
            report.validation.push((sum / count.max(1) as f64) as f32);
        }

        if let (Some(every), Some(path)) = (cfg.checkpoint_every, &cfg.checkpoint_path) {
            if (epoch + 1) % every == 0 {
                let rngs = [epoch_rng.state(), ctx.rng.state(), aug_rng.state()];
                let state = capture_state(&opt, (epoch + 1) as u64, step, rngs, &report);
                save_training_state(path, &state)?;
                last_checkpoint = Some(path.clone());
            }
        }
    }
    Ok(report)
}

/// Running sums of one epoch's per-step loss breakdowns.
#[derive(Default)]
pub(crate) struct EpochMeans {
    sums: [f64; 3],
    /// Steps added so far this epoch.
    batches: usize,
}

impl EpochMeans {
    pub(crate) fn add(&mut self, b: &PretextBreakdown) {
        for (sum, v) in self.sums.iter_mut().zip([b.total, b.predictive, b.contrastive]) {
            *sum += v as f64;
        }
        self.batches += 1;
    }

    /// Appends this epoch's means to `report` — nothing for an epoch that
    /// ran no steps, so the report never holds NaN placeholders — and
    /// starts the next epoch.
    pub(crate) fn close(&mut self, report: &mut PretrainReport) {
        if self.batches > 0 {
            let b = self.batches as f64;
            report.total.push((self.sums[0] / b) as f32);
            report.predictive.push((self.sums[1] / b) as f32);
            report.contrastive.push((self.sums[2] / b) as f32);
        }
        *self = Self::default();
    }
}

/// RNG-state slots of a snapshot whose run re-derives all randomness from
/// its schedule (the sharded coordinator). The loader rejects all-zero
/// xoshiro256++ states, so this fixed nonzero state fills them.
pub(crate) const UNUSED_RNG: [u64; 4] = [1, 2, 3, 4];

/// Snapshots the loop state as of the end of epoch `next_epoch - 1` —
/// everything [`restore_state`] needs to continue bit-exactly. `rngs` are
/// the batch-order, dropout and augmentation stream states, in that order.
pub(crate) fn capture_state(
    opt: &AdamW,
    next_epoch: u64,
    step: u64,
    rngs: [[u64; 4]; 3],
    report: &PretrainReport,
) -> TrainingState {
    let [epoch_rng, ctx_rng, aug_rng] = rngs;
    TrainingState {
        params: opt.parameters().iter().map(Var::to_array).collect(),
        opt: opt.export_state(),
        next_epoch,
        step,
        epoch_rng,
        ctx_rng,
        aug_rng,
        report: report.clone(),
    }
}

/// Validates a loaded snapshot against the optimizer's parameters and an
/// `epochs`-epoch plan, then installs its parameters and optimizer state.
/// Nothing is installed unless every check passes. Returns the snapshot's
/// batch-order, dropout and augmentation streams, in that order.
pub(crate) fn restore_state(
    opt: &mut AdamW,
    epochs: usize,
    state: &TrainingState,
) -> Result<[Prng; 3], TrainError> {
    let params = opt.parameters();
    if state.params.len() != params.len() {
        return Err(TrainError::ResumeMismatch(format!(
            "checkpoint has {} parameters, model has {}",
            state.params.len(),
            params.len()
        )));
    }
    for (i, (p, a)) in params.iter().zip(&state.params).enumerate() {
        if p.shape() != a.shape() {
            return Err(TrainError::ResumeMismatch(format!(
                "parameter {i}: model shape {:?} vs checkpoint {:?}",
                p.shape(),
                a.shape()
            )));
        }
    }
    if state.next_epoch > epochs as u64 {
        return Err(TrainError::ResumeMismatch(format!(
            "checkpoint is at epoch {} of a {epochs}-epoch plan",
            state.next_epoch
        )));
    }
    let rng = |s| Prng::from_state(s).map_err(|e| TrainError::ResumeMismatch(e.into()));
    let rngs = [rng(state.epoch_rng)?, rng(state.ctx_rng)?, rng(state.aug_rng)?];
    opt.import_state(state.opt.clone()).map_err(TrainError::ResumeMismatch)?;
    for (p, a) in opt.parameters().iter().zip(&state.params) {
        p.set_value(a.clone());
    }
    Ok(rngs)
}

/// Why an optimizer step was aborted. Either way `AdamW::step` never ran,
/// so the parameters hold their pre-step values.
#[derive(Debug)]
pub enum StepError {
    /// The step's (reduced) joint loss was NaN/±inf.
    NonFinite(f32),
    /// A backward rule failed with a typed tensor error.
    Backward(TensorError),
}

impl StepError {
    /// The run-level error for a step aborted at global step `step`, batch
    /// `batch` of epoch `epoch`.
    pub(crate) fn at(
        self,
        epoch: usize,
        step: u64,
        batch: usize,
        last_checkpoint: Option<PathBuf>,
    ) -> TrainError {
        match self {
            StepError::NonFinite(loss) => {
                TrainError::NonFiniteLoss { epoch, step, batch, loss, last_checkpoint }
            }
            StepError::Backward(e) => TrainError::Backward(e),
        }
    }
}

/// One replica's share of an optimizer step: its sample count, its loss
/// breakdown, and its gradients in `parameters()` order (no arrays when
/// `count` is 0).
pub(crate) struct Contribution {
    pub(crate) count: u64,
    pub(crate) breakdown: PretextBreakdown,
    pub(crate) grads: Vec<NdArray>,
}

/// What [`reduce_and_step`] applies.
pub(crate) enum StepInput {
    /// A loss on the live model's tape, built after `opt.zero_grad()`.
    Tape(Var, PretextBreakdown),
    /// Replica contributions in reduction order, with a nonzero count
    /// total and one array per parameter in each nonempty contribution.
    Replicas(Vec<Contribution>),
}

/// The step tail every training path shares: reduce replica gradients,
/// guard against a non-finite loss, install the gradients, clip their
/// global norm at 5.0 and take one AdamW step. Returns the step's loss
/// breakdown (count-weighted, for replicas).
pub(crate) fn reduce_and_step(
    opt: &mut AdamW,
    input: StepInput,
) -> Result<PretextBreakdown, StepError> {
    let (reduced, breakdown) = match &input {
        StepInput::Tape(_, breakdown) => (Vec::new(), *breakdown),
        StepInput::Replicas(parts) => reduce(opt.parameters(), parts),
    };
    if !breakdown.total.is_finite() {
        return Err(StepError::NonFinite(breakdown.total));
    }
    match input {
        StepInput::Tape(loss, _) => loss.try_backward(),
        StepInput::Replicas(_) => {
            opt.zero_grad();
            opt.parameters().iter().zip(reduced).try_for_each(|(p, g)| p.try_backward_with(g))
        }
    }
    .map_err(StepError::Backward)?;
    clip_grad_norm(opt.parameters(), 5.0);
    opt.step();
    Ok(breakdown)
}

/// `Σ_j (count_j / Σ count) · g_j` over `parts` in ascending `j`, and the
/// loss breakdown under the same weights. The fixed order and weights make
/// the result independent of which thread or process produced each part.
fn reduce(params: &[Var], parts: &[Contribution]) -> (Vec<NdArray>, PretextBreakdown) {
    let total: u64 = parts.iter().map(|c| c.count).sum();
    let mut reduced: Vec<NdArray> = params.iter().map(|p| NdArray::zeros(&p.shape())).collect();
    let mut agg = PretextBreakdown::default();
    for part in parts.iter().filter(|c| c.count > 0) {
        let w = part.count as f32 / total as f32;
        for (acc, g) in reduced.iter_mut().zip(&part.grads) {
            for (a, &gv) in acc.data_mut().iter_mut().zip(g.data()) {
                *a += gv * w;
            }
        }
        agg.total += w * part.breakdown.total;
        agg.predictive += w * part.breakdown.predictive;
        agg.contrastive += w * part.breakdown.contrastive;
    }
    (reduced, agg)
}

/// One whole-batch optimizer step on `model`, whose parameters `opt`
/// holds: the Siamese pretext forward on `batch`, then the shared step
/// tail. This is the step [`pretrain`] runs when `micro_batch` is `None`.
///
/// # Errors
/// [`StepError`] when the loss is non-finite or a backward rule fails; the
/// optimizer step is skipped and the parameters keep their values.
pub fn train_step(
    model: &TimeDrl,
    opt: &mut AdamW,
    batch: &NdArray,
    ctx: &mut Ctx,
    aug_rng: &mut Prng,
) -> Result<PretextBreakdown, StepError> {
    opt.zero_grad();
    let (loss, breakdown) = pretext_loss(model, batch, ctx, aug_rng);
    reduce_and_step(opt, StepInput::Tape(loss, breakdown))
}

/// One data-parallel optimizer step: fan the batch out as micro-batches on
/// model replicas, then reduce and step once.
///
/// Micro-batch `j` of optimizer step `step` draws dropout and augmentation
/// randomness from seeds mixed from `(cfg.seed, step, j)` — a function of
/// the *schedule position only*, never of which worker ran it. With the
/// ascending-`j` reduce that makes the update bit-identical at any
/// `TIMEDRL_THREADS`. Each pool task builds its own replica because `Var`
/// is not `Send`; the replicas' BatchNorm running statistics are dropped
/// with them, matching what [`TimeDrl::save`] checkpoints.
fn micro_batch_step(
    cfg: &TimeDrlConfig,
    windows: &NdArray,
    idx: &[usize],
    micro: usize,
    step: u64,
    opt: &mut AdamW,
) -> Result<PretextBreakdown, StepError> {
    let snapshot: Vec<NdArray> = opt.parameters().iter().map(Var::to_array).collect();
    let chunks: Vec<&[usize]> = idx.chunks(micro).collect();
    let parts = pool::map_indexed(&chunks, |j, chunk| {
        replica_gradient(
            &TimeDrl::new(cfg.clone()),
            &snapshot,
            &gather_rows(windows, chunk),
            mix_seed(cfg.seed ^ 0x5eed_0002, step, j as u64),
            mix_seed(cfg.seed ^ 0x5eed_0003, step, j as u64),
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map_err(StepError::Backward)?;
    reduce_and_step(opt, StepInput::Replicas(parts))
}

/// Loads `snapshot` into `replica`, clears its gradients, runs one pretext
/// forward/backward on `batch`, and returns the gradients in stable
/// `parameters()` order with the batch's sample count and loss breakdown.
///
/// The result is a pure function of `(snapshot, batch, ctx_seed, aug_seed)`
/// — never of which thread or *process* ran the replica, nor of what it
/// computed before: every parameter value and gradient is overwritten, and
/// its only other state, BatchNorm running statistics, does not enter a
/// training-mode forward. The micro-batch path and the multi-process shard
/// workers ([`crate::shard`]) both lean on this for their bit-identical
/// reductions.
pub(crate) fn replica_gradient(
    replica: &TimeDrl,
    snapshot: &[NdArray],
    batch: &NdArray,
    ctx_seed: u64,
    aug_seed: u64,
) -> Result<Contribution, TensorError> {
    let params = replica.parameters();
    for (p, v) in params.iter().zip(snapshot) {
        p.set_value(v.clone());
        p.zero_grad();
    }
    let mut ctx = Ctx::train(ctx_seed);
    let mut aug = Prng::new(aug_seed);
    let (loss, breakdown) = pretext_loss(replica, batch, &mut ctx, &mut aug);
    loss.try_backward()?;
    let grads = params
        .iter()
        .map(|p| p.grad().unwrap_or_else(|| NdArray::zeros(&p.shape())))
        .collect();
    Ok(Contribution { count: batch.shape()[0] as u64, breakdown, grads })
}

/// SplitMix64-style seed mixer: decorrelates the per-micro-batch RNG
/// streams from `(base seed, optimizer step, micro-batch index)` without
/// any shared mutable state.
pub(crate) fn mix_seed(base: u64, step: u64, j: u64) -> u64 {
    let mut z = base
        ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ j.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Gathers rows of a `[N, T, C]` tensor into a `[B, T, C]` batch.
///
/// # Panics
/// With a message naming the offending index and the window count if any
/// index is out of range, or if `x` is not rank 3 — instead of the raw
/// slice-bounds abort this used to produce.
pub fn gather_rows(x: &NdArray, indices: &[usize]) -> NdArray {
    assert_eq!(
        x.rank(),
        3,
        "gather_rows expects a [N, T, C] tensor, got shape {:?}",
        x.shape()
    );
    let n = x.shape()[0];
    let (t, c) = (x.shape()[1], x.shape()[2]);
    let row = t * c;
    let mut data = Vec::with_capacity(indices.len() * row);
    for &i in indices {
        assert!(i < n, "gather_rows: index {i} out of range for {n} windows");
        data.extend_from_slice(&x.data()[i * row..(i + 1) * row]);
    }
    NdArray::from_vec(&[indices.len(), t, c], data).expect("batch shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimeDrlConfig;

    fn tiny_model(seed: u64) -> TimeDrl {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 3;
        cfg.batch_size = 8;
        cfg.seed = seed;
        TimeDrl::new(cfg)
    }

    /// Windows with learnable structure: noisy sinusoids.
    fn structured_windows(n: usize, t: usize, seed: u64) -> NdArray {
        let mut rng = Prng::new(seed);
        NdArray::from_fn(&[n, t, 1], |flat| {
            let i = flat / t;
            let step = flat % t;
            let phase = i as f32 * 0.3;
            (step as f32 * 0.4 + phase).sin() + rng.normal_with(0.0, 0.1)
        })
    }

    #[test]
    fn loss_decreases_over_training() {
        let m = tiny_model(0);
        let windows = structured_windows(48, 32, 1);
        let report = pretrain(&m, &windows).unwrap();
        assert_eq!(report.total.len(), 3);
        assert!(
            report.final_loss().unwrap() < report.total[0],
            "loss must decrease: {:?}",
            report.total
        );
    }

    #[test]
    fn predictive_component_decreases() {
        let m = tiny_model(1);
        let windows = structured_windows(48, 32, 2);
        let report = pretrain(&m, &windows).unwrap();
        assert!(report.predictive.last().unwrap() < &report.predictive[0]);
    }

    #[test]
    fn no_embedding_collapse_with_stop_gradient() {
        // After pre-training, instance embeddings of different inputs must
        // remain distinct (std across batch > 0): the SimSiam asymmetry
        // prevents the trivial constant solution.
        let m = tiny_model(2);
        let windows = structured_windows(48, 32, 3);
        pretrain(&m, &windows).unwrap();
        let z = m.embed_instances(&windows);
        let std = z.var_axis(0, false).mean().sqrt();
        assert!(std > 1e-3, "embedding std {std} indicates collapse");
    }

    #[test]
    fn training_is_reproducible_per_seed() {
        let w = structured_windows(24, 32, 4);
        let r1 = pretrain(&tiny_model(7), &w).unwrap();
        let r2 = pretrain(&tiny_model(7), &w).unwrap();
        assert_eq!(r1.total, r2.total);
    }

    #[test]
    fn micro_batch_training_decreases_loss() {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 3;
        cfg.batch_size = 8;
        cfg.micro_batch = Some(3);
        let m = TimeDrl::new(cfg);
        let windows = structured_windows(24, 32, 5);
        let report = pretrain(&m, &windows).unwrap();
        assert!(report.final_loss().unwrap() < report.total[0], "loss: {:?}", report.total);
    }

    #[test]
    fn bad_windows_and_empty_sets_are_typed_errors() {
        let m = tiny_model(3);
        let rank2 = NdArray::from_fn(&[4, 32], |i| i as f32);
        assert!(matches!(
            pretrain(&m, &rank2),
            Err(TrainError::BadWindows { .. })
        ));
        let empty = NdArray::zeros(&[0, 32, 1]);
        assert!(matches!(pretrain(&m, &empty), Err(TrainError::EmptyTrainingSet)));
    }

    fn snapshot(m: &TimeDrl) -> Vec<NdArray> {
        m.parameters().iter().map(Var::to_array).collect()
    }

    #[test]
    fn windows_not_matching_the_model_are_rejected_before_any_step() {
        let m = tiny_model(4); // input_len 32, n_features 1
        let before = snapshot(&m);
        let bad_window = |r: Result<PretrainReport, TrainError>, got: &[usize]| match r {
            Err(TrainError::BadWindows { got: g, .. }) => assert_eq!(g, got),
            other => panic!("expected BadWindows {got:?}, got {other:?}"),
        };
        bad_window(pretrain(&m, &NdArray::zeros(&[8, 40, 1])), &[8, 40, 1]);
        bad_window(pretrain(&m, &NdArray::zeros(&[8, 32, 3])), &[8, 32, 3]);
        let train = structured_windows(16, 32, 11);
        let rank2_val = NdArray::zeros(&[4, 32]);
        bad_window(pretrain_with_validation(&m, &train, &rank2_val), &[4, 32]);
        assert_eq!(before, snapshot(&m), "a rejected run must not touch the parameters");
    }

    /// A NaN sample poisons the first step's loss on either in-process
    /// path; the step is refused before any gradient is applied.
    #[test]
    fn nan_sample_aborts_the_first_step_on_both_in_process_paths() {
        for micro_batch in [None, Some(3)] {
            let mut cfg = TimeDrlConfig::forecasting(32);
            cfg.d_model = 16;
            cfg.d_ff = 32;
            cfg.n_heads = 2;
            cfg.batch_size = 8;
            cfg.micro_batch = micro_batch;
            let m = TimeDrl::new(cfg);
            let mut windows = structured_windows(8, 32, 12);
            windows.data_mut()[5 * 32 + 7] = f32::NAN;
            let before = snapshot(&m);
            match pretrain(&m, &windows) {
                Err(TrainError::NonFiniteLoss {
                    epoch: 0,
                    step: 0,
                    batch: 0,
                    loss,
                    last_checkpoint: None,
                }) => assert!(!loss.is_finite(), "{micro_batch:?}: {loss}"),
                other => panic!("{micro_batch:?}: expected NonFiniteLoss at step 0, got {other:?}"),
            }
            assert_eq!(before, snapshot(&m), "{micro_batch:?}: poisoned step changed parameters");
        }
    }

    #[test]
    fn zero_epoch_plan_is_an_invalid_config_not_a_panic() {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 0;
        let m = TimeDrl::new(cfg);
        let windows = structured_windows(8, 32, 9);
        let err = pretrain(&m, &windows).unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
        // And the empty report stays total: no panic, no NaN.
        assert_eq!(PretrainReport::default().final_loss(), None);
    }

    #[test]
    #[should_panic(expected = "index 5 out of range for 3 windows")]
    fn gather_rows_names_the_bad_index() {
        let x = NdArray::from_fn(&[3, 2, 2], |i| i as f32);
        gather_rows(&x, &[5]);
    }

    #[test]
    fn resume_matches_uninterrupted_run_bit_for_bit() {
        let dir = std::env::temp_dir().join("timedrl_trainer_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state.tdrl");
        let windows = structured_windows(24, 32, 8);
        let base = || {
            let mut cfg = TimeDrlConfig::forecasting(32);
            cfg.d_model = 16;
            cfg.d_ff = 32;
            cfg.n_heads = 2;
            cfg.batch_size = 8;
            cfg.seed = 13;
            cfg
        };

        // Uninterrupted: 4 epochs straight.
        let mut cfg = base();
        cfg.epochs = 4;
        let straight = TimeDrl::new(cfg);
        let straight_report = pretrain(&straight, &windows).unwrap();

        // Interrupted: 2 epochs + snapshot, then a fresh process resumes.
        let mut cfg = base();
        cfg.epochs = 2;
        cfg.checkpoint_every = Some(2);
        cfg.checkpoint_path = Some(ckpt.clone());
        pretrain(&TimeDrl::new(cfg), &windows).unwrap();

        let mut cfg = base();
        cfg.epochs = 4;
        cfg.resume_from = Some(ckpt.clone());
        let resumed = TimeDrl::new(cfg);
        let resumed_report = pretrain(&resumed, &windows).unwrap();

        assert_eq!(straight_report.total, resumed_report.total);
        let a: Vec<_> = straight.parameters().iter().map(|p| p.to_array()).collect();
        let b: Vec<_> = resumed.parameters().iter().map(|p| p.to_array()).collect();
        assert_eq!(a, b, "resumed parameters diverged from the straight run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_model() {
        let dir = std::env::temp_dir().join("timedrl_trainer_resume_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state.tdrl");
        let windows = structured_windows(16, 32, 10);
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 1;
        cfg.batch_size = 8;
        cfg.checkpoint_every = Some(1);
        cfg.checkpoint_path = Some(ckpt.clone());
        pretrain(&TimeDrl::new(cfg), &windows).unwrap();

        // A differently-sized model must refuse the snapshot.
        let mut other = TimeDrlConfig::forecasting(32);
        other.d_model = 32;
        other.d_ff = 64;
        other.n_heads = 4;
        other.epochs = 2;
        other.resume_from = Some(ckpt.clone());
        let err = pretrain(&TimeDrl::new(other), &windows).unwrap_err();
        assert!(matches!(err, TrainError::ResumeMismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn micro_batch_training_is_thread_count_invariant() {
        let make = || {
            let mut cfg = TimeDrlConfig::forecasting(32);
            cfg.d_model = 16;
            cfg.d_ff = 32;
            cfg.n_heads = 2;
            cfg.epochs = 2;
            cfg.batch_size = 8;
            cfg.seed = 11;
            cfg.micro_batch = Some(3);
            TimeDrl::new(cfg)
        };
        let windows = structured_windows(12, 32, 6);
        let run = |threads: usize| {
            testkit::pool::with_threads(threads, || {
                let m = make();
                let report = pretrain(&m, &windows).unwrap();
                let params: Vec<_> = m.parameters().iter().map(|p| p.to_array()).collect();
                (report.total, params)
            })
        };
        let (loss1, params1) = run(1);
        for threads in [2usize, 4] {
            let (loss_n, params_n) = run(threads);
            assert_eq!(loss1, loss_n, "loss history diverged at {threads} threads");
            assert_eq!(params1, params_n, "parameters diverged at {threads} threads");
        }
    }

    #[test]
    fn gather_rows_layout() {
        let x = NdArray::from_fn(&[3, 2, 2], |i| i as f32);
        let b = gather_rows(&x, &[2, 0]);
        assert_eq!(b.shape(), &[2, 2, 2]);
        assert_eq!(b.at(&[0, 0, 0]), 8.0);
        assert_eq!(b.at(&[1, 0, 0]), 0.0);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use crate::config::TimeDrlConfig;

    fn windows(n: usize, seed: u64) -> NdArray {
        let mut rng = Prng::new(seed);
        NdArray::from_fn(&[n, 32, 1], |flat| {
            ((flat % 32) as f32 * 0.4).sin() + rng.normal_with(0.0, 0.1)
        })
    }

    #[test]
    fn validation_loss_is_tracked_and_decreases() {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 4;
        let model = crate::model::TimeDrl::new(cfg);
        let report = pretrain_with_validation(&model, &windows(48, 0), &windows(16, 1)).unwrap();
        assert_eq!(report.validation.len(), 4);
        assert!(report.validation.last().unwrap() < &report.validation[0]);
        assert!(report.best_validation_epoch().is_some());
    }

    #[test]
    fn plain_pretrain_has_no_validation_series() {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 1;
        let model = crate::model::TimeDrl::new(cfg);
        let report = pretrain(&model, &windows(16, 2)).unwrap();
        assert!(report.validation.is_empty());
        assert!(report.best_validation_epoch().is_none());
    }
}
