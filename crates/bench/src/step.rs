//! Shared harness for measuring one whole-batch pre-training step: the
//! hot path the buffer-pool and microkernel work targets (DESIGN.md §10).
//!
//! Both the `step_train` bench (wall-clock + allocations → BENCH_step.json)
//! and `probe step_alloc` (the `ci.sh` allocation-regression gate) drive
//! the same `StepHarness`, so the number CI gates on is the number the
//! bench reports.

use testkit::bench::BenchReport;
use testkit::Bench;
use timedrl::{gather_rows, pretext_loss, train_step, TimeDrl, TimeDrlConfig};
use timedrl_nn::{AdamW, Ctx, LayerNorm, Module, Optimizer};
use timedrl_tensor::{NdArray, Prng, Var};

/// The compact CI-probe forecasting model (T=32, one channel, d16, batch 8)
/// that the step harness and the `probe` pretraining gates train; callers
/// set epochs and checkpointing.
pub fn probe_config(seed: u64) -> TimeDrlConfig {
    let mut cfg = TimeDrlConfig::forecasting(32);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.batch_size = 8;
    cfg.seed = seed;
    cfg
}

/// Sixteen pure-sinusoid windows `[16, 32, 1]` for [`probe_config`]: no RNG
/// involved, so every process trains on identical data.
pub fn sine_windows() -> NdArray {
    NdArray::from_fn(&[16, 32, 1], |flat| {
        let (i, step) = (flat / 32, flat % 32);
        (step as f32 * 0.4 + i as f32 * 0.3).sin()
    })
}

/// A live whole-batch training step: [`timedrl::train_step`], the step
/// `timedrl::pretrain` runs when `micro_batch` is `None` (zero_grad →
/// `pretext_loss` → NaN guard → backward → `clip_grad_norm(5.0)` → AdamW).
pub struct StepHarness {
    model: TimeDrl,
    opt: AdamW,
    ctx: Ctx,
    aug_rng: Prng,
    batch: NdArray,
}

impl StepHarness {
    /// Builds the harness at the CI-probe scale: the same compact
    /// forecasting model `probe pretrain_checkpoint` trains, with one
    /// pre-gathered batch of sinusoid windows.
    pub fn new() -> Self {
        let cfg = probe_config(42);
        let model = TimeDrl::new(cfg.clone());
        let opt = AdamW::new(model.parameters(), cfg.lr, cfg.weight_decay);
        let batch = gather_rows(&sine_windows(), &(0..cfg.batch_size).collect::<Vec<_>>());
        Self {
            model,
            opt,
            ctx: Ctx::train(cfg.seed ^ 0x5eed_0002),
            aug_rng: Prng::new(cfg.seed ^ 0x5eed_0003),
            batch,
        }
    }

    /// Runs one optimizer step and returns the joint pretext loss.
    ///
    /// # Panics
    /// If the step is aborted (non-finite loss or failed backward), which
    /// the fixed sinusoid batch never causes.
    pub fn step(&mut self) -> f32 {
        train_step(&self.model, &mut self.opt, &self.batch, &mut self.ctx, &mut self.aug_rng)
            .expect("training step aborted")
            .total
    }

    /// Runs the forward pass alone — builds the full pretext-loss graph
    /// and drops it without differentiating. Subtracting this from
    /// [`StepHarness::step`] isolates what backward + clip + AdamW cost.
    pub fn forward_only(&mut self) -> f32 {
        let (_loss, breakdown) =
            pretext_loss(&self.model, &self.batch, &mut self.ctx, &mut self.aug_rng);
        breakdown.total
    }

    /// Builds and returns one retained loss graph for repeated backward
    /// timing.
    pub fn build_loss(&mut self) -> Var {
        pretext_loss(&self.model, &self.batch, &mut self.ctx, &mut self.aug_rng).0
    }

    /// One backward pass over a retained graph. Gradients are zeroed first
    /// so every call does identical accumulation work.
    pub fn backward_only(&mut self, loss: &Var) {
        self.opt.zero_grad();
        loss.backward();
    }

    /// Steady-state heap allocations per step: runs `warmup` steps so every
    /// pool bucket is populated, then averages the allocation count of the
    /// next `measured` steps. With the buffer pool in place this should be
    /// near zero; the seed code allocated tens of thousands per step.
    pub fn allocations_per_step(&mut self, warmup: usize, measured: usize) -> u64 {
        for _ in 0..warmup {
            self.step();
        }
        let (_, allocs) = testkit::alloc::count_allocations(|| {
            for _ in 0..measured {
                self.step();
            }
        });
        allocs / measured.max(1) as u64
    }
}

impl Default for StepHarness {
    fn default() -> Self {
        Self::new()
    }
}

/// Times the elementwise layers of the Fig. 4 training step (33 tokens,
/// d_model 32, batch 32; GELU at the d_ff 64 width) as a `fig4_layers`
/// group: the Linear bias add, its gradient (`reduce_to_shape` to the bias
/// shape), LayerNorm forward+backward and GELU forward+backward. Returns
/// each row's id and report, for benches that record a baseline.
pub fn bench_fig4_layers(b: &mut Bench) -> Vec<(&'static str, BenchReport)> {
    let mut rng = Prng::new(7);
    let x = rng.randn(&[32, 33, 32]);
    let bias = rng.randn(&[32]);
    let norm = LayerNorm::new(32);
    let xv = Var::parameter(x.clone());
    let hidden = Var::parameter(rng.randn(&[32, 33, 64]));
    let mut group = b.group("fig4_layers");
    let rows = vec![
        ("bias_add_32x33x32", group.bench("bias_add_32x33x32", || x.add(&bias))),
        ("bias_grad_32x33x32", group.bench("bias_grad_32x33x32", || x.reduce_to_shape(&[32]))),
        (
            "layernorm_fwd_bwd_32x33x32",
            group.bench("layernorm_fwd_bwd_32x33x32", || {
                xv.zero_grad();
                let loss = norm.forward(&xv).sum();
                loss.backward();
                loss.item()
            }),
        ),
        (
            "gelu_fwd_bwd_32x33x64",
            group.bench("gelu_fwd_bwd_32x33x64", || {
                hidden.zero_grad();
                let loss = hidden.gelu().sum();
                loss.backward();
                loss.item()
            }),
        ),
    ];
    group.finish();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_runs_and_loss_is_finite() {
        let mut h = StepHarness::new();
        let l0 = h.step();
        let l1 = h.step();
        assert!(l0.is_finite() && l1.is_finite());
    }

    #[test]
    fn steady_state_allocations_are_bounded() {
        let mut h = StepHarness::new();
        let per_step = h.allocations_per_step(2, 3);
        // The committed ci.sh budget is far tighter; this is a sanity
        // backstop so the metric itself cannot silently explode.
        assert!(per_step < 100_000, "allocations per step: {per_step}");
    }
}
