//! Learning-rate schedules: linear warm-up, cosine decay, and step decay,
//! driving any [`Optimizer`] through its
//! `set_learning_rate` hook.

use crate::optim::Optimizer;

/// A learning-rate schedule: maps a 0-based step index to a rate.
pub trait LrSchedule {
    /// The learning rate to use at `step`.
    fn rate_at(&self, step: usize) -> f32;

    /// Applies the schedule to an optimizer for the given step.
    fn apply(&self, opt: &mut dyn Optimizer, step: usize) {
        opt.set_learning_rate(self.rate_at(step));
    }
}

/// Constant rate (the default behaviour, made explicit).
pub struct ConstantLr(pub f32);

impl LrSchedule for ConstantLr {
    fn rate_at(&self, _step: usize) -> f32 {
        self.0
    }
}

/// Linear warm-up from 0 to `peak` over `warmup_steps`, then cosine decay
/// to `floor` at `total_steps` — the schedule most Transformer training
/// recipes (including PatchTST-style setups) use.
pub struct WarmupCosine {
    /// Peak learning rate reached at the end of warm-up.
    pub peak: f32,
    /// Terminal learning rate.
    pub floor: f32,
    /// Warm-up length in steps.
    pub warmup_steps: usize,
    /// Total schedule length in steps.
    pub total_steps: usize,
}

impl LrSchedule for WarmupCosine {
    fn rate_at(&self, step: usize) -> f32 {
        if self.warmup_steps > 0 && step < self.warmup_steps {
            return self.peak * (step + 1) as f32 / self.warmup_steps as f32;
        }
        if step >= self.total_steps {
            return self.floor;
        }
        let span = (self.total_steps - self.warmup_steps).max(1) as f32;
        let progress = (step - self.warmup_steps) as f32 / span;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.floor + (self.peak - self.floor) * cos
    }
}

/// Multiplies the rate by `gamma` every `every` steps.
pub struct StepDecay {
    /// Initial learning rate.
    pub initial: f32,
    /// Multiplicative factor per milestone.
    pub gamma: f32,
    /// Steps between milestones.
    pub every: usize,
}

impl LrSchedule for StepDecay {
    fn rate_at(&self, step: usize) -> f32 {
        let k = (step / self.every.max(1)) as i32;
        self.initial * self.gamma.powi(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamW;
    use timedrl_tensor::{NdArray, Var};

    #[test]
    fn warmup_ramps_linearly() {
        let s = WarmupCosine { peak: 1.0, floor: 0.0, warmup_steps: 10, total_steps: 100 };
        assert!((s.rate_at(0) - 0.1).abs() < 1e-6);
        assert!((s.rate_at(4) - 0.5).abs() < 1e-6);
        assert!((s.rate_at(9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_decays_to_floor() {
        let s = WarmupCosine { peak: 1.0, floor: 0.1, warmup_steps: 0, total_steps: 100 };
        assert!((s.rate_at(0) - 1.0).abs() < 1e-4);
        let mid = s.rate_at(50);
        assert!((mid - 0.55).abs() < 0.02, "midpoint {mid}");
        assert!((s.rate_at(100) - 0.1).abs() < 1e-6);
        assert_eq!(s.rate_at(10_000), 0.1);
    }

    #[test]
    fn cosine_is_monotone_after_warmup() {
        let s = WarmupCosine { peak: 1.0, floor: 0.0, warmup_steps: 5, total_steps: 50 };
        let mut prev = f32::INFINITY;
        for step in 5..50 {
            let r = s.rate_at(step);
            assert!(r <= prev + 1e-6, "not monotone at {step}");
            prev = r;
        }
    }

    #[test]
    fn step_decay_halves() {
        let s = StepDecay { initial: 0.8, gamma: 0.5, every: 10 };
        assert_eq!(s.rate_at(0), 0.8);
        assert_eq!(s.rate_at(9), 0.8);
        assert_eq!(s.rate_at(10), 0.4);
        assert_eq!(s.rate_at(25), 0.2);
    }

    #[test]
    fn schedule_drives_optimizer() {
        let w = Var::parameter(NdArray::zeros(&[1]));
        let mut opt = AdamW::new(vec![w], 0.0, 0.0);
        let s = ConstantLr(0.07);
        s.apply(&mut opt, 3);
        assert_eq!(opt.learning_rate(), 0.07);
    }
}
