//! The optimizer: AdamW with decoupled weight decay, which the paper
//! trains with (Section V.4) and which every trainer and baseline here
//! builds.

use timedrl_tensor::{NdArray, Var};

/// Common optimizer interface over a fixed parameter set.
pub trait Optimizer {
    /// Applies one update from the currently accumulated gradients.
    fn step(&mut self);
    /// Clears all parameter gradients.
    fn zero_grad(&self);
    /// The parameters this optimizer updates.
    fn parameters(&self) -> &[Var];
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Overrides the learning rate (used by schedulers).
    fn set_learning_rate(&mut self, lr: f32);
}

/// A snapshot of AdamW state — the first (`m`) and second (`v`) moment
/// estimates plus the bias-correction step count `t` — in the optimizer's
/// parameter order. This is what a resumable training checkpoint must
/// carry in addition to the weights: restarting AdamW with zeroed moments
/// changes every subsequent update, so bit-exact resume (DESIGN.md §11)
/// round-trips this through `timedrl-core`'s training-state checkpoint.
#[derive(Debug, Clone)]
pub struct OptimState {
    /// First-moment (mean) estimates, one per parameter.
    pub m: Vec<NdArray>,
    /// Second-moment (uncentered variance) estimates, one per parameter.
    pub v: Vec<NdArray>,
    /// Completed optimizer steps (drives bias correction).
    pub t: u32,
}

/// AdamW (Loshchilov & Hutter): Adam with *decoupled* weight decay — the
/// optimizer the TimeDRL paper uses for all experiments.
pub struct AdamW {
    params: Vec<Var>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Vec<NdArray>,
    v: Vec<NdArray>,
    t: u32,
}

impl AdamW {
    /// Creates an AdamW optimizer with the given decay.
    pub fn new(params: Vec<Var>, lr: f32, weight_decay: f32) -> Self {
        let m = params.iter().map(|p| NdArray::zeros(&p.shape())).collect();
        let v = params.iter().map(|p| NdArray::zeros(&p.shape())).collect();
        Self { params, lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay, m, v, t: 0 }
    }

    /// Copies out the optimizer state (moments + step count) for a
    /// training checkpoint.
    pub fn export_state(&self) -> OptimState {
        OptimState { m: self.m.clone(), v: self.v.clone(), t: self.t }
    }

    /// Restores state exported by [`AdamW::export_state`]. Counts and
    /// shapes must match this optimizer's parameters exactly.
    ///
    /// # Errors
    /// Returns a description of the first mismatch; on error the optimizer
    /// is left unchanged.
    pub fn import_state(&mut self, state: OptimState) -> Result<(), String> {
        let n = self.params.len();
        if state.m.len() != n || state.v.len() != n {
            return Err(format!(
                "optimizer state has {} m / {} v arrays, expected {n}",
                state.m.len(),
                state.v.len()
            ));
        }
        for (i, p) in self.params.iter().enumerate() {
            let shape = p.shape();
            if state.m[i].shape() != shape.as_slice() || state.v[i].shape() != shape.as_slice() {
                return Err(format!(
                    "optimizer state {i}: moment shapes m {:?} / v {:?} vs parameter {:?}",
                    state.m[i].shape(),
                    state.v[i].shape(),
                    shape
                ));
            }
        }
        self.m = state.m;
        self.v = state.v;
        self.t = state.t;
        Ok(())
    }
}

impl Optimizer for AdamW {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // Fused in-place update. All scalar factors are hoisted exactly as
        // the old chained array ops computed them (`scale(1.0 / bc1)`
        // multiplies every element by the precomputed reciprocal), so each
        // element sees the identical f32 operation sequence:
        //   m  = m*b1 + g*(1-b1);  v = v*b2 + (g*g)*(1-b2)
        //   u  = (m*(1/bc1)) / (sqrt(v*(1/bc2)) + eps) * lr
        //   w  = w*(1-lr*wd) - u
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let (ob1, ob2) = (1.0 - b1, 1.0 - b2);
        let (rb1, rb2) = (1.0 / bc1, 1.0 / bc2);
        let wd = self.lr * self.weight_decay;
        let decay = 1.0 - wd;
        for i in 0..self.params.len() {
            let p = &self.params[i];
            let Some(g) = p.grad_ref() else { continue };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            p.update_value(|w| {
                let it = w.data_mut().iter_mut().zip(g.data()).zip(m.data_mut()).zip(v.data_mut());
                for (((wj, &gj), mj), vj) in it {
                    let mn = *mj * b1 + gj * ob1;
                    *mj = mn;
                    let vn = *vj * b2 + gj * gj * ob2;
                    *vj = vn;
                    let upd = mn * rb1 / ((vn * rb2).sqrt() + eps) * lr;
                    if wd > 0.0 {
                        // Decay applied directly to the weights, decoupled
                        // from the adaptive gradient scaling.
                        *wj *= decay;
                    }
                    *wj -= upd;
                }
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn parameters(&self) -> &[Var] {
        &self.params
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timedrl_tensor::Prng;

    /// Minimizes f(w) = ||w - target||^2 and returns the final distance.
    fn optimize(opt: &mut dyn Optimizer, w: &Var, target: &NdArray, steps: usize) -> f32 {
        for _ in 0..steps {
            opt.zero_grad();
            let loss = w.mse_loss(target);
            loss.backward();
            opt.step();
        }
        w.to_array().max_abs_diff(target)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let target = NdArray::from_slice(&[0.5, -0.5]);
        let w = Var::parameter(NdArray::from_slice(&[10.0, -10.0]));
        let mut opt = AdamW::new(vec![w.clone()], 0.3, 0.0);
        assert!(optimize(&mut opt, &w, &target, 200) < 1e-2);
    }

    #[test]
    fn adamw_decays_unused_weights() {
        // A parameter with zero gradient should shrink under weight decay
        // but stay fixed without it.
        let w_decay = Var::parameter(NdArray::from_slice(&[4.0]));
        let w_plain = Var::parameter(NdArray::from_slice(&[4.0]));
        let mut decay = AdamW::new(vec![w_decay.clone()], 0.1, 0.1);
        let mut plain = AdamW::new(vec![w_plain.clone()], 0.1, 0.0);
        for _ in 0..10 {
            // Provide a zero gradient so only decay acts.
            w_decay.backward_with(NdArray::zeros(&[1]));
            w_plain.backward_with(NdArray::zeros(&[1]));
            decay.step();
            plain.step();
            decay.zero_grad();
            plain.zero_grad();
        }
        assert!(w_decay.to_array().data()[0] < 4.0);
        assert_eq!(w_plain.to_array().data()[0], 4.0);
    }

    #[test]
    fn adamw_trains_linear_regression() {
        // Full pipeline sanity: y = X w* recovered from noisy data.
        let mut rng = Prng::new(0);
        let x = rng.randn(&[64, 3]);
        let w_true = NdArray::from_slice(&[1.5, -2.0, 0.5]).reshape(&[3, 1]).unwrap();
        let y = timedrl_tensor::matmul(&x, &w_true).unwrap();
        let w = Var::parameter(rng.randn(&[3, 1]).scale(0.1));
        let mut opt = AdamW::new(vec![w.clone()], 0.05, 0.0);
        for _ in 0..300 {
            opt.zero_grad();
            let pred = Var::constant(x.clone()).matmul(&w);
            pred.mse_loss(&y).backward();
            opt.step();
        }
        assert!(w.to_array().max_abs_diff(&w_true) < 0.05);
    }

    #[test]
    fn adamw_state_roundtrip_resumes_identically() {
        // Train 5 steps, snapshot, train 5 more; vs. restore the snapshot
        // into a fresh optimizer over the same weights and train 5 — the
        // trajectories must agree bit-for-bit.
        let target = NdArray::from_slice(&[1.0, -2.0, 3.0]);
        let w = Var::parameter(NdArray::zeros(&[3]));
        let mut opt = AdamW::new(vec![w.clone()], 0.1, 0.01);
        optimize(&mut opt, &w, &target, 5);
        let snapshot = opt.export_state();
        let w_at_snapshot = w.to_array();

        optimize(&mut opt, &w, &target, 5);
        let reference = w.to_array();

        let w2 = Var::parameter(w_at_snapshot);
        let mut opt2 = AdamW::new(vec![w2.clone()], 0.1, 0.01);
        opt2.import_state(snapshot).unwrap();
        optimize(&mut opt2, &w2, &target, 5);
        assert_eq!(w2.to_array(), reference, "resumed AdamW diverged");
    }

    #[test]
    fn adamw_import_rejects_mismatched_state() {
        let w = Var::parameter(NdArray::zeros(&[3]));
        let mut opt = AdamW::new(vec![w], 0.1, 0.0);
        let bad = OptimState { m: vec![NdArray::zeros(&[2])], v: vec![NdArray::zeros(&[3])], t: 1 };
        assert!(opt.import_state(bad).is_err());
        let wrong_count = OptimState { m: vec![], v: vec![], t: 0 };
        assert!(opt.import_state(wrong_count).is_err());
    }

    #[test]
    fn lr_scheduling_hooks() {
        let w = Var::parameter(NdArray::zeros(&[1]));
        let mut opt = AdamW::new(vec![w], 0.1, 0.0);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
