//! Normalization layers: LayerNorm and BatchNorm1d.

use std::cell::RefCell;

use crate::module::Module;
use timedrl_tensor::{NdArray, Var};

/// Layer normalization over the last axis, with learnable affine
/// parameters, as used inside every Transformer block.
pub struct LayerNorm {
    gamma: Var,
    beta: Var,
    eps: f32,
    dim: usize,
}

impl LayerNorm {
    /// Creates a LayerNorm over a trailing axis of width `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Var::parameter(NdArray::ones(&[dim])),
            beta: Var::parameter(NdArray::zeros(&[dim])),
            eps: 1e-5,
            dim,
        }
    }

    /// Normalizes `[..., dim]`-shaped input over its last axis: one fused
    /// tape node ([`Var::layer_norm`]).
    pub fn forward(&self, x: &Var) -> Var {
        debug_assert_eq!(x.shape().last(), Some(&self.dim), "LayerNorm width mismatch");
        x.layer_norm(&self.gamma, &self.beta, self.eps)
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Batch normalization over the batch axis of `[N, D]` input, with running
/// statistics for evaluation mode.
///
/// TimeDRL's instance-contrastive head `c_θ` is "a two-layer bottleneck MLP
/// with BatchNorm and ReLU in the middle" (Section IV-C); this layer exists
/// primarily to serve that head and the SimSiam/BYOL baselines.
pub struct BatchNorm1d {
    gamma: Var,
    beta: Var,
    running_mean: RefCell<NdArray>,
    running_var: RefCell<NdArray>,
    momentum: f32,
    eps: f32,
    dim: usize,
}

impl BatchNorm1d {
    /// Creates a BatchNorm over feature width `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Var::parameter(NdArray::ones(&[dim])),
            beta: Var::parameter(NdArray::zeros(&[dim])),
            running_mean: RefCell::new(NdArray::zeros(&[dim])),
            running_var: RefCell::new(NdArray::ones(&[dim])),
            momentum: 0.1,
            eps: 1e-5,
            dim,
        }
    }

    /// Normalizes `[N, dim]` input. In training mode batch statistics are
    /// used (and folded into the running estimates); in eval mode the
    /// running estimates are used.
    pub fn forward(&self, x: &Var, training: bool) -> Var {
        debug_assert_eq!(x.shape()[1], self.dim, "BatchNorm width mismatch");
        if training {
            let mean = x.mean_axis(0, true);
            let centered = x.sub(&mean);
            let var = centered.mul(&centered).mean_axis(0, true);
            {
                let m = self.momentum;
                let mut rm = self.running_mean.borrow_mut();
                *rm = rm.scale(1.0 - m).add(&mean.to_array().squeeze(0).scale(m));
                let mut rv = self.running_var.borrow_mut();
                *rv = rv.scale(1.0 - m).add(&var.to_array().squeeze(0).scale(m));
            }
            let inv_std = var.add_scalar(self.eps).sqrt();
            centered.div(&inv_std).mul(&self.gamma).add(&self.beta)
        } else {
            let mean = Var::constant(self.running_mean.borrow().clone());
            let std = Var::constant(self.running_var.borrow().add_scalar(self.eps).sqrt());
            x.sub(&mean).div(&std).mul(&self.gamma).add(&self.beta)
        }
    }
}

impl Module for BatchNorm1d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timedrl_tensor::gradcheck::assert_gradients_close;
    use timedrl_tensor::Prng;

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Prng::new(0);
        let ln = LayerNorm::new(16);
        let x = Var::constant(rng.randn(&[4, 16]).scale(3.0).add_scalar(5.0));
        let y = ln.forward(&x).to_array();
        for row in y.data().chunks(16) {
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "row mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row var {var}");
        }
    }

    #[test]
    fn layernorm_3d_input() {
        let mut rng = Prng::new(1);
        let ln = LayerNorm::new(8);
        let x = Var::constant(rng.randn(&[2, 5, 8]));
        assert_eq!(ln.forward(&x).shape(), vec![2, 5, 8]);
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut rng = Prng::new(2);
        let x = rng.randn(&[3, 6]);
        let ln = LayerNorm::new(6);
        assert_gradients_close(&x, 1e-2, 2e-2, |v| ln.forward(v).powf(2.0).sum());
    }

    #[test]
    fn batchnorm_train_normalizes_columns() {
        let mut rng = Prng::new(3);
        let bn = BatchNorm1d::new(4);
        let x = Var::constant(rng.randn(&[64, 4]).scale(2.0).add_scalar(-3.0));
        let y = bn.forward(&x, true).to_array();
        let mean = y.mean_axis(0, false);
        let var = y.var_axis(0, false);
        for i in 0..4 {
            assert!(mean.data()[i].abs() < 1e-4);
            assert!((var.data()[i] - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = Prng::new(4);
        let bn = BatchNorm1d::new(2);
        // Feed shifted data several times to move the running stats.
        for _ in 0..50 {
            let x = Var::constant(rng.randn(&[32, 2]).add_scalar(10.0));
            bn.forward(&x, true);
        }
        // In eval mode, data at the running mean maps near zero.
        let x = Var::constant(NdArray::full(&[1, 2], 10.0));
        let y = bn.forward(&x, false).to_array();
        assert!(y.data().iter().all(|v| v.abs() < 0.5), "eval output {:?}", y.data());
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut rng = Prng::new(5);
        let x = rng.randn(&[8, 3]);
        let bn = BatchNorm1d::new(3);
        assert_gradients_close(&x, 1e-2, 2e-2, |v| bn.forward(v, true).powf(2.0).sum());
    }
}
