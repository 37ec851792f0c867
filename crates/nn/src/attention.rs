//! Multi-head scaled-dot-product self-attention.

use crate::linear::Linear;
use crate::module::{Ctx, Module};
use timedrl_tensor::{NdArray, Prng, Var};

/// Multi-head self-attention over `[B, T, D]` sequences.
///
/// With `causal = false` this is the bidirectional attention of the
/// Transformer *encoder* TimeDRL uses as its backbone; with `causal = true`
/// each position attends only to itself and earlier positions, giving the
/// Transformer *decoder* variant of the Table VIII encoder ablation.
///
/// Attention runs through the fused tiled node ([`Var::attention`],
/// DESIGN.md §17): no `[B·H, T, T]` score tensor is materialized forward or
/// backward, and values and gradients are bit-identical to the composed
/// `matmul_t → scale → mask → softmax → dropout → matmul` graph (tested
/// against that graph below).
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    head_dim: usize,
    causal: bool,
    attn_dropout: f32,
}

impl MultiHeadAttention {
    /// Creates an attention layer; `d_model` must be divisible by `n_heads`.
    pub fn new(d_model: usize, n_heads: usize, causal: bool, dropout: f32, rng: &mut Prng) -> Self {
        assert!(n_heads > 0 && d_model % n_heads == 0, "d_model must divide by n_heads");
        Self {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            n_heads,
            head_dim: d_model / n_heads,
            causal,
            attn_dropout: dropout,
        }
    }

    /// Projects `[B, T, D]` input to the per-head `q`, `k`, `v` batches
    /// `[B*H, T, Dh]`, returning them with `(B, T)`.
    fn project(&self, x: &Var) -> ([Var; 3], usize, usize) {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "attention expects [B, T, D]");
        let (b, t) = (shape[0], shape[1]);
        let split = |y: Var| {
            y.reshape(&[b, t, self.n_heads, self.head_dim])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * self.n_heads, t, self.head_dim])
        };
        let qkv = [split(self.wq.forward(x)), split(self.wk.forward(x)), split(self.wv.forward(x))];
        (qkv, b, t)
    }

    /// Merges `[B*H, T, Dh]` heads back to `[B, T, D]` and applies the
    /// output projection.
    fn merge(&self, heads: &Var, b: usize, t: usize) -> Var {
        let out = heads
            .reshape(&[b, self.n_heads, t, self.head_dim])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b, t, self.n_heads * self.head_dim]);
        self.wo.forward(&out)
    }

    fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    /// Applies self-attention; input and output are `[B, T, D]`.
    ///
    /// In training with attention dropout, the keep mask is drawn here in
    /// exactly the order [`Var::dropout`] would draw it over the
    /// probabilities, so the RNG stream, and with it every training bit,
    /// matches the composed graph.
    pub fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let ([q, k, v], b, t) = self.project(x);
        let drop_mask = (self.attn_dropout > 0.0 && ctx.training).then(|| {
            let keep = 1.0 - self.attn_dropout;
            NdArray::from_fn(&[b * self.n_heads, t, t], |_| {
                if ctx.rng.bernoulli(keep) {
                    1.0 / keep
                } else {
                    0.0
                }
            })
        });
        self.merge(&Var::attention(&q, &k, &v, self.scale(), self.causal, drop_mask), b, t)
    }

    /// Test oracle: the composed graph [`MultiHeadAttention::forward`]
    /// replaced, materializing `[B*H, T, T]` scores. Returns the output
    /// and the pre-dropout probabilities `[B, H, T, T]`.
    #[cfg(test)]
    fn composed_forward(&self, x: &Var, ctx: &mut Ctx) -> (Var, Var) {
        let ([q, k, v], b, t) = self.project(x);
        let mut scores = q.matmul_t(&k).scale(self.scale());
        if self.causal {
            let mask = NdArray::from_fn(&[t, t], |f| if f % t > f / t { -1e9 } else { 0.0 });
            scores = scores.add(&Var::constant(mask));
        }
        let probs = scores.softmax_lastdim();
        let mut attn = probs.clone();
        if self.attn_dropout > 0.0 {
            attn = attn.dropout(self.attn_dropout, ctx.training, &mut ctx.rng);
        }
        (self.merge(&attn.matmul(&v), b, t), probs.reshape(&[b, self.n_heads, t, t]))
    }

    /// Whether this layer applies a causal mask.
    pub fn is_causal(&self) -> bool {
        self.causal
    }
}

impl Module for MultiHeadAttention {
    fn parameters(&self) -> Vec<Var> {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .flat_map(|l| l.parameters())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_preserved() {
        let mut rng = Prng::new(0);
        let attn = MultiHeadAttention::new(16, 4, false, 0.0, &mut rng);
        let x = Var::constant(rng.randn(&[2, 7, 16]));
        assert_eq!(attn.forward(&x, &mut Ctx::eval()).shape(), vec![2, 7, 16]);
    }

    #[test]
    fn attention_rows_are_probabilities() {
        // Identical tokens score every key equally, so each causal row is
        // uniform over the positions it may see and zero beyond them.
        let mut rng = Prng::new(4);
        let attn = MultiHeadAttention::new(8, 2, true, 0.0, &mut rng);
        let x = Var::constant(NdArray::zeros(&[1, 4, 8]));
        let (_, w) = attn.composed_forward(&x, &mut Ctx::eval());
        for row_block in w.to_array().data().chunks(16) {
            for (i, row) in row_block.chunks(4).enumerate() {
                let total: f32 = row.iter().sum();
                assert!((total - 1.0).abs() < 1e-5);
                for (j, &p) in row.iter().enumerate() {
                    if j > i {
                        assert!(p < 1e-6, "future position leaked");
                    } else {
                        assert!((p - 1.0 / (i + 1) as f32).abs() < 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn causal_blocks_future_information() {
        let mut rng = Prng::new(1);
        let attn = MultiHeadAttention::new(8, 2, true, 0.0, &mut rng);
        let x1 = rng.randn(&[1, 5, 8]);
        // Change only the last timestep.
        let mut x2 = x1.clone();
        for i in 0..8 {
            let flat = 4 * 8 + i;
            x2.data_mut()[flat] += 10.0;
        }
        let y1 = attn.forward(&Var::constant(x1), &mut Ctx::eval()).to_array();
        let y2 = attn.forward(&Var::constant(x2), &mut Ctx::eval()).to_array();
        // Positions 0..4 must be identical; position 4 must differ.
        let per_t = 8;
        for t in 0..4 {
            for i in 0..per_t {
                assert!((y1.data()[t * per_t + i] - y2.data()[t * per_t + i]).abs() < 1e-5);
            }
        }
        let last_diff: f32 = (0..per_t)
            .map(|i| (y1.data()[4 * per_t + i] - y2.data()[4 * per_t + i]).abs())
            .sum();
        assert!(last_diff > 1e-3);
    }

    #[test]
    fn bidirectional_sees_future() {
        let mut rng = Prng::new(2);
        let attn = MultiHeadAttention::new(8, 2, false, 0.0, &mut rng);
        let x1 = rng.randn(&[1, 5, 8]);
        let mut x2 = x1.clone();
        for i in 0..8 {
            x2.data_mut()[4 * 8 + i] += 10.0;
        }
        let y1 = attn.forward(&Var::constant(x1), &mut Ctx::eval()).to_array();
        let y2 = attn.forward(&Var::constant(x2), &mut Ctx::eval()).to_array();
        // Even position 0 changes: full temporal access.
        let first_diff: f32 = (0..8).map(|i| (y1.data()[i] - y2.data()[i]).abs()).sum();
        assert!(first_diff > 1e-4);
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let mut rng = Prng::new(3);
        let attn = MultiHeadAttention::new(8, 2, false, 0.0, &mut rng);
        let x = Var::constant(rng.randn(&[2, 4, 8]));
        let loss = attn.forward(&x, &mut Ctx::train(9)).powf(2.0).sum();
        loss.backward();
        for p in attn.parameters() {
            let g = p.grad().expect("missing grad");
            assert!(g.l2_norm() > 0.0);
        }
    }

    fn assert_bits_eq(a: &NdArray, b: &NdArray, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x} vs {y}");
        }
    }

    /// The fused forward must reproduce the composed graph bit for bit —
    /// value and every projection gradient — in eval and in training, with
    /// and without live attention dropout (same RNG stream), causal and
    /// bidirectional.
    #[test]
    fn fused_path_matches_composed_path_bitwise() {
        for causal in [false, true] {
            for dropout in [0.0f32, 0.25] {
                for training in [false, true] {
                    let mk = || {
                        let mut rng = Prng::new(77);
                        MultiHeadAttention::new(8, 2, causal, dropout, &mut rng)
                    };
                    let mut rng = Prng::new(78);
                    let x0 = rng.randn(&[2, 6, 8]);
                    let run = |attn: &MultiHeadAttention, composed: bool| {
                        let x = Var::constant(x0.clone());
                        let mut ctx = if training { Ctx::train(5) } else { Ctx::eval() };
                        let y = if composed {
                            attn.composed_forward(&x, &mut ctx).0
                        } else {
                            attn.forward(&x, &mut ctx)
                        };
                        y.powf(2.0).sum().backward();
                        let grads: Vec<NdArray> =
                            attn.parameters().iter().map(|p| p.grad().unwrap()).collect();
                        (y.to_array(), grads)
                    };
                    let (y_fused, g_fused) = run(&mk(), false);
                    let (y_comp, g_comp) = run(&mk(), true);
                    let what = format!("causal={causal} dropout={dropout} training={training}");
                    assert_bits_eq(&y_fused, &y_comp, &format!("output {what}"));
                    for (i, (gf, gc)) in g_fused.iter().zip(g_comp.iter()).enumerate() {
                        assert_bits_eq(gf, gc, &format!("param grad {i} {what}"));
                    }
                }
            }
        }
    }
}

/// The composed oracle's attention probabilities. The fused kernel is
/// bit-equal to that oracle, so these pin what it computes too.
#[cfg(test)]
mod weight_tests {
    use super::*;

    #[test]
    fn attention_weights_are_row_stochastic() {
        let mut rng = Prng::new(10);
        let attn = MultiHeadAttention::new(8, 2, false, 0.0, &mut rng);
        let x = Var::constant(rng.randn(&[2, 5, 8]));
        let (_, w) = attn.composed_forward(&x, &mut Ctx::eval());
        assert_eq!(w.shape(), vec![2, 2, 5, 5]);
        let arr = w.to_array();
        for row in arr.data().chunks(5) {
            let total: f32 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn causal_weights_have_zero_upper_triangle() {
        let mut rng = Prng::new(11);
        let attn = MultiHeadAttention::new(8, 2, true, 0.0, &mut rng);
        let x = Var::constant(rng.randn(&[1, 4, 8]));
        let (_, w) = attn.composed_forward(&x, &mut Ctx::eval());
        let arr = w.to_array();
        for h in 0..2 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    assert!(arr.at(&[0, h, i, j]) < 1e-6, "future leak at ({i},{j})");
                }
            }
        }
    }

    /// `forward` takes the fused path, the weights-returning oracle the
    /// composed one — their outputs must still agree bit for bit (the fused
    /// kernel's exactness contract), causal and bidirectional.
    #[test]
    fn forward_and_forward_with_weights_agree() {
        for causal in [false, true] {
            let mut rng = Prng::new(12);
            let attn = MultiHeadAttention::new(8, 2, causal, 0.0, &mut rng);
            let x = Var::constant(rng.randn(&[2, 4, 8]));
            let a = attn.forward(&x, &mut Ctx::eval()).to_array();
            let (b, _) = attn.composed_forward(&x, &mut Ctx::eval());
            let bv = b.to_array();
            assert_eq!(a.shape(), bv.shape());
            for (x1, x2) in a.data().iter().zip(bv.data().iter()) {
                assert_eq!(x1.to_bits(), x2.to_bits(), "fused vs composed (causal={causal})");
            }
        }
    }
}
