//! Transformer encoder/decoder blocks and the stacked sequence encoder.

use crate::attention::MultiHeadAttention;
use crate::linear::Linear;
use crate::module::{Ctx, Module};
use crate::norm::LayerNorm;
use timedrl_tensor::{Prng, Var};

/// One post-norm Transformer block (BERT-style), the unit TimeDRL stacks
/// `L` times:
///
/// ```text
/// x = LN1(x + Dropout(SelfAttention(x)))
/// x = LN2(x + Dropout(FFN(x)))          FFN = Linear -> GELU -> Linear
/// ```
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    dropout: f32,
}

impl TransformerBlock {
    /// Creates one block. `causal` selects the decoder (masked) variant.
    pub fn new(d_model: usize, n_heads: usize, d_ff: usize, dropout: f32, causal: bool, rng: &mut Prng) -> Self {
        Self {
            attn: MultiHeadAttention::new(d_model, n_heads, causal, dropout, rng),
            ln1: LayerNorm::new(d_model),
            ln2: LayerNorm::new(d_model),
            ff1: Linear::new(d_model, d_ff, rng),
            ff2: Linear::new(d_ff, d_model, rng),
            dropout,
        }
    }

    /// Applies the block to `[B, T, D]` input.
    pub fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let attn_out = self
            .attn
            .forward(x, ctx)
            .dropout(self.dropout, ctx.training, &mut ctx.rng);
        let x = self.ln1.forward(&x.add(&attn_out));
        let ff = self
            .ff2
            .forward(&self.ff1.forward(&x).gelu())
            .dropout(self.dropout, ctx.training, &mut ctx.rng);
        self.ln2.forward(&x.add(&ff))
    }
}

impl Module for TransformerBlock {
    fn parameters(&self) -> Vec<Var> {
        let mut ps = self.attn.parameters();
        ps.extend(self.ln1.parameters());
        ps.extend(self.ln2.parameters());
        ps.extend(self.ff1.parameters());
        ps.extend(self.ff2.parameters());
        ps
    }
}

/// Configuration for [`TransformerEncoder`].
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Latent width `D` of the model.
    pub d_model: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Number of stacked blocks `L`.
    pub n_layers: usize,
    /// Dropout probability used in attention, residual paths, and the
    /// token-embedding output — the randomness source for TimeDRL's
    /// two-view trick.
    pub dropout: f32,
    /// Use masked (causal) self-attention: the "Transformer Decoder" row of
    /// Table VIII.
    pub causal: bool,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        Self { d_model: 64, n_heads: 4, d_ff: 128, n_layers: 2, dropout: 0.1, causal: false }
    }
}

/// A stack of Transformer blocks operating on already-embedded `[B, T, D]`
/// sequences. Token/positional embedding lives with the model that owns
/// this encoder (TimeDRL adds a `[CLS]` slot before embedding).
pub struct TransformerEncoder {
    blocks: Vec<TransformerBlock>,
    config: TransformerConfig,
}

impl TransformerEncoder {
    /// Builds the stack described by `config`.
    pub fn new(config: &TransformerConfig, rng: &mut Prng) -> Self {
        let blocks = (0..config.n_layers)
            .map(|_| {
                TransformerBlock::new(
                    config.d_model,
                    config.n_heads,
                    config.d_ff,
                    config.dropout,
                    config.causal,
                    rng,
                )
            })
            .collect();
        Self { blocks, config: config.clone() }
    }

    /// Applies all blocks in order.
    pub fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let mut h = x.clone();
        for block in &self.blocks {
            h = block.forward(&h, ctx);
        }
        h
    }

    /// The configuration this encoder was built from.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }
}

impl Module for TransformerEncoder {
    fn parameters(&self) -> Vec<Var> {
        self.blocks.iter().flat_map(|b| b.parameters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TransformerConfig {
        TransformerConfig { d_model: 16, n_heads: 2, d_ff: 32, n_layers: 2, dropout: 0.1, causal: false }
    }

    #[test]
    fn encoder_preserves_shape() {
        let mut rng = Prng::new(0);
        let enc = TransformerEncoder::new(&small_config(), &mut rng);
        let x = Var::constant(rng.randn(&[3, 5, 16]));
        assert_eq!(enc.forward(&x, &mut Ctx::eval()).shape(), vec![3, 5, 16]);
    }

    #[test]
    fn eval_forward_is_deterministic() {
        let mut rng = Prng::new(1);
        let enc = TransformerEncoder::new(&small_config(), &mut rng);
        let x = Var::constant(rng.randn(&[2, 4, 16]));
        let a = enc.forward(&x, &mut Ctx::eval()).to_array();
        let b = enc.forward(&x, &mut Ctx::eval()).to_array();
        assert_eq!(a, b);
    }

    #[test]
    fn train_forward_two_passes_differ() {
        // The core mechanism behind TimeDRL's instance-contrastive views:
        // the same input through the same encoder twice in training mode
        // yields different embeddings because of dropout.
        let mut rng = Prng::new(2);
        let enc = TransformerEncoder::new(&small_config(), &mut rng);
        let x = Var::constant(rng.randn(&[2, 4, 16]));
        let mut ctx = Ctx::train(77);
        let a = enc.forward(&x, &mut ctx).to_array();
        let b = enc.forward(&x, &mut ctx).to_array();
        assert!(a.max_abs_diff(&b) > 1e-4);
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let mut rng = Prng::new(3);
        let enc = TransformerEncoder::new(&small_config(), &mut rng);
        let x = Var::constant(rng.randn(&[2, 4, 16]));
        enc.forward(&x, &mut Ctx::train(5)).powf(2.0).mean().backward();
        for p in enc.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn parameter_count_matches_formula() {
        let mut rng = Prng::new(4);
        let cfg = small_config();
        let enc = TransformerEncoder::new(&cfg, &mut rng);
        let d = cfg.d_model;
        let per_block = 4 * (d * d + d)         // q,k,v,o projections
            + 2 * 2 * d                          // two layer norms
            + (d * cfg.d_ff + cfg.d_ff)          // ff1
            + (cfg.d_ff * d + d); // ff2
        assert_eq!(enc.num_parameters(), per_block * cfg.n_layers);
    }
}
