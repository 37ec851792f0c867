//! The TimeDRL model (Section IV): patched tokens + `[CLS]`, a linear
//! token encoding, learnable positional encoding, the backbone encoder,
//! and the two pretext heads.

use crate::config::TimeDrlConfig;
use crate::encoder::Encoder;
use crate::pooling::Pooling;
use timedrl_data::{instance_normalize, patch_batch};
use timedrl_nn::{BatchNorm1d, Ctx, Linear, Module};
use timedrl_tensor::{NdArray, Prng, Var};

/// The instance-contrastive head `c_θ`: "a two-layer bottleneck MLP with
/// BatchNorm and ReLU in the middle" (Section IV-C).
pub struct ContrastHead {
    l1: Linear,
    bn: BatchNorm1d,
    l2: Linear,
}

impl ContrastHead {
    /// Builds the bottleneck head: `D -> D/4 -> D`.
    pub fn new(d: usize, rng: &mut Prng) -> Self {
        let hidden = (d / 4).max(2);
        Self {
            l1: Linear::new(d, hidden, rng),
            bn: BatchNorm1d::new(hidden),
            l2: Linear::new(hidden, d, rng),
        }
    }

    /// Maps `[B, D] -> [B, D]`.
    pub fn forward(&self, x: &Var, training: bool) -> Var {
        self.l2.forward(&self.bn.forward(&self.l1.forward(x), training).relu())
    }
}

impl Module for ContrastHead {
    fn parameters(&self) -> Vec<Var> {
        let mut ps = self.l1.parameters();
        ps.extend(self.bn.parameters());
        ps.extend(self.l2.parameters());
        ps
    }
}

/// The full encoder output of one forward pass: the `[CLS]`-led token
/// sequence plus the patched input it must reconstruct.
pub struct Encoded {
    /// Full token embeddings `z ∈ [B, 1+T_p, D]` (Eq. 3).
    pub z: Var,
    /// The patched input `x_patched ∈ [B, T_p, C·P]` — the reconstruction
    /// target of the timestamp-predictive task (Eq. 6).
    pub x_patched: NdArray,
}

impl Encoded {
    /// Instance-level embedding `z_i = z[0, :]` (Eq. 4) under the given
    /// pooling strategy.
    pub fn instance(&self, pooling: Pooling) -> Var {
        pooling.extract(&self.z)
    }

    /// Timestamp-level embeddings `z_t = z[1 : T_p+1, :]` (Eq. 5),
    /// shape `[B, T_p, D]`.
    pub fn timestamps(&self) -> Var {
        let tokens = self.z.shape()[1];
        self.z.slice(1, 1, tokens - 1)
    }
}

/// The TimeDRL model: `f_θ` with its embedding layers and both pretext
/// heads.
pub struct TimeDrl {
    cfg: TimeDrlConfig,
    /// Linear token encoding `W_token ∈ [C·P, D]` (stored input-major).
    token_proj: Linear,
    /// The learnable `[CLS]` token `∈ [C·P]` (Eq. 2).
    cls: Var,
    /// Learnable positional encoding `PE ∈ [1+T_p, D]` (Eq. 3).
    pos: Var,
    /// Backbone `f_θ`.
    encoder: Encoder,
    /// Timestamp-predictive head `p_θ`: a linear layer without activation
    /// (Section IV-B).
    pred_head: Linear,
    /// Instance-contrastive head `c_θ`.
    contrast_head: ContrastHead,
}

impl TimeDrl {
    /// Builds a model from its configuration.
    pub fn new(cfg: TimeDrlConfig) -> Self {
        cfg.validate();
        let mut rng = Prng::new(cfg.seed);
        let token_width = cfg.token_width();
        let d = cfg.d_model;
        let seq = 1 + cfg.num_patches();
        Self {
            token_proj: Linear::new(token_width, d, &mut rng),
            cls: Var::parameter(rng.randn(&[token_width]).scale(0.02)),
            pos: Var::parameter(rng.randn(&[seq, d]).scale(0.02)),
            encoder: Encoder::new(&cfg, &mut rng),
            pred_head: Linear::new(d, token_width, &mut rng),
            contrast_head: ContrastHead::new(d, &mut rng),
            cfg,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &TimeDrlConfig {
        &self.cfg
    }

    /// Applies instance normalization and patching (Eq. 1) to a raw
    /// `[B, T, C]` batch, yielding `x_patched ∈ [B, T_p, C·P]`.
    pub fn prepare(&self, x: &NdArray) -> NdArray {
        assert_eq!(x.rank(), 3, "prepare expects [B, T, C]");
        assert_eq!(x.shape()[1], self.cfg.input_len, "window length mismatch");
        assert_eq!(x.shape()[2], self.cfg.n_features, "feature count mismatch");
        let normalized = instance_normalize(x).expect("rank validated above");
        patch_batch(&normalized, &self.cfg.patch)
    }

    /// One encoder pass over an already-patched batch (Eqs. 2–3): prepend
    /// `[CLS]`, token-encode, add positions, run the backbone.
    pub fn encode_patched(&self, x_patched: &NdArray, ctx: &mut Ctx) -> Encoded {
        let (b, t_p, w) = (x_patched.shape()[0], x_patched.shape()[1], x_patched.shape()[2]);
        assert_eq!(t_p, self.cfg.num_patches(), "patch count mismatch");
        assert_eq!(w, self.cfg.token_width(), "token width mismatch");
        let tokens = Var::constant(x_patched.clone());
        let cls = self.cls.reshape(&[1, 1, w]).broadcast_to(&[b, 1, w]);
        let with_cls = Var::concat(&[cls, tokens], 1); // [B, 1+Tp, C·P]
        let embedded = self.token_proj.forward(&with_cls).add(&self.pos);
        let z = self.encoder.forward(&embedded, ctx);
        Encoded { z, x_patched: x_patched.clone() }
    }

    /// Full pass from a raw `[B, T, C]` batch.
    pub fn encode(&self, x: &NdArray, ctx: &mut Ctx) -> Encoded {
        self.encode_patched(&self.prepare(x), ctx)
    }

    /// The timestamp-predictive head's reconstruction of the patched input
    /// from `z_t` (Eq. 6): `[B, T_p, D] -> [B, T_p, C·P]`.
    pub fn predict_patches(&self, z_t: &Var) -> Var {
        self.pred_head.forward(z_t)
    }

    /// The instance-contrastive head output `ẑ_i = c_θ(z_i)` (Eqs. 14–15).
    pub fn project_instance(&self, z_i: &Var, training: bool) -> Var {
        self.contrast_head.forward(z_i, training)
    }

    /// Frozen-encoder embedding of instances for downstream probes:
    /// `[N, T, C] -> [N, pooled]` in eval mode, processed in chunks.
    pub fn embed_instances(&self, x: &NdArray) -> NdArray {
        self.embed_with(x, |enc| enc.instance(self.cfg.pooling))
    }

    /// Frozen-encoder timestamp embeddings flattened per sample:
    /// `[N, T, C] -> [N, T_p · D]`.
    pub fn embed_timestamps_flat(&self, x: &NdArray) -> NdArray {
        let t_p = self.cfg.num_patches();
        let d = self.cfg.d_model;
        self.embed_with(x, |enc| {
            let b = enc.z.shape()[0];
            enc.timestamps().reshape(&[b, t_p * d])
        })
    }

    /// Saves all parameters to a checkpoint file (stable `parameters()`
    /// order; see `timedrl_tensor::serialize` for the format).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        timedrl_tensor::save_parameters(path, &self.parameters())
    }

    /// Restores parameters from a checkpoint produced by [`TimeDrl::save`]
    /// on a model with the identical configuration.
    pub fn load(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        timedrl_tensor::load_parameters(path, &self.parameters())
    }

    /// Writes the self-describing deployment artifact: configuration header
    /// plus parameters in one `KIND_MODEL` container, consumable standalone
    /// by the compiled inference path (see `crate::export`).
    pub fn export(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        crate::export::export_model(path, self)
    }

    fn embed_with(&self, x: &NdArray, extract: impl Fn(&Encoded) -> Var) -> NdArray {
        assert_eq!(x.rank(), 3, "embed expects [N, T, C]");
        let n = x.shape()[0];
        let chunk = 128;
        let mut parts: Vec<NdArray> = Vec::new();
        let mut ctx = Ctx::eval();
        let mut start = 0;
        while start < n {
            let len = chunk.min(n - start);
            let slice = x.slice(0, start, len).expect("embed chunk");
            let enc = self.encode(&slice, &mut ctx);
            parts.push(extract(&enc).to_array());
            start += len;
        }
        let refs: Vec<&NdArray> = parts.iter().collect();
        NdArray::concat(&refs, 0)
    }
}

impl Module for TimeDrl {
    fn parameters(&self) -> Vec<Var> {
        let mut ps = vec![self.cls.clone(), self.pos.clone()];
        ps.extend(self.token_proj.parameters());
        ps.extend(self.encoder.parameters());
        ps.extend(self.pred_head.parameters());
        ps.extend(self.contrast_head.parameters());
        ps
    }
}

/// Reshapes a `[B, T, C]` batch into `[B·C, T, 1]` univariate samples —
/// the channel-independence treatment of Section V.4 (PatchTST-style).
pub fn channel_independent(x: &NdArray) -> NdArray {
    assert_eq!(x.rank(), 3, "channel_independent expects [B, T, C]");
    let (b, t, c) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    // [B, T, C] -> [B, C, T] -> [B·C, T, 1]
    x.permute(&[0, 2, 1]).reshape(&[b * c, t, 1]).expect("channel fold")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimeDrlConfig;

    fn model() -> TimeDrl {
        TimeDrl::new(TimeDrlConfig::forecasting(64))
    }

    #[test]
    fn encode_shapes_follow_eq_three() {
        let m = model();
        let mut rng = Prng::new(0);
        let x = rng.randn(&[4, 64, 1]);
        let enc = m.encode(&x, &mut Ctx::eval());
        assert_eq!(enc.z.shape(), vec![4, 1 + 8, 32]); // 64/8 patches + CLS
        assert_eq!(enc.x_patched.shape(), &[4, 8, 8]);
        assert_eq!(enc.instance(Pooling::Cls).shape(), vec![4, 32]);
        assert_eq!(enc.timestamps().shape(), vec![4, 8, 32]);
    }

    #[test]
    fn predictive_head_reconstruction_shape() {
        let m = model();
        let mut rng = Prng::new(1);
        let x = rng.randn(&[2, 64, 1]);
        let enc = m.encode(&x, &mut Ctx::eval());
        let recon = m.predict_patches(&enc.timestamps());
        assert_eq!(recon.shape(), enc.x_patched.shape().to_vec());
    }

    #[test]
    fn cls_token_influences_instance_embedding_only_via_attention() {
        // Two different inputs must produce different CLS embeddings —
        // i.e., the CLS token actually aggregates sequence content.
        let m = model();
        let mut rng = Prng::new(2);
        let x1 = rng.randn(&[1, 64, 1]);
        let x2 = rng.randn(&[1, 64, 1]);
        let z1 = m.encode(&x1, &mut Ctx::eval()).instance(Pooling::Cls).to_array();
        let z2 = m.encode(&x2, &mut Ctx::eval()).instance(Pooling::Cls).to_array();
        assert!(z1.max_abs_diff(&z2) > 1e-4);
    }

    #[test]
    fn embed_instances_batches_consistently() {
        // Chunked embedding must equal single-shot embedding.
        let m = model();
        let mut rng = Prng::new(3);
        let x = rng.randn(&[10, 64, 1]);
        let all = m.embed_instances(&x);
        let first = m.embed_instances(&x.slice(0, 0, 3).unwrap());
        assert_eq!(all.shape(), &[10, 32]);
        for i in 0..3 * 32 {
            assert!((all.data()[i] - first.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn channel_independent_layout() {
        // x[b, t, c] = 100b + 10t + c
        let x = NdArray::from_fn(&[2, 3, 2], |flat| {
            let b = flat / 6;
            let t = (flat % 6) / 2;
            let c = flat % 2;
            (100 * b + 10 * t + c) as f32
        });
        let y = channel_independent(&x);
        assert_eq!(y.shape(), &[4, 3, 1]);
        // Sample 0 = batch 0 channel 0: [0, 10, 20].
        assert_eq!(y.at(&[0, 0, 0]), 0.0);
        assert_eq!(y.at(&[0, 2, 0]), 20.0);
        // Sample 1 = batch 0 channel 1: [1, 11, 21].
        assert_eq!(y.at(&[1, 1, 0]), 11.0);
        // Sample 2 = batch 1 channel 0.
        assert_eq!(y.at(&[2, 0, 0]), 100.0);
    }

    #[test]
    fn all_parameters_reachable_from_losses() {
        let m = model();
        let mut rng = Prng::new(4);
        let x = rng.randn(&[2, 64, 1]);
        let mut ctx = Ctx::train(5);
        let enc = m.encode(&x, &mut ctx);
        let recon_loss = m.predict_patches(&enc.timestamps()).mse_loss(&enc.x_patched);
        let proj = m.project_instance(&enc.instance(Pooling::Cls), true);
        let total = recon_loss.add(&proj.powf(2.0).mean());
        total.backward();
        let missing = m
            .parameters()
            .iter()
            .filter(|p| p.grad().is_none())
            .count();
        assert_eq!(missing, 0, "{missing} parameters unreachable");
    }

    #[test]
    fn multichannel_classification_model() {
        let m = TimeDrl::new(TimeDrlConfig::classification(128, 9));
        let mut rng = Prng::new(6);
        let x = rng.randn(&[3, 128, 9]);
        let enc = m.encode(&x, &mut Ctx::eval());
        assert_eq!(enc.z.shape()[0], 3);
        assert_eq!(enc.x_patched.shape()[2], 9 * m.config().patch.patch_len);
    }
}
