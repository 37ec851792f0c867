//! Tape-free compiled inference: a frozen `TimeDrl` encoder run as one
//! straight-line forward over plain [`NdArray`] kernels.
//!
//! The training-time forward pass builds a `Var` tape — one `Rc` graph
//! node per op — even in eval mode, where no gradient will ever flow.
//! [`CompiledModel`] strips that away: at load it resolves every
//! batch-independent shape and validates the checkpoint against the
//! declared architecture. Execution is normalize-and-patch, token
//! embedding, then attention and feed-forward per block, then the
//! `z_i`/`z_t` split, calling the *same* packed [`matmul`] kernels and
//! broadcast arithmetic the tape path calls on its values — attention in
//! particular lowers to the fused tiled kernel ([`attention_fused`],
//! DESIGN.md §17), which is bitwise-equal to the composed
//! `matmul_nt → mask → softmax → matmul` chain without ever materializing
//! the `[B·H, S, S]` score tensor. That is what makes the output
//! bitwise-identical to `TimeDrl::encode` in eval mode (property-tested
//! in `tests/parity.rs`), not merely close.
//!
//! Memory model: every intermediate lives in a pooled tensor buffer
//! (DESIGN.md §10), so the arena is the PR-3 buffer pool itself.
//! [`CompiledModel::warm`] runs one forward at a given batch size to
//! pre-size those buckets (plus [`timedrl_tensor::bufpool::reserve`] for
//! explicit reservations); after that, a request at a warmed batch size
//! performs **zero** heap allocations — gated by `ci.sh`'s serve probe.

use crate::error::{Result, ServeError};
use timedrl::{read_model_export, EncoderKind, ModelExport, Pooling, Precision};
use timedrl_data::InstanceStats;
use timedrl_tensor::{attention_fused, matmul, NdArray};

const EPS: f32 = 1e-5;

/// The frozen output of one embedding request.
#[derive(Debug, Clone)]
pub struct Embeddings {
    /// Instance-level embedding `z_i` — `[B, D]` (`[B, T_p·D]` under
    /// `Pooling::All`).
    pub z_i: NdArray,
    /// Timestamp-level embeddings `z_t` — `[B, T_p, D]`.
    pub z_t: NdArray,
}

/// Weights of one compiled transformer block, stored exactly as the tape
/// path stores them (`Linear` weights are `[in, out]`).
struct Block {
    wq: NdArray,
    bq: NdArray,
    wk: NdArray,
    bk: NdArray,
    wv: NdArray,
    bv: NdArray,
    wo: NdArray,
    bo: NdArray,
    ln1_g: NdArray,
    ln1_b: NdArray,
    ln2_g: NdArray,
    ln2_b: NdArray,
    ff1_w: NdArray,
    ff1_b: NdArray,
    ff2_w: NdArray,
    ff2_b: NdArray,
}

/// A frozen, tape-free TimeDRL encoder: shapes resolved at load, weights
/// owned as plain arrays, executed as one straight-line forward.
pub struct CompiledModel {
    input_len: usize,
    n_features: usize,
    patch_len: usize,
    stride: usize,
    t_p: usize,
    width: usize, // token width C·P
    d: usize,
    heads: usize,
    head_dim: usize,
    pooling: Pooling,
    cls: NdArray,
    pos: NdArray,
    token_w: NdArray,
    token_b: NdArray,
    blocks: Vec<Block>,
    /// Whether attention is causally masked (the decoder variant). The
    /// fused kernel applies the mask per tile; no `[S, S]` constant exists.
    causal: bool,
    /// Timestamp-predictive head `p_θ` (`[D, C·P]` weight + `[C·P]` bias) —
    /// not part of the embedding forward, but the streaming anomaly scorer
    /// reconstructs patches through it.
    pred_w: NdArray,
    pred_b: NdArray,
}

/// Pops the next array and checks its shape against the architecture.
fn take(
    arrays: &mut std::vec::IntoIter<NdArray>,
    name: &str,
    shape: &[usize],
) -> Result<NdArray> {
    let a = arrays
        .next()
        .ok_or_else(|| ServeError::BadModel(format!("missing parameter {name}")))?;
    if a.shape() != shape {
        return Err(ServeError::BadModel(format!(
            "parameter {name}: expected shape {shape:?}, checkpoint has {:?}",
            a.shape()
        )));
    }
    Ok(a)
}

impl CompiledModel {
    /// Loads a `KIND_MODEL` export container (written by `TimeDrl::export`)
    /// and compiles it. Fails with a typed error on any corruption, shape
    /// mismatch, or a backbone without a compiled plan.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::from_export(read_model_export(path)?)
    }

    /// Compiles an already-decoded [`ModelExport`].
    pub fn from_export(export: ModelExport) -> Result<Self> {
        let cfg = &export.config;
        let causal = match cfg.encoder {
            EncoderKind::TransformerEncoder => false,
            EncoderKind::TransformerDecoder => true,
            other => return Err(ServeError::UnsupportedEncoder(other.name())),
        };
        let (width, t_p, d) = (cfg.token_width(), cfg.num_patches(), cfg.d_model);
        let (heads, d_ff, layers) = (cfg.n_heads, cfg.d_ff, cfg.n_layers);
        let s = 1 + t_p;

        let expected = 4 + 16 * layers + 8;
        if export.arrays.len() != expected {
            return Err(ServeError::BadModel(format!(
                "export carries {} arrays, a {layers}-layer transformer needs {expected}",
                export.arrays.len()
            )));
        }
        let mut it = export.arrays.into_iter();
        let cls = take(&mut it, "cls", &[width])?;
        let pos = take(&mut it, "pos", &[s, d])?;
        let token_w = take(&mut it, "token_proj.w", &[width, d])?;
        let token_b = take(&mut it, "token_proj.b", &[d])?;
        let mut blocks = Vec::with_capacity(layers);
        for l in 0..layers {
            let p = |n: &str| format!("block{l}.{n}");
            blocks.push(Block {
                wq: take(&mut it, &p("wq.w"), &[d, d])?,
                bq: take(&mut it, &p("wq.b"), &[d])?,
                wk: take(&mut it, &p("wk.w"), &[d, d])?,
                bk: take(&mut it, &p("wk.b"), &[d])?,
                wv: take(&mut it, &p("wv.w"), &[d, d])?,
                bv: take(&mut it, &p("wv.b"), &[d])?,
                wo: take(&mut it, &p("wo.w"), &[d, d])?,
                bo: take(&mut it, &p("wo.b"), &[d])?,
                ln1_g: take(&mut it, &p("ln1.gamma"), &[d])?,
                ln1_b: take(&mut it, &p("ln1.beta"), &[d])?,
                ln2_g: take(&mut it, &p("ln2.gamma"), &[d])?,
                ln2_b: take(&mut it, &p("ln2.beta"), &[d])?,
                ff1_w: take(&mut it, &p("ff1.w"), &[d, d_ff])?,
                ff1_b: take(&mut it, &p("ff1.b"), &[d_ff])?,
                ff2_w: take(&mut it, &p("ff2.w"), &[d_ff, d])?,
                ff2_b: take(&mut it, &p("ff2.b"), &[d])?,
            });
        }
        // The contrastive head rides along in the export (it IS part of
        // the checkpoint) but plays no role on the frozen embedding path;
        // the predictive head is kept for streaming anomaly scoring.
        let hidden = (d / 4).max(2);
        let pred_w = take(&mut it, "pred_head.w", &[d, width])?;
        let pred_b = take(&mut it, "pred_head.b", &[width])?;
        take(&mut it, "contrast.l1.w", &[d, hidden])?;
        take(&mut it, "contrast.l1.b", &[hidden])?;
        take(&mut it, "contrast.bn.gamma", &[hidden])?;
        take(&mut it, "contrast.bn.beta", &[hidden])?;
        take(&mut it, "contrast.l2.w", &[hidden, d])?;
        take(&mut it, "contrast.l2.b", &[d])?;

        Ok(Self {
            input_len: cfg.input_len,
            n_features: cfg.n_features,
            patch_len: cfg.patch.patch_len,
            stride: cfg.patch.stride,
            t_p,
            width,
            d,
            heads,
            head_dim: d / heads,
            pooling: cfg.pooling,
            cls,
            pos,
            token_w,
            token_b,
            blocks,
            causal,
            pred_w,
            pred_b,
        })
    }

    /// Window length `T` this model was trained on.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Feature count `C` per timestep.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Patch-token count `T_p`.
    pub fn num_patches(&self) -> usize {
        self.t_p
    }

    /// Patch length `P` (timesteps per token).
    pub fn patch_len(&self) -> usize {
        self.patch_len
    }

    /// Stride `S` between patch starts — the streaming engine's hop.
    pub fn patch_stride(&self) -> usize {
        self.stride
    }

    /// Patched token width `C·P`.
    pub fn token_width(&self) -> usize {
        self.width
    }

    /// The instance-embedding pooling strategy baked into the export.
    pub fn pooling(&self) -> Pooling {
        self.pooling
    }

    /// Always [`Precision::Exact`]: the compiled forward is bitwise-equal
    /// to the tape path. It stays because every wire response carries a
    /// precision tag (`protocol::encode_response` takes one), and an export
    /// tagged with the retired relaxed tier still loads and serves exact.
    pub fn precision(&self) -> Precision {
        Precision::Exact
    }

    /// Latent width `D`.
    pub fn d_model(&self) -> usize {
        self.d
    }

    /// Width of one `z_i` row under this model's pooling strategy.
    pub fn zi_dim(&self) -> usize {
        self.pooling.output_dim(self.d, self.t_p)
    }

    /// Runs one forward at batch size `batch` against zeros, pre-sizing
    /// every pool bucket the real execution will request. After warming a
    /// batch size, requests at that size allocate nothing.
    pub fn warm(&self, batch: usize) {
        let zeros = NdArray::zeros(&[batch, self.input_len, self.n_features]);
        let _ = self.embed(&zeros);
    }

    /// Embeds a raw `[B, T, C]` batch of windows: the frozen
    /// `get_representations` surface, bitwise-equal to the eval-mode tape
    /// forward.
    pub fn embed(&self, windows: &NdArray) -> Result<Embeddings> {
        let shape = windows.shape();
        if shape.len() != 3 || shape[1] != self.input_len || shape[2] != self.n_features {
            return Err(ServeError::BadRequest(format!(
                "expected [B, {}, {}] windows, got {shape:?}",
                self.input_len, self.n_features
            )));
        }
        if shape[0] == 0 {
            return Err(ServeError::BadRequest("empty batch".into()));
        }
        self.embed_patched(&self.norm_patch(windows))
    }

    /// Embeds an already instance-normalized, patched `[B, T_p, C·P]`
    /// batch — the forward from token embedding onward. This is the streaming
    /// engine's entry point: it maintains its own window statistics
    /// incrementally and normalizes cached patch tokens itself, then runs
    /// the identical transformer forward, so a streaming hop with exact
    /// statistics is bitwise-equal to [`CompiledModel::embed`] on the
    /// materialized window.
    pub fn embed_patched(&self, patched: &NdArray) -> Result<Embeddings> {
        let shape = patched.shape();
        if shape.len() != 3 || shape[1] != self.t_p || shape[2] != self.width {
            return Err(ServeError::BadRequest(format!(
                "expected [B, {}, {}] patched tokens, got {shape:?}",
                self.t_p, self.width
            )));
        }
        if shape[0] == 0 {
            return Err(ServeError::BadRequest("empty batch".into()));
        }
        let mut h = self.embed_tokens(patched)?;
        for i in 0..self.blocks.len() {
            h = self.attention(i, &h)?;
            h = self.feed_forward(i, &h)?;
        }
        self.split(&h)
    }

    /// The timestamp-predictive head's reconstruction of the patched input
    /// from `z_t` (Eq. 6): `[B, T_p, D] -> [B, T_p, C·P]` — the same
    /// arithmetic as the tape path's `TimeDrl::predict_patches`, used by
    /// the streaming anomaly scorer.
    pub fn reconstruct(&self, z_t: &NdArray) -> Result<NdArray> {
        let shape = z_t.shape();
        if shape.len() != 3 || shape[1] != self.t_p || shape[2] != self.d {
            return Err(ServeError::BadRequest(format!(
                "expected [B, {}, {}] timestamp embeddings, got {shape:?}",
                self.t_p, self.d
            )));
        }
        Ok(matmul(z_t, &self.pred_w)?.add(&self.pred_b))
    }

    /// Instance-normalize + patch. The statistics come from the shared
    /// [`InstanceStats`] definition (the same arithmetic `instance_normalize`
    /// and the streaming engine's exact recompute use), and the patch copy
    /// writes straight into one pooled output block (no per-sample `Vec`s).
    fn norm_patch(&self, x: &NdArray) -> NdArray {
        let b = x.shape()[0];
        let c = self.n_features;
        let mut out = NdArray::zeros(&[b, self.t_p, self.width]);
        for i in 0..b {
            let xi = x.index_axis0(i); // [T, C]
            let norm = InstanceStats::compute(&xi).apply(&xi);
            let src = norm.data();
            let dst = &mut out.data_mut()[i * self.t_p * self.width..];
            for p in 0..self.t_p {
                let start = p * self.stride * c;
                dst[p * self.width..(p + 1) * self.width]
                    .copy_from_slice(&src[start..start + self.patch_len * c]);
            }
        }
        out
    }

    /// `[CLS]` prepend + linear token encoding + positional encoding.
    fn embed_tokens(&self, patched: &NdArray) -> Result<NdArray> {
        let b = patched.shape()[0];
        let cls = self.cls.reshape(&[1, 1, self.width])?.broadcast_to(&[b, 1, self.width])?;
        let with_cls = NdArray::concat(&[&cls, patched], 1);
        Ok(matmul(&with_cls, &self.token_w)?.add(&self.token_b).add(&self.pos))
    }

    /// `[B, S, D] -> [B·H, S, Dh]`, the tape's reshape/permute/reshape.
    fn split_heads(&self, x: &NdArray, b: usize, s: usize) -> Result<NdArray> {
        Ok(x.reshape(&[b, s, self.heads, self.head_dim])?
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * self.heads, s, self.head_dim])?)
    }

    fn attention(&self, i: usize, h: &NdArray) -> Result<NdArray> {
        let blk = &self.blocks[i];
        let (b, s, d) = (h.shape()[0], h.shape()[1], h.shape()[2]);
        let q = self.split_heads(&matmul(h, &blk.wq)?.add(&blk.bq), b, s)?;
        let k = self.split_heads(&matmul(h, &blk.wk)?.add(&blk.bk), b, s)?;
        let v = self.split_heads(&matmul(h, &blk.wv)?.add(&blk.bv), b, s)?;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // The fused tiled kernel is bit-for-bit equal to the composed chain
        // and never materializes [B·H, S, S].
        let merged = attention_fused(&q, &k, &v, scale, self.causal, None)?
            .reshape(&[b, self.heads, s, self.head_dim])?
            .permute(&[0, 2, 1, 3])
            .reshape(&[b, s, d])?;
        let attn_out = matmul(&merged, &blk.wo)?.add(&blk.bo);
        Ok(layer_norm(&h.add(&attn_out), &blk.ln1_g, &blk.ln1_b))
    }

    fn feed_forward(&self, i: usize, h: &NdArray) -> Result<NdArray> {
        let blk = &self.blocks[i];
        let a = gelu(&matmul(h, &blk.ff1_w)?.add(&blk.ff1_b));
        let ff = matmul(&a, &blk.ff2_w)?.add(&blk.ff2_b);
        Ok(layer_norm(&h.add(&ff), &blk.ln2_g, &blk.ln2_b))
    }

    /// Pooling + `z_t` slice off the final token sequence `z ∈ [B, S, D]`.
    fn split(&self, z: &NdArray) -> Result<Embeddings> {
        let (b, tokens, d) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        let t_p = tokens - 1;
        let z_i = match self.pooling {
            Pooling::Cls => z.slice(1, 0, 1)?.reshape(&[b, d])?,
            Pooling::Last => z.slice(1, tokens - 1, 1)?.reshape(&[b, d])?,
            Pooling::Gap => z.slice(1, 1, t_p)?.mean_axis(1, false),
            Pooling::All => z.slice(1, 1, t_p)?.reshape(&[b, t_p * d])?,
        };
        let z_t = z.slice(1, 1, t_p)?;
        Ok(Embeddings { z_i, z_t })
    }
}

/// The tape's LayerNorm value chain, verbatim: mean over the last axis,
/// center, population variance, `(x−μ)/√(σ²+ε) · γ + β`.
fn layer_norm(x: &NdArray, gamma: &NdArray, beta: &NdArray) -> NdArray {
    let last = x.rank() - 1;
    let mean = x.mean_axis(last, true);
    let centered = x.sub(&mean);
    let var = centered.mul(&centered).mean_axis(last, true);
    let std = var.add_scalar(EPS).sqrt();
    centered.div(&std).mul(gamma).add(beta)
}

/// The tape's tanh-approximation GELU, same constants and expression.
fn gelu(x: &NdArray) -> NdArray {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    const A: f32 = 0.044_715;
    x.map(|v| {
        let u = C * (v + A * v * v * v);
        0.5 * v * (1.0 + u.tanh())
    })
}
