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
use timedrl_tensor::{
    attention_fused, attention_fused_relaxed, matmul, matmul_q8, quantize_per_channel, NdArray,
    QuantizedMatrix,
};

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

/// A compiled linear-layer weight in whichever form the exactness tier
/// lowered it to: the exact tier keeps the checkpoint's f32 matrix, the
/// relaxed tier quantizes it per output channel at load time (DESIGN.md
/// §15) so requests hit the int8 GEMM.
enum Weight {
    Exact(NdArray),
    Quantized(QuantizedMatrix),
}

impl Weight {
    /// Lowers a `[in, out]` checkpoint matrix for the chosen tier.
    fn lower(w: NdArray, precision: Precision) -> Result<Self> {
        Ok(match precision {
            Precision::Exact => Weight::Exact(w),
            Precision::Relaxed => Weight::Quantized(quantize_per_channel(&w)?),
        })
    }

    /// `x · w` through the tier's kernel.
    fn matmul(&self, x: &NdArray) -> Result<NdArray> {
        Ok(match self {
            Weight::Exact(w) => matmul(x, w)?,
            Weight::Quantized(q) => matmul_q8(x, q)?,
        })
    }
}

/// Weights of one compiled transformer block. Matrix weights are stored
/// per-tier ([`Weight`]); vectors (biases, LayerNorm affine) stay f32 in
/// both tiers, exactly as the tape path stores them (`Linear` weights are
/// `[in, out]`).
struct Block {
    wq: Weight,
    bq: NdArray,
    wk: Weight,
    bk: NdArray,
    wv: Weight,
    bv: NdArray,
    wo: Weight,
    bo: NdArray,
    ln1_g: NdArray,
    ln1_b: NdArray,
    ln2_g: NdArray,
    ln2_b: NdArray,
    ff1_w: Weight,
    ff1_b: NdArray,
    ff2_w: Weight,
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
    precision: Precision,
    cls: NdArray,
    pos: NdArray,
    token_w: Weight,
    token_b: NdArray,
    blocks: Vec<Block>,
    /// Whether attention is causally masked (the decoder variant). The
    /// fused kernel applies the mask per tile; no `[S, S]` constant exists.
    causal: bool,
    /// Timestamp-predictive head `p_θ` (`[D, C·P]` weight + `[C·P]` bias) —
    /// not part of the embedding forward, but the streaming anomaly scorer
    /// reconstructs patches through it.
    pred_w: Weight,
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
    /// and compiles it at the exactness tier baked into the artifact
    /// header. Fails with a typed error on any corruption, shape mismatch,
    /// or a backbone without a compiled plan.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::from_export(read_model_export(path)?)
    }

    /// Loads an export container and compiles it at an explicit tier,
    /// overriding the artifact's own tag — the `--precision` escape hatch
    /// of `embed_server`.
    pub fn load_with(path: impl AsRef<std::path::Path>, precision: Precision) -> Result<Self> {
        Self::from_export_with(read_model_export(path)?, precision)
    }

    /// Compiles an already-decoded [`ModelExport`] at the tier its header
    /// opts into.
    pub fn from_export(export: ModelExport) -> Result<Self> {
        let precision = export.precision;
        Self::from_export_with(export, precision)
    }

    /// Compiles an already-decoded [`ModelExport`] at an explicit tier.
    /// Under [`Precision::Relaxed`], every linear-layer matrix (token
    /// projection, attention projections, feed-forward, predictive head)
    /// is quantized per output channel here — once, at load time — and
    /// activation·activation products run the FMA kernels; softmax,
    /// LayerNorm, GELU, and every bias stay f32.
    pub fn from_export_with(export: ModelExport, precision: Precision) -> Result<Self> {
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
        let token_w = Weight::lower(take(&mut it, "token_proj.w", &[width, d])?, precision)?;
        let token_b = take(&mut it, "token_proj.b", &[d])?;
        let mut blocks = Vec::with_capacity(layers);
        for l in 0..layers {
            let p = |n: &str| format!("block{l}.{n}");
            blocks.push(Block {
                wq: Weight::lower(take(&mut it, &p("wq.w"), &[d, d])?, precision)?,
                bq: take(&mut it, &p("wq.b"), &[d])?,
                wk: Weight::lower(take(&mut it, &p("wk.w"), &[d, d])?, precision)?,
                bk: take(&mut it, &p("wk.b"), &[d])?,
                wv: Weight::lower(take(&mut it, &p("wv.w"), &[d, d])?, precision)?,
                bv: take(&mut it, &p("wv.b"), &[d])?,
                wo: Weight::lower(take(&mut it, &p("wo.w"), &[d, d])?, precision)?,
                bo: take(&mut it, &p("wo.b"), &[d])?,
                ln1_g: take(&mut it, &p("ln1.gamma"), &[d])?,
                ln1_b: take(&mut it, &p("ln1.beta"), &[d])?,
                ln2_g: take(&mut it, &p("ln2.gamma"), &[d])?,
                ln2_b: take(&mut it, &p("ln2.beta"), &[d])?,
                ff1_w: Weight::lower(take(&mut it, &p("ff1.w"), &[d, d_ff])?, precision)?,
                ff1_b: take(&mut it, &p("ff1.b"), &[d_ff])?,
                ff2_w: Weight::lower(take(&mut it, &p("ff2.w"), &[d_ff, d])?, precision)?,
                ff2_b: take(&mut it, &p("ff2.b"), &[d])?,
            });
        }
        // The contrastive head rides along in the export (it IS part of
        // the checkpoint) but plays no role on the frozen embedding path;
        // the predictive head is kept for streaming anomaly scoring.
        let hidden = (d / 4).max(2);
        let pred_w = Weight::lower(take(&mut it, "pred_head.w", &[d, width])?, precision)?;
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
            precision,
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

    /// The exactness tier this model was compiled at. Tagged onto every
    /// wire response so clients can never mistake relaxed embeddings for
    /// bit-exact ones.
    pub fn precision(&self) -> Precision {
        self.precision
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
        Ok(self.pred_w.matmul(z_t)?.add(&self.pred_b))
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
        Ok(self.token_w.matmul(&with_cls)?.add(&self.token_b).add(&self.pos))
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
        let q = self.split_heads(&blk.wq.matmul(h)?.add(&blk.bq), b, s)?;
        let k = self.split_heads(&blk.wk.matmul(h)?.add(&blk.bk), b, s)?;
        let v = self.split_heads(&blk.wv.matmul(h)?.add(&blk.bv), b, s)?;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // The exact tier runs the fused tiled kernel bit-for-bit equal to
        // the old composed chain; the relaxed tier takes the single-pass
        // online-softmax FMA variant. Neither materializes [B·H, S, S].
        let merged = match self.precision {
            Precision::Exact => attention_fused(&q, &k, &v, scale, self.causal, None)?,
            Precision::Relaxed => attention_fused_relaxed(&q, &k, &v, scale, self.causal)?,
        }
        .reshape(&[b, self.heads, s, self.head_dim])?
        .permute(&[0, 2, 1, 3])
        .reshape(&[b, s, d])?;
        let attn_out = blk.wo.matmul(&merged)?.add(&blk.bo);
        Ok(layer_norm(&h.add(&attn_out), &blk.ln1_g, &blk.ln1_b))
    }

    fn feed_forward(&self, i: usize, h: &NdArray) -> Result<NdArray> {
        let blk = &self.blocks[i];
        let a = gelu(&blk.ff1_w.matmul(h)?.add(&blk.ff1_b));
        let ff = blk.ff2_w.matmul(&a)?.add(&blk.ff2_b);
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
