//! Tick-by-tick streaming encoder on top of the compiled batch model.
//!
//! # Incremental model
//!
//! The batch path encodes a `[T, C]` window as: instance-normalize over
//! the window, patch into `T_p` tokens (patch length `P`, stride `S`),
//! then run the transformer plan. A stream that re-ran this from scratch
//! every tick would pay the full encode `T/S`-fold redundantly: after
//! `S` new samples, `T_p − 1` of the new window's *raw* patches are
//! byte-identical to the previous window's (patch `p` of the new window
//! is patch `p + 1` of the old).
//!
//! The engine therefore:
//!
//! 1. buffers samples in a [`SlidingWindow`] ring and only *encodes* on
//!    **hop ticks** — when the window is full and the newest sample
//!    completes a fresh patch (`(ticks − T) % S == 0`);
//! 2. keeps the **raw** (un-normalized) patch tokens in a second ring,
//!    gathering only the one newly-completed patch per hop;
//! 3. normalizes the cached tokens per-element with the window's
//!    current per-channel `(x − μ) / σ` — which produces the *same bits*
//!    as the batch normalize-then-patch order, given the same `μ, σ`;
//! 4. feeds the normalized tokens to [`CompiledModel::embed_patched`],
//!    the identical kernels the batch path runs after patching —
//!    attention included, which lowers to the fused tiled kernel
//!    (DESIGN.md §17): a hop never materializes `[B·H, T, T]` scores,
//!    and the warmed steady-state tick stays at zero heap allocations.
//!
//! # The ε contract
//!
//! Statistics come from two sources. On **exact hops** (the first hop,
//! and every `recompute_every`-th after), `μ, σ` are recomputed with
//! the batch `f32` arithmetic on the materialized window — the engine's
//! output is then **bitwise identical** to `CompiledModel::embed` of
//! that window, and the `f64` running accumulators are reseeded so
//! drift cannot compound across periods. Between exact hops, `μ, σ`
//! come from `f64` Welford remove/add updates — within rounding noise
//! of the batch values, so embeddings agree to a small ε (documented
//! and property-tested in `tests/equivalence.rs`).
//!
//! Steady-state ticks are allocation-free after [`StreamingEncoder::warm`]:
//! every intermediate lives in the process-wide tensor buffer pool, and
//! the engine's own rings and stat scratch are preallocated.

use timedrl_data::InstanceStats;
use timedrl_serve::{CompiledModel, Embeddings};
use timedrl_tensor::NdArray;

use crate::error::StreamError;
use crate::window::SlidingWindow;

/// One encoded hop: everything downstream consumers (anomaly scoring,
/// forecasting) need from the model at this tick.
pub struct StreamUpdate {
    /// Instance-level embedding `[1, D]` (`[1, T_p·D]` under `Pooling::All`).
    pub z_i: NdArray,
    /// Timestamp-level embeddings `[1, T_p, D]`.
    pub z_t: NdArray,
    /// The normalized patched input `[1, T_p, C·P]` the model saw —
    /// the reconstruction target for anomaly scoring.
    pub x_patched: NdArray,
    /// True when the window statistics were exactly recomputed this hop
    /// (output bitwise-equal to the batch path).
    pub exact: bool,
    /// Stream tick (total samples pushed) at which this hop fired.
    pub tick: u64,
}

/// Streaming encoder: owns the compiled model and the incremental state.
pub struct StreamingEncoder {
    model: CompiledModel,
    window: SlidingWindow,
    /// `[T_p, C·P]` ring of *raw* (un-normalized) patch tokens.
    raw_tokens: NdArray,
    /// Row index of logical patch 0 in `raw_tokens`.
    token_head: usize,
    /// False until the first hop gathers all `T_p` patches.
    tokens_primed: bool,
    /// Scratch for the normalized tokens, `[1, T_p, C·P]`.
    normed: NdArray,
    /// Current per-channel stats used to normalize.
    mean: Vec<f32>,
    std: Vec<f32>,
    recompute_every: usize,
    hops_since_exact: usize,
    hops: u64,
}

impl StreamingEncoder {
    /// Builds an engine over `model`. `recompute_every` is the exact-stats
    /// period in hops: `1` recomputes every hop (always bitwise with the
    /// batch path), `k` lets the cheap incremental stats run for `k − 1`
    /// hops between exact ones.
    pub fn new(model: CompiledModel, recompute_every: usize) -> Result<Self, StreamError> {
        if recompute_every == 0 {
            return Err(StreamError::BadConfig(
                "recompute_every must be at least 1".into(),
            ));
        }
        let t = model.input_len();
        let width = model.token_width();
        let channels = width / model.patch_len();
        let t_p = model.num_patches();
        Ok(Self {
            window: SlidingWindow::new(t, channels)?,
            raw_tokens: NdArray::zeros(&[t_p, width]),
            token_head: 0,
            tokens_primed: false,
            normed: NdArray::zeros(&[1, t_p, width]),
            mean: vec![0.0; channels],
            std: vec![0.0; channels],
            recompute_every,
            hops_since_exact: 0,
            hops: 0,
            model,
        })
    }

    /// Channels per sample.
    pub fn channels(&self) -> usize {
        self.window.channels()
    }

    /// Window length `T` in ticks.
    pub fn window_len(&self) -> usize {
        self.window.capacity()
    }

    /// Hops encoded so far.
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Total samples pushed so far.
    pub fn ticks(&self) -> u64 {
        self.window.ticks()
    }

    /// The compiled model this engine encodes with.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// The per-channel `(mean, std)` the most recent hop normalized with.
    /// Forecast consumers use these to denormalize predictions back to
    /// the input scale (RevIN).
    pub fn stats(&self) -> (&[f32], &[f32]) {
        (&self.mean, &self.std)
    }

    /// Pushes one sample. Returns `Ok(Some(update))` on hop ticks — when
    /// the newest sample completes a fresh patch — and `Ok(None)` on
    /// buffering ticks.
    pub fn push(&mut self, sample: &[f32]) -> Result<Option<StreamUpdate>, StreamError> {
        if sample.len() != self.channels() {
            return Err(StreamError::BadSample {
                expected: self.channels(),
                got: sample.len(),
            });
        }
        self.window.push(sample);
        let t = self.window.capacity() as u64;
        let ticks = self.window.ticks();
        if ticks < t || (ticks - t) % self.model.patch_stride() as u64 != 0 {
            return Ok(None);
        }
        self.encode_hop(ticks).map(Some)
    }

    /// Encodes the current window incrementally; `push` calls this on
    /// hop ticks.
    fn encode_hop(&mut self, tick: u64) -> Result<StreamUpdate, StreamError> {
        let t_p = self.model.num_patches();
        let p = self.model.patch_len();
        let s = self.model.patch_stride();
        let width = self.model.token_width();

        // Refresh the raw-token ring: one new patch per hop, all of them
        // on the first.
        if self.tokens_primed {
            // Logical patch p of the new window is patch p + 1 of the
            // old, so the head advances and the dropped patch's row is
            // reused for the newly completed one.
            let reuse = self.token_head;
            self.token_head = (self.token_head + 1) % t_p;
            let dst = &mut self.raw_tokens.data_mut()[reuse * width..(reuse + 1) * width];
            self.window.copy_logical_rows_into((t_p - 1) * s, p, dst);
        } else {
            for patch in 0..t_p {
                let dst = &mut self.raw_tokens.data_mut()[patch * width..(patch + 1) * width];
                self.window.copy_logical_rows_into(patch * s, p, dst);
            }
            self.token_head = 0;
            self.tokens_primed = true;
        }

        // Refresh the normalization statistics. The first hop is always
        // exact so the stream starts bitwise-aligned with the batch path.
        let exact = self.hops == 0 || self.hops_since_exact + 1 >= self.recompute_every;
        if exact {
            let stats = self.window.exact_stats();
            self.mean.copy_from_slice(stats.mean.data());
            self.std.copy_from_slice(stats.std.data());
            self.window.reset_stats_from_buffer();
            self.hops_since_exact = 0;
        } else {
            self.window.write_running_stats(&mut self.mean, &mut self.std);
            self.hops_since_exact += 1;
        }

        // Normalize the cached raw tokens into the scratch in logical
        // order. Element j of a token is channel j % C, and per-element
        // `(x − μ) / σ` in f32 matches the batch broadcast sub-then-div
        // bit for bit.
        let channels = self.window.channels();
        {
            let raw = self.raw_tokens.data();
            let out = self.normed.data_mut();
            for patch in 0..t_p {
                let src = (self.token_head + patch) % t_p;
                for j in 0..width {
                    let c = j % channels;
                    out[patch * width + j] =
                        (raw[src * width + j] - self.mean[c]) / self.std[c];
                }
            }
        }

        let Embeddings { z_i, z_t } = self.model.embed_patched(&self.normed)?;
        self.hops += 1;
        Ok(StreamUpdate {
            z_i,
            z_t,
            x_patched: self.normed.clone(),
            exact,
            tick,
        })
    }

    /// Per-patch reconstruction errors and the window anomaly score for
    /// a hop: the compiled prediction head reconstructs the normalized
    /// patched input from `z_t`, scored exactly like the batch
    /// `anomaly_scores` path.
    pub fn reconstruction_error(
        &self,
        update: &StreamUpdate,
    ) -> Result<(NdArray, f32), StreamError> {
        let recon = self.model.reconstruct(&update.z_t)?;
        let per_patch = timedrl::patch_errors(&recon, &update.x_patched);
        let score = timedrl::window_score(per_patch.data());
        Ok((per_patch, score))
    }

    /// Pre-populates the tensor buffer pool with every intermediate the
    /// hop path uses, so steady-state ticks allocate nothing. Call once
    /// before entering the hot loop.
    pub fn warm(&mut self) {
        let t_p = self.model.num_patches();
        let d = self.model.d_model();
        let width = self.model.token_width();
        for _ in 0..2 {
            self.model.warm(1);
            let z = NdArray::zeros(&[1, t_p, d]);
            if let Ok(recon) = self.model.reconstruct(&z) {
                let _ = timedrl::patch_errors(&recon, &NdArray::zeros(&[1, t_p, width]));
            }
            // The exact-stats hop materializes a [T, C] window and runs
            // the batch f32 reductions on it.
            let full = NdArray::zeros(&[self.window.capacity(), self.window.channels()]);
            let _ = InstanceStats::compute(&full);
            let _ = self.normed.clone();
        }
    }
}
