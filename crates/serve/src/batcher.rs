//! Micro-batch coalescing: many pending requests, one encoder pass.
//!
//! The TCP server's compute thread drains whatever requests are queued at
//! the instant the encoder goes idle and runs them as a single stacked
//! batch (capped by `max_batch`) — batch size adapts to instantaneous load
//! instead of waiting on a timer. The stream server runs each request
//! through the same path alone. Cached windows are filled from the
//! [`EmbedCache`] and only the misses reach the encoder.
//!
//! Coalescing pays, if slightly: stacked shapes embed a window in less
//! time than batch 1 does (DESIGN.md §13 has the measurement).
//!
//! Coalescing is *semantically invisible*: every compiled kernel is
//! batch-position invariant (each output row depends only on its own
//! window, with ascending-index accumulation — DESIGN.md §13), so a
//! window embeds to the same bits whether it runs alone, stacked with
//! strangers, or is replayed from the cache. `tests/invisibility.rs`
//! byte-compares all three paths.

use crate::cache::EmbedCache;
use crate::compiled::{CompiledModel, Embeddings};
use crate::error::{Result, ServeError};
use timedrl_tensor::NdArray;

/// Where one window of one request gets its embedding from.
enum Source {
    /// Already copied into the output from the cache.
    Cached,
    /// Row `i` of the coalesced miss batch.
    Miss(usize),
}

/// Stacks pending requests into as few encoder passes as possible.
pub struct Batcher {
    max_batch: usize,
}

impl Batcher {
    /// `max_batch` caps the coalesced batch per encoder pass (also the
    /// batch size worth warming the arena for).
    pub fn new(max_batch: usize) -> Self {
        Self { max_batch: max_batch.max(1) }
    }

    /// Largest batch one encoder pass will see.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Embeds every request, serving repeated windows from `cache` (when
    /// given) and coalescing the rest into `max_batch`-sized encoder
    /// passes. Returns one [`Embeddings`] per request, in order,
    /// byte-identical to embedding each request alone with no cache.
    pub fn run(
        &self,
        model: &CompiledModel,
        mut cache: Option<&mut EmbedCache>,
        requests: &[NdArray],
    ) -> Result<Vec<Embeddings>> {
        let (t, c) = (model.input_len(), model.n_features());
        let win = t * c;
        let zi_dim = model.zi_dim();
        let zt_dim = model.num_patches() * model.d_model();

        let mut outputs: Vec<Embeddings> = Vec::with_capacity(requests.len());
        // (request, window-row, source) for every window in arrival order.
        let mut slots: Vec<(usize, usize, Source)> = Vec::new();
        let mut miss_windows: Vec<&[f32]> = Vec::new();

        for (r, req) in requests.iter().enumerate() {
            let shape = req.shape();
            if shape.len() != 3 || shape[1] != t || shape[2] != c {
                return Err(ServeError::BadRequest(format!(
                    "request {r}: expected [B, {t}, {c}] windows, got {shape:?}"
                )));
            }
            let b = shape[0];
            let mut out = Embeddings {
                z_i: NdArray::zeros(&[b, zi_dim]),
                z_t: NdArray::zeros(&[b, model.num_patches(), model.d_model()]),
            };
            for w in 0..b {
                let window = &req.data()[w * win..(w + 1) * win];
                let source = match cache.as_deref_mut().and_then(|ca| ca.lookup(window)) {
                    Some((zi, zt)) => {
                        out.z_i.data_mut()[w * zi_dim..(w + 1) * zi_dim].copy_from_slice(zi);
                        out.z_t.data_mut()[w * zt_dim..(w + 1) * zt_dim].copy_from_slice(zt);
                        Source::Cached
                    }
                    None => {
                        miss_windows.push(window);
                        Source::Miss(miss_windows.len() - 1)
                    }
                };
                slots.push((r, w, source));
            }
            outputs.push(out);
        }

        // Encode the misses, `max_batch` windows per pass.
        let mut miss_zi: Vec<f32> = Vec::with_capacity(miss_windows.len() * zi_dim);
        let mut miss_zt: Vec<f32> = Vec::with_capacity(miss_windows.len() * zt_dim);
        for chunk in miss_windows.chunks(self.max_batch) {
            let mut stacked = NdArray::zeros(&[chunk.len(), t, c]);
            for (i, window) in chunk.iter().enumerate() {
                stacked.data_mut()[i * win..(i + 1) * win].copy_from_slice(window);
            }
            let emb = model.embed(&stacked)?;
            miss_zi.extend_from_slice(emb.z_i.data());
            miss_zt.extend_from_slice(emb.z_t.data());
        }
        for (i, window) in miss_windows.iter().enumerate() {
            if let Some(ca) = cache.as_deref_mut() {
                ca.insert(
                    window,
                    &miss_zi[i * zi_dim..(i + 1) * zi_dim],
                    &miss_zt[i * zt_dim..(i + 1) * zt_dim],
                );
            }
        }

        for (r, w, source) in slots {
            if let Source::Miss(i) = source {
                outputs[r].z_i.data_mut()[w * zi_dim..(w + 1) * zi_dim]
                    .copy_from_slice(&miss_zi[i * zi_dim..(i + 1) * zi_dim]);
                outputs[r].z_t.data_mut()[w * zt_dim..(w + 1) * zt_dim]
                    .copy_from_slice(&miss_zt[i * zt_dim..(i + 1) * zt_dim]);
            }
        }
        Ok(outputs)
    }
}
