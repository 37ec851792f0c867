//! Self-describing model export: the deployment artifact behind the
//! compiled inference path (`timedrl-serve`).
//!
//! A parameter checkpoint ([`TimeDrl::save`]) deliberately carries *no*
//! configuration — loading one requires a model built from the identical
//! `TimeDrlConfig`. That is the right contract for resuming training, but
//! a serving process should not have to reconstruct a config out of band.
//! The export container bundles an inference-config header with the
//! parameter arrays in one `KIND_MODEL` v2 container:
//!
//! ```text
//! u64 input_len   u64 n_features   u64 patch_len   u64 stride
//! u64 d_model     u64 n_heads      u64 d_ff        u64 n_layers
//! u32 encoder-tag u32 pooling-tag  u32 precision-tag
//! arrays section (u32 count, then each array — stable parameters() order)
//! ```
//!
//! Writers always stamp precision tag 0 (exact). Readers accept tag 1 too,
//! which artifacts from the retired relaxed serving tier carry; such an
//! artifact's arrays are plain f32 and it serves exact (DESIGN.md §15).
//!
//! Only the fields that shape the frozen forward pass are encoded;
//! training-only knobs (dropout rate, λ, optimizer settings) are
//! irrelevant in eval mode and reconstructed as inert defaults. The frame
//! inherits every v2 container guarantee: CRC-32 over the payload, bounded
//! incremental reads, typed `InvalidData` errors on any corruption.

use crate::config::{EncoderKind, TimeDrlConfig};
use crate::model::TimeDrl;
use crate::pooling::Pooling;
use std::io;
use std::path::Path;
use timedrl_data::{Augmentation, PatchConfig};
use timedrl_nn::Module;
use timedrl_tensor::{
    decode_arrays, encode_arrays, read_file, write_file_atomic, ByteReader, NdArray, KIND_MODEL,
};

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Exactness tier named by the `u32` precision tag in export headers and
/// wire responses (DESIGN.md §15).
///
/// Every forward this crate and `timedrl-serve` run is [`Precision::Exact`].
/// [`Precision::Relaxed`] stays so that tag 1 still decodes: artifacts
/// written by the retired relaxed tier load (and serve exact), and a client
/// comparing bytes can still name and refuse a frame tagged relaxed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// The bit-exactness contract of DESIGN.md §10: identical results to
    /// the training tape, thread-count invariant, byte-comparable against
    /// goldens.
    #[default]
    Exact,
    /// Tag 1, written by the retired int8/FMA serving tier. Its results
    /// were not bit-equal to the exact tier.
    Relaxed,
}

impl Precision {
    /// Stable tag order for container headers and wire responses.
    pub const ALL: [Precision; 2] = [Precision::Exact, Precision::Relaxed];

    /// The stable `u32` tag used in export headers and wire responses.
    pub fn tag(self) -> u32 {
        Self::ALL.iter().position(|p| *p == self).expect("precision in ALL") as u32
    }

    /// Inverse of [`Precision::tag`]; `None` for an unknown tag.
    pub fn from_tag(tag: u32) -> Option<Precision> {
        Self::ALL.get(tag as usize).copied()
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::Exact => "exact",
            Precision::Relaxed => "relaxed",
        })
    }
}

/// A decoded `KIND_MODEL` container: the inference configuration plus the
/// parameter arrays in stable `parameters()` order.
#[derive(Debug)]
pub struct ModelExport {
    /// Inference-shaped configuration (training-only fields are inert
    /// defaults: dropout 0, zero epochs).
    pub config: TimeDrlConfig,
    /// Parameter arrays, in the same order `TimeDrl::parameters` yields.
    pub arrays: Vec<NdArray>,
}

impl ModelExport {
    /// Rebuilds a full tape-path [`TimeDrl`] from this export: constructs
    /// the model from the embedded config and overwrites every parameter.
    ///
    /// # Errors
    /// `InvalidData` when the array count or any shape disagrees with the
    /// architecture the header describes.
    pub fn instantiate(&self) -> io::Result<TimeDrl> {
        let model = TimeDrl::new(self.config.clone());
        let params = model.parameters();
        if params.len() != self.arrays.len() {
            return Err(invalid(format!(
                "export carries {} arrays, architecture has {} parameters",
                self.arrays.len(),
                params.len()
            )));
        }
        for (i, (p, a)) in params.iter().zip(&self.arrays).enumerate() {
            if p.shape() != a.shape() {
                return Err(invalid(format!(
                    "parameter {i}: architecture shape {:?} vs export {:?}",
                    p.shape(),
                    a.shape()
                )));
            }
            p.set_value(a.clone());
        }
        Ok(model)
    }
}

fn encoder_tag(kind: EncoderKind) -> u32 {
    EncoderKind::ALL.iter().position(|k| *k == kind).expect("kind in ALL") as u32
}

fn pooling_tag(p: Pooling) -> u32 {
    Pooling::ALL.iter().position(|q| *q == p).expect("pooling in ALL") as u32
}

/// Encodes the full export payload (kind tag + header + arrays), tagged
/// [`Precision::Exact`]. Exposed separately from [`export_model`] so tests
/// can corrupt the bytes in memory.
pub fn encode_model_export(model: &TimeDrl) -> Vec<u8> {
    let cfg = model.config();
    let mut payload = Vec::new();
    payload.extend_from_slice(&KIND_MODEL.to_le_bytes());
    for dim in [
        cfg.input_len,
        cfg.n_features,
        cfg.patch.patch_len,
        cfg.patch.stride,
        cfg.d_model,
        cfg.n_heads,
        cfg.d_ff,
        cfg.n_layers,
    ] {
        payload.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    payload.extend_from_slice(&encoder_tag(cfg.encoder).to_le_bytes());
    payload.extend_from_slice(&pooling_tag(cfg.pooling).to_le_bytes());
    payload.extend_from_slice(&Precision::Exact.tag().to_le_bytes());
    let arrays: Vec<NdArray> = model.parameters().iter().map(|p| p.to_array()).collect();
    let refs: Vec<&NdArray> = arrays.iter().collect();
    encode_arrays(&mut payload, &refs);
    payload
}

/// Decodes an export payload body (kind tag already consumed by the
/// container reader). Every header field and array is bounds-checked; a
/// corrupt header yields `InvalidData`, never a panic or over-allocation.
/// The precision tag must name a [`Precision`]; either tier decodes to the
/// same f32 export.
pub fn decode_model_export(payload: &[u8]) -> io::Result<ModelExport> {
    let mut r = ByteReader::new(payload);
    let mut dims = [0usize; 8];
    for d in &mut dims {
        let v = r.u64()?;
        *d = usize::try_from(v).map_err(|_| invalid(format!("header dimension {v} overflows")))?;
    }
    let [input_len, n_features, patch_len, stride, d_model, n_heads, d_ff, n_layers] = dims;
    let enc = r.u32()?;
    let encoder = *EncoderKind::ALL
        .get(enc as usize)
        .ok_or_else(|| invalid(format!("unknown encoder tag {enc}")))?;
    let pool = r.u32()?;
    let pooling = *Pooling::ALL
        .get(pool as usize)
        .ok_or_else(|| invalid(format!("unknown pooling tag {pool}")))?;
    let prec = r.u32()?;
    Precision::from_tag(prec).ok_or_else(|| invalid(format!("unknown precision tag {prec}")))?;
    let config = TimeDrlConfig {
        input_len,
        n_features,
        patch: PatchConfig { patch_len, stride },
        d_model,
        n_heads,
        d_ff,
        n_layers,
        dropout: 0.0,
        encoder,
        lambda: 1.0,
        stop_gradient: true,
        augmentation: Augmentation::None,
        pooling,
        channel_independence: n_features == 1,
        lr: 1e-3,
        weight_decay: 0.0,
        batch_size: 1,
        epochs: 0,
        seed: 0,
        micro_batch: None,
        checkpoint_every: None,
        checkpoint_path: None,
        resume_from: None,
    };
    if patch_len == 0 || stride == 0 {
        return Err(invalid("export header: zero patch length or stride"));
    }
    config.check().map_err(|msg| invalid(format!("export header invalid: {msg}")))?;
    let arrays = decode_arrays(&mut r)?;
    r.finish()?;
    Ok(ModelExport { config, arrays })
}

/// Atomically writes a model's self-describing export container to `path`
/// (temp file + fsync + rename, like every other checkpoint writer).
pub fn export_model(path: impl AsRef<Path>, model: &TimeDrl) -> io::Result<()> {
    write_file_atomic(path, &encode_model_export(model))
}

/// Reads and validates a `KIND_MODEL` export container from `path`.
///
/// # Errors
/// `InvalidData` on bad magic/version/kind, checksum mismatch, truncation,
/// an invalid header, or corrupt array metadata.
pub fn read_model_export(path: impl AsRef<Path>) -> io::Result<ModelExport> {
    decode_model_export(&read_file(path, KIND_MODEL)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timedrl_nn::Ctx;
    use timedrl_tensor::Prng;

    fn tiny_model() -> TimeDrl {
        let mut cfg = TimeDrlConfig::forecasting(16);
        cfg.patch = PatchConfig::non_overlapping(4);
        cfg.d_model = 8;
        cfg.n_heads = 2;
        cfg.d_ff = 8;
        cfg.n_layers = 1;
        cfg.seed = 11;
        TimeDrl::new(cfg)
    }

    #[test]
    fn export_roundtrips_config_and_parameters() {
        let model = tiny_model();
        let payload = encode_model_export(&model);
        let export = decode_model_export(&payload[4..]).unwrap();
        assert_eq!(export.config.input_len, 16);
        assert_eq!(export.config.d_model, 8);
        assert_eq!(export.config.encoder, EncoderKind::TransformerEncoder);
        assert_eq!(export.config.pooling, Pooling::Cls);
        let params = model.parameters();
        assert_eq!(export.arrays.len(), params.len());
        for (p, a) in params.iter().zip(&export.arrays) {
            assert_eq!(p.to_array(), *a);
        }
    }

    #[test]
    fn instantiated_model_forward_matches_original() {
        let model = tiny_model();
        let dir = std::env::temp_dir().join("timedrl_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model_export.tdrl");
        export_model(&path, &model).unwrap();
        let rebuilt = read_model_export(&path).unwrap().instantiate().unwrap();
        let x = Prng::new(3).randn(&[2, 16, 1]);
        let a = model.encode(&x, &mut Ctx::eval());
        let b = rebuilt.encode(&x, &mut Ctx::eval());
        assert_eq!(a.z.to_array(), b.z.to_array());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_kind_container_is_rejected() {
        let model = tiny_model();
        let dir = std::env::temp_dir().join("timedrl_export_kind_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("params.tdrl");
        model.save(&ckpt).unwrap(); // KIND_ARRAYS, not KIND_MODEL
        let err = read_model_export(&ckpt).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_header_tags_are_typed_errors() {
        let model = tiny_model();
        let payload = encode_model_export(&model);
        // Encoder tag sits at offset 4 (kind) + 64 (8 dims).
        let mut bad = payload[4..].to_vec();
        bad[64] = 0xFF;
        assert!(decode_model_export(&bad).unwrap_err().to_string().contains("encoder tag"));
        let mut bad = payload[4..].to_vec();
        bad[68] = 0xFF;
        assert!(decode_model_export(&bad).unwrap_err().to_string().contains("pooling tag"));
        // Precision tag sits after the pooling tag.
        let mut bad = payload[4..].to_vec();
        bad[72] = 0xFF;
        assert!(decode_model_export(&bad).unwrap_err().to_string().contains("precision tag"));
    }

    #[test]
    fn relaxed_precision_round_trips() {
        // Tag 1, written by the retired relaxed tier, still decodes, and to
        // the same f32 arrays as tag 0.
        let model = tiny_model();
        let mut payload = encode_model_export(&model);
        // Kind (4) + dims (64) + encoder and pooling tags (8).
        payload[76..80].copy_from_slice(&Precision::Relaxed.tag().to_le_bytes());
        let export = decode_model_export(&payload[4..]).unwrap();
        for (p, a) in model.parameters().iter().zip(&export.arrays) {
            assert_eq!(p.to_array(), *a);
        }
        assert_eq!(Precision::from_tag(Precision::Relaxed.tag()), Some(Precision::Relaxed));
        assert_eq!(Precision::from_tag(99), None);
        assert_eq!(Precision::Relaxed.to_string(), "relaxed");
    }

    #[test]
    fn truncated_payload_never_panics() {
        let model = tiny_model();
        let payload = encode_model_export(&model);
        let body = &payload[4..];
        for len in 0..body.len().min(100) {
            assert!(decode_model_export(&body[..len]).is_err(), "truncation at {len} accepted");
        }
    }
}
