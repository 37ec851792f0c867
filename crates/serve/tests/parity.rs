//! Differential parity: the compiled tape-free forward must be
//! *bitwise* identical to the eval-mode `Var`-tape forward — across
//! batch sizes, worker-thread counts, cold vs warm arenas, both
//! compiled backbones, and every pooling strategy.

use testkit::pool;
use timedrl::{
    decode_model_export, encode_model_export, EncoderKind, Pooling, Precision, TimeDrl,
    TimeDrlConfig,
};
use timedrl_data::PatchConfig;
use timedrl_nn::Ctx;
use timedrl_serve::{CompiledModel, ServeError};
use timedrl_tensor::{bufpool, write_file_atomic, NdArray, Prng};

fn build(encoder: EncoderKind, pooling: Pooling, seed: u64) -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(16);
    cfg.patch = PatchConfig::non_overlapping(4);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 2;
    cfg.encoder = encoder;
    cfg.pooling = pooling;
    cfg.seed = seed;
    TimeDrl::new(cfg)
}

/// Compiles a model through the same encode/decode the on-disk container
/// uses (kind tag stripped, as the container reader does).
fn compile(model: &TimeDrl) -> CompiledModel {
    let payload = encode_model_export(model);
    CompiledModel::from_export(decode_model_export(&payload[4..]).unwrap()).unwrap()
}

/// Tape-path reference embeddings in eval mode.
fn tape_embed(model: &TimeDrl, x: &NdArray) -> (NdArray, NdArray) {
    let enc = model.encode(x, &mut Ctx::eval());
    (enc.instance(model.config().pooling).to_array(), enc.timestamps().to_array())
}

#[track_caller]
fn assert_bits_eq(label: &str, got: &NdArray, want: &NdArray) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape mismatch");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: element {i} differs ({g} vs {w})"
        );
    }
}

#[test]
fn parity_across_batch_threads_and_arena_state() {
    for encoder in [EncoderKind::TransformerEncoder, EncoderKind::TransformerDecoder] {
        let model = build(encoder, Pooling::Cls, 17);
        let compiled = compile(&model);
        for batch in [1usize, 3, 17] {
            let x = Prng::new(100 + batch as u64).randn(&[batch, 16, 1]);
            let (want_zi, want_zt) = tape_embed(&model, &x);
            for threads in [1usize, 2, 4] {
                pool::with_threads(threads, || {
                    let label = format!("{encoder:?} batch={batch} threads={threads}");
                    // Cold arena: every buffer freshly allocated.
                    bufpool::clear();
                    let cold = compiled.embed(&x).unwrap();
                    assert_bits_eq(&format!("{label} cold z_i"), &cold.z_i, &want_zi);
                    assert_bits_eq(&format!("{label} cold z_t"), &cold.z_t, &want_zt);
                    // Warm arena: every buffer recycled from the pool.
                    compiled.warm(batch);
                    let warm = compiled.embed(&x).unwrap();
                    assert_bits_eq(&format!("{label} warm z_i"), &warm.z_i, &want_zi);
                    assert_bits_eq(&format!("{label} warm z_t"), &warm.z_t, &want_zt);
                });
            }
        }
    }
}

#[test]
fn parity_across_pooling_variants() {
    for (i, &pooling) in Pooling::ALL.iter().enumerate() {
        let model = build(EncoderKind::TransformerEncoder, pooling, 23 + i as u64);
        let compiled = compile(&model);
        let x = Prng::new(41).randn(&[3, 16, 1]);
        let (want_zi, want_zt) = tape_embed(&model, &x);
        let got = compiled.embed(&x).unwrap();
        assert_eq!(got.z_i.shape(), &[3, compiled.zi_dim()], "{pooling:?}: z_i shape");
        assert_bits_eq(&format!("{pooling:?} z_i"), &got.z_i, &want_zi);
        assert_bits_eq(&format!("{pooling:?} z_t"), &got.z_t, &want_zt);
    }
}

#[test]
fn parity_survives_export_file_roundtrip() {
    let model = build(EncoderKind::TransformerEncoder, Pooling::Gap, 31);
    let dir = std::env::temp_dir().join("timedrl_serve_parity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.tdrl");
    model.export(&path).unwrap();
    let compiled = CompiledModel::load(&path).unwrap();
    let x = Prng::new(9).randn(&[2, 16, 1]);
    let (want_zi, want_zt) = tape_embed(&model, &x);
    let got = compiled.embed(&x).unwrap();
    assert_bits_eq("file roundtrip z_i", &got.z_i, &want_zi);
    assert_bits_eq("file roundtrip z_t", &got.z_t, &want_zt);
    std::fs::remove_dir_all(&dir).ok();
}

/// Offset of the precision tag in an `encode_model_export` payload: the
/// kind tag, eight `u64` dimensions, then the encoder and pooling tags.
const PRECISION_TAG_AT: usize = 4 + 8 * 8 + 4 + 4;

/// Artifacts from the retired relaxed tier carry precision tag 1 over plain
/// f32 arrays. They still load, in memory and from a container file, and
/// serve the exact forward: the same bits as the tag-0 artifact.
#[test]
fn relaxed_tagged_export_loads_and_serves_exact() {
    let model = build(EncoderKind::TransformerEncoder, Pooling::Cls, 23);
    let exact = compile(&model);
    let mut payload = encode_model_export(&model);
    let tag = PRECISION_TAG_AT..PRECISION_TAG_AT + 4;
    assert_eq!(payload[tag.clone()], Precision::Exact.tag().to_le_bytes());
    payload[tag.clone()].copy_from_slice(&Precision::Relaxed.tag().to_le_bytes());

    let dir = std::env::temp_dir().join("timedrl_serve_relaxed_tag");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("relaxed.tdrl");
    // The container writer checksums the edited payload afresh.
    write_file_atomic(&path, &payload).unwrap();
    let in_memory = CompiledModel::from_export(decode_model_export(&payload[4..]).unwrap()).unwrap();
    let from_file = CompiledModel::load(&path).unwrap();
    for (source, legacy) in [("in memory", in_memory), ("from file", from_file)] {
        assert_eq!(legacy.precision(), Precision::Exact, "{source}");
        for batch in [1usize, 3] {
            let x = Prng::new(200 + batch as u64).randn(&[batch, 16, 1]);
            let (got, want) = (legacy.embed(&x).unwrap(), exact.embed(&x).unwrap());
            assert_bits_eq(&format!("tag 1 {source} batch={batch} z_i"), &got.z_i, &want.z_i);
            assert_bits_eq(&format!("tag 1 {source} batch={batch} z_t"), &got.z_t, &want.z_t);
        }
    }

    // Tag 2 names no tier and stays a typed error.
    payload[tag].copy_from_slice(&2u32.to_le_bytes());
    let err = decode_model_export(&payload[4..]).unwrap_err();
    assert!(err.to_string().contains("precision tag"), "{err}");
    write_file_atomic(&path, &payload).unwrap();
    match CompiledModel::load(&path) {
        Err(ServeError::BadModel(msg)) => assert!(msg.contains("precision tag"), "{msg}"),
        Err(other) => panic!("tag 2: unexpected error class {other}"),
        Ok(_) => panic!("tag 2: artifact accepted"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsupported_backbones_are_typed_errors() {
    for &encoder in EncoderKind::ALL.iter() {
        if matches!(
            encoder,
            EncoderKind::TransformerEncoder | EncoderKind::TransformerDecoder
        ) {
            continue;
        }
        let model = build(encoder, Pooling::Cls, 3);
        let payload = encode_model_export(&model);
        let export = decode_model_export(&payload[4..]).unwrap();
        let err = CompiledModel::from_export(export).err().expect("non-transformer must fail");
        assert!(
            matches!(err, timedrl_serve::ServeError::UnsupportedEncoder(_)),
            "{encoder:?}: expected UnsupportedEncoder, got {err}"
        );
    }
}
