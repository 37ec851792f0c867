//! The relaxed exactness tier: int8-quantized linear layers + FMA
//! activation products. Relaxed serving must stay ε-close to the exact
//! tier, keep the zero-allocation steady state, be deterministic across
//! worker-thread counts, and never silently change the exact tier.

use testkit::alloc::count_allocations;
use testkit::pool;
use timedrl::{decode_model_export, encode_model_export, Precision, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_serve::{protocol, CompiledModel, Embeddings};
use timedrl_tensor::{bufpool, NdArray, Prng};

/// Worst-case relative error budget for the relaxed tier on the fixture
/// models: int8 per-channel weights carry ~1/254 relative rounding error
/// per matrix, compounded across the layer stack.
const EPS: f32 = 5e-2;

fn build(seed: u64) -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(16);
    cfg.patch = PatchConfig::non_overlapping(4);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 2;
    cfg.seed = seed;
    TimeDrl::new(cfg)
}

fn compile(model: &TimeDrl, precision: Precision) -> CompiledModel {
    let payload = encode_model_export(model);
    let export = decode_model_export(&payload[4..]).unwrap();
    CompiledModel::from_export_with(export, precision).unwrap()
}

/// Largest elementwise deviation, normalized by the exact tensor's scale.
fn rel_err(got: &NdArray, want: &NdArray) -> f32 {
    assert_eq!(got.shape(), want.shape());
    let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
    got.data()
        .iter()
        .zip(want.data())
        .fold(0.0f32, |m, (g, w)| m.max((g - w).abs()))
        / scale
}

#[track_caller]
fn assert_bits_eq(label: &str, got: &NdArray, want: &NdArray) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape mismatch");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: element {i} differs ({g} vs {w})");
    }
}

#[test]
fn relaxed_embeddings_stay_within_epsilon_of_exact() {
    for seed in [17u64, 23, 31] {
        let model = build(seed);
        let exact = compile(&model, Precision::Exact);
        let relaxed = compile(&model, Precision::Relaxed);
        assert_eq!(exact.precision(), Precision::Exact);
        assert_eq!(relaxed.precision(), Precision::Relaxed);
        let x = Prng::new(200 + seed).randn(&[3, 16, 1]);
        let want = exact.embed(&x).unwrap();
        let got = relaxed.embed(&x).unwrap();
        let (e_zi, e_zt) = (rel_err(&got.z_i, &want.z_i), rel_err(&got.z_t, &want.z_t));
        assert!(e_zi < EPS, "seed {seed}: relaxed z_i drifts {e_zi} from exact");
        assert!(e_zt < EPS, "seed {seed}: relaxed z_t drifts {e_zt} from exact");
    }
}

#[test]
fn relaxed_steady_state_allocates_nothing() {
    let model = build(17);
    let relaxed = compile(&model, Precision::Relaxed);
    let x = Prng::new(77).randn(&[3, 16, 1]);
    // One worker thread: no pool-worker spawns enter the count.
    pool::with_threads(1, || {
        relaxed.warm(3);
        relaxed.warm(3);
        let (result, allocs) = count_allocations(|| relaxed.embed(&x));
        result.unwrap();
        assert_eq!(allocs, 0, "relaxed steady state must be allocation-free");
    });
}

#[test]
fn relaxed_tier_is_deterministic_across_thread_counts() {
    let model = build(23);
    let relaxed = compile(&model, Precision::Relaxed);
    let x = Prng::new(9).randn(&[5, 16, 1]);
    let reference: Embeddings = pool::with_threads(1, || {
        bufpool::clear();
        relaxed.embed(&x).unwrap()
    });
    for threads in [2usize, 4] {
        pool::with_threads(threads, || {
            bufpool::clear();
            let got = relaxed.embed(&x).unwrap();
            assert_bits_eq(&format!("threads={threads} z_i"), &got.z_i, &reference.z_i);
            assert_bits_eq(&format!("threads={threads} z_t"), &got.z_t, &reference.z_t);
        });
    }
}

#[test]
fn exact_tier_is_unchanged_by_the_weight_lowering_layer() {
    // `from_export` (artifact tag: exact) and `from_export_with(Exact)`
    // must agree bitwise — the Weight wrapper is a pass-through for f32.
    let model = build(31);
    let payload = encode_model_export(&model);
    let default_path = CompiledModel::from_export(decode_model_export(&payload[4..]).unwrap()).unwrap();
    let explicit = compile(&model, Precision::Exact);
    let x = Prng::new(3).randn(&[2, 16, 1]);
    let a = default_path.embed(&x).unwrap();
    let b = explicit.embed(&x).unwrap();
    assert_bits_eq("exact z_i", &a.z_i, &b.z_i);
    assert_bits_eq("exact z_t", &a.z_t, &b.z_t);
}

#[test]
fn artifact_precision_tag_is_honored_and_overridable() {
    let model = build(17);
    let dir = std::env::temp_dir().join("timedrl_serve_relaxed_tag");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.tdrl");
    model.export_with(&path, Precision::Relaxed).unwrap();
    // `load` honors the container's tier; `load_with` overrides it.
    assert_eq!(CompiledModel::load(&path).unwrap().precision(), Precision::Relaxed);
    let forced = CompiledModel::load_with(&path, Precision::Exact).unwrap();
    assert_eq!(forced.precision(), Precision::Exact);
    // The forced-exact load is bitwise the plain exact model.
    let x = Prng::new(6).randn(&[2, 16, 1]);
    let want = compile(&model, Precision::Exact).embed(&x).unwrap();
    let got = forced.embed(&x).unwrap();
    assert_bits_eq("forced-exact z_i", &got.z_i, &want.z_i);
    assert_bits_eq("forced-exact z_t", &got.z_t, &want.z_t);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn responses_carry_the_serving_tier_on_the_wire() {
    let model = build(17);
    for precision in Precision::ALL {
        let compiled = compile(&model, precision);
        let x = Prng::new(11).randn(&[2, 16, 1]);
        let emb = compiled.embed(&x).unwrap();
        let mut buf = Vec::new();
        protocol::encode_response(&mut buf, &emb, compiled.precision());
        let (resp, tier) = protocol::decode_response(&buf).unwrap();
        assert_eq!(tier, precision, "wire tier must round-trip");
        assert_bits_eq("wire z_i", &resp.z_i, &emb.z_i);
        assert_bits_eq("wire z_t", &resp.z_t, &emb.z_t);
    }
}
