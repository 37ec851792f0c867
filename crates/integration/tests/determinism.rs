//! Determinism regression suite for the parallel compute runtime.
//!
//! The `testkit::pool` contract is that chunked fan-out never changes
//! results: every kernel must produce bit-identical output at any thread
//! count (`TIMEDRL_THREADS=1` ≡ `TIMEDRL_THREADS=N`), and a full
//! pre-training run must serialize to byte-identical checkpoints. These
//! properties pin that contract down against randomly generated shapes and
//! inputs; `pool::with_grain` forces multi-chunk fan-out on test-sized
//! tensors that the production grain thresholds would keep serial.

use testkit::pool;
use testkit::{prop, prop_assert, prop_assert_eq};
use timedrl::config::TimeDrlConfig;
use timedrl::model::TimeDrl;
use timedrl::trainer::pretrain;
use timedrl_nn::{Conv1d, Ctx, Module, MultiHeadAttention};
use timedrl_tensor::{
    attention_fused, attention_reference, matmul, write_arrays, NdArray, Prng, Var,
};

/// Checked thread counts: serial baseline plus two parallel settings.
const THREADS: [usize; 3] = [1, 2, 4];

/// Runs `f` at every thread count in [`THREADS`] (with a tiny grain so the
/// parallel path actually fans out) and asserts all results are identical
/// to the single-thread baseline.
fn assert_thread_invariant<R: PartialEq + std::fmt::Debug>(grain: usize, f: impl Fn() -> R) {
    let baseline = pool::with_threads(1, &f);
    for threads in &THREADS[1..] {
        let got = pool::with_threads(*threads, || pool::with_grain(grain, &f));
        assert_eq!(baseline, got, "result diverged at {threads} threads");
    }
}

fn randn(rng: &mut testkit::TestRng, shape: &[usize]) -> NdArray {
    NdArray::from_fn(shape, |_| rng.normal_f64() as f32)
}

prop! {
    #![config(cases = 16)]

    fn matmul_is_thread_count_invariant(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = testkit::TestRng::new(seed);
        let a = randn(&mut rng, &[m, k]);
        let b = randn(&mut rng, &[k, n]);
        assert_thread_invariant(16, || matmul(&a, &b).unwrap());
    }

    fn batched_matmul_is_thread_count_invariant(
        bs in 1usize..6,
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = testkit::TestRng::new(seed);
        let a = randn(&mut rng, &[bs, m, k]);
        let b = randn(&mut rng, &[bs, k, n]);
        assert_thread_invariant(8, || matmul(&a, &b).unwrap());
    }

    fn conv1d_forward_backward_is_thread_count_invariant(
        b in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        t in 6usize..16,
        seed in 0u64..1_000_000,
    ) {
        let mut prng = Prng::new(seed);
        let conv = Conv1d::new(c_in, c_out, 3, 1, 1, 1, &mut prng);
        let x0 = prng.randn(&[b, c_in, t]);
        assert_thread_invariant(8, || {
            // The layer is shared across runs and backward() accumulates:
            // start each run from clean gradient slots.
            for p in conv.parameters() {
                p.zero_grad();
            }
            let x = Var::parameter(x0.clone());
            let y = conv.forward(&x);
            y.powf(2.0).sum().backward();
            let grads: Vec<NdArray> = conv
                .parameters()
                .iter()
                .chain(std::iter::once(&x))
                .map(|p| p.grad().expect("gradient"))
                .collect();
            (y.to_array(), grads)
        });
    }

    fn attention_forward_backward_is_thread_count_invariant(
        b in 1usize..3,
        t in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let mut prng = Prng::new(seed);
        let attn = MultiHeadAttention::new(8, 2, false, 0.0, &mut prng);
        let x0 = prng.randn(&[b, t, 8]);
        assert_thread_invariant(8, || {
            for p in attn.parameters() {
                p.zero_grad();
            }
            let x = Var::parameter(x0.clone());
            let y = attn.forward(&x, &mut Ctx::eval());
            y.powf(2.0).mean().backward();
            let grads: Vec<NdArray> = attn
                .parameters()
                .iter()
                .chain(std::iter::once(&x))
                .map(|p| p.grad().expect("gradient"))
                .collect();
            (y.to_array(), grads)
        });
    }
}

/// A 2-epoch data-parallel pre-training run, serialized to bytes.
fn pretrain_checkpoint_bytes(threads: usize) -> (Vec<f32>, Vec<u8>) {
    pool::with_threads(threads, || {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 2;
        cfg.batch_size = 8;
        cfg.seed = 42;
        cfg.micro_batch = Some(3);
        let model = TimeDrl::new(cfg);
        let windows = NdArray::from_fn(&[16, 32, 1], |flat| {
            let (i, step) = (flat / 32, flat % 32);
            (step as f32 * 0.4 + i as f32 * 0.3).sin()
        });
        let report = pretrain(&model, &windows).expect("pre-training failed");
        let params: Vec<NdArray> = model.parameters().iter().map(|p| p.to_array()).collect();
        let refs: Vec<&NdArray> = params.iter().collect();
        let mut bytes = Vec::new();
        write_arrays(&mut bytes, &refs).expect("in-memory serialize");
        (report.total, bytes)
    })
}

#[test]
fn pretrain_checkpoint_is_byte_identical_across_thread_counts() {
    let (loss1, bytes1) = pretrain_checkpoint_bytes(1);
    let (loss4, bytes4) = pretrain_checkpoint_bytes(4);
    prop_assert_eq!(loss1, loss4, "loss history diverged");
    prop_assert!(bytes1 == bytes4, "serialized checkpoints differ between 1 and 4 threads");
}

#[test]
fn pretrain_checkpoint_is_byte_identical_across_identical_runs() {
    let (loss_a, bytes_a) = pretrain_checkpoint_bytes(4);
    let (loss_b, bytes_b) = pretrain_checkpoint_bytes(4);
    prop_assert_eq!(loss_a, loss_b, "same-seed loss history not reproducible");
    prop_assert!(bytes_a == bytes_b, "same-seed checkpoints differ between runs");
}

/// The fused attention kernel across production-scale sequence lengths:
/// bit-equal to the materialized reference chain and invariant to the
/// thread count, causal and bidirectional.
#[test]
fn fused_attention_is_bitwise_and_thread_invariant_across_shapes() {
    for t in [16usize, 64, 256] {
        for causal in [false, true] {
            let mut prng = Prng::new(7 + t as u64);
            let (bh, dh) = (if t == 256 { 2 } else { 4 }, 8);
            let q = prng.randn(&[bh, t, dh]);
            let k = prng.randn(&[bh, t, dh]);
            let v = prng.randn(&[bh, t, dh]);
            let scale = 1.0 / (dh as f32).sqrt();
            let reference = attention_reference(&q, &k, &v, scale, causal, None).unwrap();
            assert_thread_invariant(1024, || {
                let out = attention_fused(&q, &k, &v, scale, causal, None).unwrap();
                for (i, (a, b)) in out.data().iter().zip(reference.data().iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "fused vs reference bit mismatch at {i} (t={t}, causal={causal})"
                    );
                }
                out.data().to_vec()
            });
        }
    }
}

/// The buffer pool (DESIGN.md §10) must be invisible to results: training
/// against a cold pool (every buffer fresh from the heap) and against a
/// warm pool (buffers recycled from a previous full run, carrying stale
/// bits) must produce byte-identical checkpoints. This is the pool's
/// determinism contract — checked-out storage is indistinguishable from
/// `vec![0.0; len]`.
#[test]
fn pretrain_checkpoint_is_byte_identical_cold_vs_warm_pool() {
    timedrl_tensor::bufpool::clear();
    let (loss_cold, bytes_cold) = pretrain_checkpoint_bytes(1);
    // The pool is now warm: the first run's buffers were recycled. A
    // second identical run recycles them, observing whatever the pool
    // hands back.
    let (recycled_before, _) = timedrl_tensor::bufpool::stats();
    let (loss_warm, bytes_warm) = pretrain_checkpoint_bytes(1);
    let (recycled_after, _) = timedrl_tensor::bufpool::stats();
    prop_assert!(
        recycled_after > recycled_before,
        "warm run must actually exercise recycled buffers"
    );
    prop_assert_eq!(loss_cold, loss_warm, "pool warmth changed the loss history");
    prop_assert!(bytes_cold == bytes_warm, "pool warmth changed the checkpoint bytes");
}
