//! Micro-benchmarks for the numeric substrate: matmul, conv1d,
//! attention-block forward/backward, and the Fig. 4-shape elementwise
//! layers (bias add and its gradient, LayerNorm, GELU) — the kernels every
//! experiment spends its time in. Runs on `testkit::bench` (wall-clock,
//! median/p95); tune with `TESTKIT_BENCH_SAMPLES` /
//! `TESTKIT_BENCH_WARMUP_MS` / `TESTKIT_BENCH_SAMPLE_MS`.

use testkit::Bench;
use timedrl_bench::step::bench_fig4_layers;
use timedrl_nn::{Conv1d, Ctx, Module, TransformerConfig, TransformerEncoder};
use timedrl_tensor::{matmul, Prng, Var};

fn bench_matmul(b: &mut Bench) {
    let mut group = b.group("matmul");
    let mut rng = Prng::new(0);
    for &n in &[32usize, 64, 128] {
        let a = rng.randn(&[n, n]);
        let b = rng.randn(&[n, n]);
        group.bench(n, || matmul(&a, &b).unwrap());
    }
    group.finish();
}

fn bench_conv1d(b: &mut Bench) {
    let mut group = b.group("conv1d_forward");
    let mut rng = Prng::new(1);
    for &t in &[64usize, 256] {
        let conv = Conv1d::new(32, 32, 3, 1, 1, 1, &mut rng);
        let x = Var::constant(rng.randn(&[8, 32, t]));
        group.bench(t, || conv.forward(&x).to_array());
    }
    group.finish();
}

fn bench_transformer_block(b: &mut Bench) {
    let mut group = b.group("transformer_forward");
    let mut rng = Prng::new(2);
    let cfg =
        TransformerConfig { d_model: 32, n_heads: 4, d_ff: 64, n_layers: 2, dropout: 0.0, causal: false };
    let enc = TransformerEncoder::new(&cfg, &mut rng);
    for &tokens in &[9usize, 33, 65] {
        let x = Var::constant(rng.randn(&[8, tokens, 32]));
        group.bench(tokens, || enc.forward(&x, &mut Ctx::eval()).to_array());
    }
    group.finish();
}

fn bench_backward_pass(b: &mut Bench) {
    let mut group = b.group("transformer_train_step");
    let mut rng = Prng::new(3);
    let cfg =
        TransformerConfig { d_model: 32, n_heads: 4, d_ff: 64, n_layers: 2, dropout: 0.1, causal: false };
    let enc = TransformerEncoder::new(&cfg, &mut rng);
    let x = Var::constant(rng.randn(&[8, 9, 32]));
    group.bench_function("forward_backward", || {
        for p in enc.parameters() {
            p.zero_grad();
        }
        let loss = enc.forward(&x, &mut Ctx::train(0)).powf(2.0).mean();
        loss.backward();
        loss.item()
    });
    group.finish();
}

fn main() {
    let mut b = Bench::from_env("kernels");
    bench_matmul(&mut b);
    bench_conv1d(&mut b);
    bench_transformer_block(&mut b);
    bench_backward_pass(&mut b);
    bench_fig4_layers(&mut b);
}
