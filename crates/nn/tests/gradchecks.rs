//! Finite-difference gradient checks for the composite layers: multi-head
//! attention, the post-norm Transformer block, and Conv1d. Each check
//! differentiates a scalar loss through the full layer with respect to the
//! *input*, which exercises every internal op's backward pass along the
//! way.
//!
//! All checks run in eval mode (dropout off) so the loss is a smooth,
//! deterministic function of the probe point.

use timedrl_nn::transformer::TransformerBlock;
use timedrl_nn::{BiLstm, Conv1d, Ctx, Gru, Lstm, MultiHeadAttention, Tcn, TemporalBlock};
use timedrl_tensor::gradcheck::assert_gradients_close;
use timedrl_tensor::Prng;

#[test]
fn multi_head_attention_gradcheck() {
    let mut rng = Prng::new(100);
    let attn = MultiHeadAttention::new(8, 2, false, 0.0, &mut rng);
    let x = rng.randn(&[2, 3, 8]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| {
        attn.forward(v, &mut Ctx::eval()).powf(2.0).mean()
    });
}

#[test]
fn causal_attention_gradcheck() {
    let mut rng = Prng::new(101);
    let attn = MultiHeadAttention::new(8, 2, true, 0.0, &mut rng);
    let x = rng.randn(&[1, 4, 8]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| {
        attn.forward(v, &mut Ctx::eval()).powf(2.0).mean()
    });
}

#[test]
fn post_norm_transformer_block_gradcheck() {
    let mut rng = Prng::new(102);
    let block = TransformerBlock::new(8, 2, 16, 0.0, false, &mut rng);
    let x = rng.randn(&[2, 3, 8]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| {
        block.forward(v, &mut Ctx::eval()).powf(2.0).mean()
    });
}

#[test]
fn conv1d_gradcheck() {
    let mut rng = Prng::new(106);
    let conv = Conv1d::new(3, 4, 3, 1, 1, 1, &mut rng);
    let x = rng.randn(&[2, 3, 6]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| conv.forward(v).powf(2.0).mean());
}

#[test]
fn strided_dilated_conv1d_gradcheck() {
    let mut rng = Prng::new(107);
    let conv = Conv1d::new(2, 3, 3, 2, 2, 2, &mut rng);
    let x = rng.randn(&[1, 2, 9]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| conv.forward(v).powf(2.0).mean());
}

#[test]
fn lstm_gradcheck() {
    let mut rng = Prng::new(108);
    let lstm = Lstm::new(4, 6, &mut rng);
    let x = rng.randn(&[2, 5, 4]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| lstm.forward(v).powf(2.0).mean());
}

#[test]
fn bilstm_gradcheck() {
    let mut rng = Prng::new(109);
    let lstm = BiLstm::new(3, 4, &mut rng);
    let x = rng.randn(&[1, 4, 3]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| lstm.forward(v).powf(2.0).mean());
}

#[test]
fn gru_gradcheck() {
    let mut rng = Prng::new(110);
    let gru = Gru::new(4, 5, &mut rng);
    let x = rng.randn(&[2, 5, 4]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| gru.forward(v).powf(2.0).mean());
}

#[test]
fn temporal_block_gradcheck() {
    let mut rng = Prng::new(111);
    let block = TemporalBlock::new(3, 5, 3, 2, 0.0, &mut rng);
    let x = rng.randn(&[1, 3, 8]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| {
        block.forward(v, &mut Ctx::eval()).powf(2.0).mean()
    });
}

#[test]
fn tcn_gradcheck() {
    let mut rng = Prng::new(112);
    let tcn = Tcn::new(2, &[4, 4], 3, 0.0, &mut rng);
    let x = rng.randn(&[1, 2, 8]);
    assert_gradients_close(&x, 1e-2, 2e-2, |v| {
        tcn.forward(v, &mut Ctx::eval()).powf(2.0).mean()
    });
}
