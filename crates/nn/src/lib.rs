//! # timedrl-nn
//!
//! Neural-network building blocks on top of the `timedrl-tensor` autograd
//! engine: layers (Linear, Dropout, LayerNorm, BatchNorm1d, multi-head
//! attention, Transformer blocks, LSTM/Bi-LSTM, Conv1d/TCN/1-D ResNet),
//! the AdamW optimizer, and the losses used by TimeDRL and its baselines.
//!
//! All stochastic layers draw from the [`Ctx`] passed through `forward`,
//! which carries the train/eval switch and a seeded RNG — the dropout
//! randomness that TimeDRL's instance-contrastive task turns into its two
//! augmentation-free views.

#![warn(missing_docs)]

pub mod attention;
pub mod conv;
pub mod gru;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod module;
pub mod norm;
pub mod optim;
pub mod resnet;
pub mod schedule;
pub mod tcn;
pub mod transformer;

pub use attention::MultiHeadAttention;
pub use conv::{conv1d_out_len, Conv1d};
pub use gru::Gru;
pub use linear::{Dropout, Linear};
pub use lstm::{BiLstm, Lstm};
pub use module::{clip_grad_norm, Ctx, Module};
pub use norm::{BatchNorm1d, LayerNorm};
pub use optim::{AdamW, OptimState, Optimizer};
pub use resnet::{BasicBlock1d, ResNet1d};
pub use schedule::{ConstantLr, LrSchedule, StepDecay, WarmupCosine};
pub use tcn::{CausalConv1d, Tcn, TemporalBlock};
pub use transformer::{TransformerBlock, TransformerConfig, TransformerEncoder};
