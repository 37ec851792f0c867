//! # timedrl
//!
//! A from-scratch Rust reproduction of **TimeDRL** (Chang et al., ICDE
//! 2024): *Disentangled Representation Learning for Multivariate
//! Time-Series*.
//!
//! TimeDRL learns **dual-level embeddings** from unlabeled time-series:
//!
//! * **timestamp-level** `z_t` — one embedding per patch token, optimized
//!   by a *timestamp-predictive* task (reconstruct the unmasked patched
//!   input; Eqs. 6–9);
//! * **instance-level** `z_i` — a dedicated `[CLS]` token, optimized by a
//!   negative-free *instance-contrastive* task whose two views come from
//!   encoder dropout rather than data augmentation (Eqs. 10–18).
//!
//! The joint objective is `L = L_P + λ·L_C` (Eq. 19).
//!
//! ```no_run
//! use timedrl::{TimeDrl, TimeDrlConfig, pretrain};
//! use timedrl_tensor::Prng;
//!
//! let cfg = TimeDrlConfig::forecasting(64);
//! let model = TimeDrl::new(cfg);
//! let windows = Prng::new(0).randn(&[128, 64, 1]); // your unlabeled data
//! let report = pretrain(&model, &windows).expect("training failed");
//! if let Some(loss) = report.final_loss() {
//!     println!("final pretext loss: {loss}");
//! }
//! let embeddings = model.embed_instances(&windows); // [128, D]
//! # let _ = embeddings;
//! ```

#![warn(missing_docs)]

pub mod anomaly;
pub mod checkpoint;
pub mod config;
pub mod downstream;
pub mod encoder;
pub mod error;
pub mod export;
pub mod model;
pub mod pooling;
pub mod pretext;
pub mod shard;
pub mod trainer;

pub use anomaly::{
    anomaly_scores, patch_errors, quantile_from_sorted, try_anomaly_scores, window_score,
    AnomalyDetector, AnomalyError, AnomalyScores,
};
pub use checkpoint::{load_training_state, save_training_state, TrainingState};
pub use config::{EncoderKind, TimeDrlConfig};
pub use error::TrainError;
pub use downstream::{
    classification_linear_eval, finetune_classification, finetune_forecast, forecast_linear_eval,
    prepare_forecast_data, probe_classification, probe_forecast, FinetuneConfig, ForecastData,
    ForecastEvalResult, ForecastTask,
};
pub use encoder::Encoder;
pub use export::{
    decode_model_export, encode_model_export, encode_model_export_with, export_model,
    export_model_with, read_model_export, ModelExport, Precision,
};
pub use model::{channel_independent, ContrastHead, Encoded, TimeDrl};
pub use pooling::Pooling;
pub use pretext::{contrastive_loss, predictive_loss, pretext_loss, PretextBreakdown};
pub use shard::{run_shard_worker, run_shard_worker_with, ShardTrainPlan};
pub use trainer::{
    gather_rows, pretrain, pretrain_with_validation, train_step, PretrainReport, StepError,
};
