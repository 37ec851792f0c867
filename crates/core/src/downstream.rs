//! Downstream evaluation pipelines (Fig. 3b): linear evaluation on frozen
//! embeddings (Tables III–V) and full fine-tuning for semi-supervised
//! scenarios (Fig. 5).

use crate::config::TimeDrlConfig;
use crate::error::TrainError;
use crate::model::{channel_independent, TimeDrl};
use crate::trainer::{gather_rows, pretrain, PretrainReport};
use timedrl_data::{chrono_split, sliding_windows, ClassifyDataset, ForecastDataset, Standardizer};
use timedrl_data::BatchIndices;
use timedrl_eval::{classification_report, mae, mse, ClassificationReport, LogisticConfig, LogisticProbe, RidgeProbe};
use timedrl_nn::{AdamW, Ctx, Linear, Module, Optimizer};
use timedrl_tensor::{NdArray, Prng, Var};

/// Forecasting-task geometry.
#[derive(Debug, Clone, Copy)]
pub struct ForecastTask {
    /// Lookback window length `L` fed to the encoder.
    pub lookback: usize,
    /// Prediction horizon `T` (the paper's table rows).
    pub horizon: usize,
    /// Stride between extracted windows (1 = every window; larger strides
    /// subsample for speed without changing the task).
    pub stride: usize,
}

/// Forecasting metrics (standardized scale, as the benchmarks report).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastEvalResult {
    /// Mean squared error (Eq. 20).
    pub mse: f32,
    /// Mean absolute error (Eq. 21).
    pub mae: f32,
}

/// Windowed, standardized, channel-folded forecasting data ready for an
/// encoder with `n_features = 1`.
///
/// Besides the raw (globally standardized) windows and targets, this
/// carries each window's own temporal mean/std. TimeDRL's pipeline
/// instance-normalizes encoder inputs (Eq. 1, following RevIN), so its
/// readout predicts the *normalized* horizon and predictions are
/// de-normalized with the window statistics before scoring — without this,
/// level information (critical on random-walk data like Exchange) would be
/// unrecoverable from the embeddings.
pub struct ForecastData {
    /// Train inputs `[M, L, 1]` (M = windows × channels).
    pub train_inputs: NdArray,
    /// Train targets `[M, H]`.
    pub train_targets: NdArray,
    /// Test inputs `[M', L, 1]`.
    pub test_inputs: NdArray,
    /// Test targets `[M', H]`.
    pub test_targets: NdArray,
    /// Per-window temporal mean of train inputs, `[M, 1]`.
    pub train_mean: NdArray,
    /// Per-window temporal std of train inputs, `[M, 1]`.
    pub train_std: NdArray,
    /// Per-window temporal mean of test inputs, `[M', 1]`.
    pub test_mean: NdArray,
    /// Per-window temporal std of test inputs, `[M', 1]`.
    pub test_std: NdArray,
}

impl ForecastData {
    /// Train targets expressed in each window's own normalized scale
    /// (RevIN target space).
    pub fn train_targets_normalized(&self) -> NdArray {
        self.train_targets.sub(&self.train_mean).div(&self.train_std)
    }

    /// Maps predictions from RevIN target space back to the standardized
    /// scale of `test_targets`.
    pub fn denormalize_test(&self, pred: &NdArray) -> NdArray {
        pred.mul(&self.test_std).add(&self.test_mean)
    }
}

/// Per-window temporal mean and std (`[M, 1]` each) of `[M, L, 1]` inputs.
fn window_stats(inputs: &NdArray) -> (NdArray, NdArray) {
    let m = inputs.shape()[0];
    let mean = inputs.mean_axis(1, false).reshape(&[m, 1]).expect("mean shape");
    let std = inputs
        .var_axis(1, false)
        .add_scalar(1e-5)
        .sqrt()
        .reshape(&[m, 1])
        .expect("std shape");
    (mean, std)
}

/// Builds channel-independent forecasting data from a raw dataset: 60/20/20
/// chronological split, train-fitted standardization, sliding windows, and
/// the `[N, L, C] -> [N·C, L, 1]` channel fold.
pub fn prepare_forecast_data(dataset: &ForecastDataset, task: &ForecastTask) -> ForecastData {
    let split = chrono_split(dataset);
    let scaler = Standardizer::fit(&split.train);
    let train = scaler.transform(&split.train);
    let test = scaler.transform(&split.test);

    let train_w = sliding_windows(&train, task.lookback, task.horizon, task.stride);
    let test_w = sliding_windows(&test, task.lookback, task.horizon, task.stride);
    assert!(!train_w.is_empty() && !test_w.is_empty(), "series too short for task geometry");

    let train_inputs = channel_independent(&train_w.inputs);
    let test_inputs = channel_independent(&test_w.inputs);
    let (train_mean, train_std) = window_stats(&train_inputs);
    let (test_mean, test_std) = window_stats(&test_inputs);
    ForecastData {
        train_targets: fold_targets(&train_w.targets),
        test_targets: fold_targets(&test_w.targets),
        train_inputs,
        test_inputs,
        train_mean,
        train_std,
        test_mean,
        test_std,
    }
}

/// Folds `[N, H, C]` horizon targets to per-channel rows `[N·C, H]`,
/// matching [`channel_independent`]'s sample order.
fn fold_targets(targets: &NdArray) -> NdArray {
    let (n, h, c) = (targets.shape()[0], targets.shape()[1], targets.shape()[2]);
    targets.permute(&[0, 2, 1]).reshape(&[n * c, h]).expect("target fold")
}

/// Full linear-evaluation pipeline for forecasting (Section V-A): pre-train
/// on train windows, freeze, fit a ridge readout on flattened
/// timestamp-level embeddings, report test MSE/MAE.
///
/// Returns the trained model alongside the metrics so ablation harnesses
/// can reuse the encoder.
///
/// # Errors
/// Whatever [`pretrain`] returns, in particular [`TrainError::InvalidConfig`]
/// for a config it rejects (such as `epochs: 0`), and
/// [`TrainError::BadWindows`] when `data`'s lookback differs from
/// `cfg.input_len` or `cfg.n_features` is not 1 (the pipeline folds
/// channels, so every window has one).
pub fn forecast_linear_eval(
    cfg: &TimeDrlConfig,
    data: &ForecastData,
    ridge_lambda: f32,
) -> Result<(TimeDrl, ForecastEvalResult, PretrainReport), TrainError> {
    let model = TimeDrl::new(cfg.clone());
    let report = pretrain(&model, &data.train_inputs)?;
    let result = probe_forecast(&model, data, ridge_lambda);
    Ok((model, result, report))
}

/// Fits and scores the ridge readout for an already-trained encoder.
///
/// Following RevIN (Eq. 1's instance normalization), the probe learns in
/// each window's normalized scale; predictions are de-normalized with the
/// test windows' own statistics before scoring.
pub fn probe_forecast(model: &TimeDrl, data: &ForecastData, ridge_lambda: f32) -> ForecastEvalResult {
    let train_emb = model.embed_timestamps_flat(&data.train_inputs);
    let test_emb = model.embed_timestamps_flat(&data.test_inputs);
    let probe = RidgeProbe::fit(&train_emb, &data.train_targets_normalized(), ridge_lambda);
    let pred = data.denormalize_test(&probe.predict(&test_emb));
    ForecastEvalResult { mse: mse(&pred, &data.test_targets), mae: mae(&pred, &data.test_targets) }
}

/// Classification linear evaluation (Section V-B): pre-train on the train
/// split, freeze, fit a logistic readout on instance-level embeddings,
/// report on the test split.
///
/// # Errors
/// Whatever [`pretrain`] returns, in particular [`TrainError::InvalidConfig`]
/// for a config it rejects (such as `epochs: 0`), and
/// [`TrainError::BadWindows`] when the samples' length or channel count
/// differs from the config's.
pub fn classification_linear_eval(
    cfg: &TimeDrlConfig,
    train: &ClassifyDataset,
    test: &ClassifyDataset,
    probe_cfg: &LogisticConfig,
) -> Result<(TimeDrl, ClassificationReport), TrainError> {
    let model = TimeDrl::new(cfg.clone());
    pretrain(&model, &train.to_batch())?;
    let report = probe_classification(&model, train, test, probe_cfg);
    Ok((model, report))
}

/// Fits and scores the logistic readout for an already-trained encoder.
pub fn probe_classification(
    model: &TimeDrl,
    train: &ClassifyDataset,
    test: &ClassifyDataset,
    probe_cfg: &LogisticConfig,
) -> ClassificationReport {
    let train_emb = model.embed_instances(&train.to_batch());
    let test_emb = model.embed_instances(&test.to_batch());
    let probe = LogisticProbe::fit(&train_emb, &train.labels, train.n_classes, probe_cfg, model.config().seed);
    let pred = probe.predict(&test_emb);
    classification_report(&pred, &test.labels, test.n_classes)
}

// ---------------------------------------------------------------------
// Fine-tuning (Fig. 5 semi-supervised protocol)
// ---------------------------------------------------------------------

/// Hyperparameters for supervised fine-tuning.
///
/// Fine-tuning follows the LP-FT recipe: the head is first *initialized
/// from the linear-probe solution on the frozen encoder* (closed-form
/// ridge for forecasting, a trained logistic probe for classification),
/// then encoder + head train jointly. Starting joint training from a
/// random head lets its early, large gradients destroy pre-trained
/// encoder features — precisely the failure mode that made pre-training
/// look harmful in early versions of this harness.
#[derive(Debug, Clone, Copy)]
pub struct FinetuneConfig {
    /// Learning rate for joint encoder + head training.
    pub lr: f32,
    /// Joint fine-tuning epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        Self { lr: 1e-3, epochs: 10, batch_size: 32 }
    }
}

/// Fine-tunes a (pre-trained or fresh) model plus a linear forecasting head
/// end-to-end on labelled windows, then scores on test windows.
///
/// `label_fraction` subsamples the labelled training windows, emulating the
/// limited-label regime of Fig. 5(a–c).
pub fn finetune_forecast(
    model: &TimeDrl,
    data: &ForecastData,
    ft: &FinetuneConfig,
    label_fraction: f32,
    seed: u64,
) -> ForecastEvalResult {
    let cfg = model.config();
    let t_p = cfg.num_patches();
    let d = cfg.d_model;
    let horizon = data.train_targets.shape()[1];
    let mut rng = Prng::new(seed);
    let head = Linear::new(t_p * d, horizon, &mut rng);

    let n_total = data.train_inputs.shape()[0];
    let kept = select_fraction(n_total, label_fraction, &mut rng);

    // RevIN target space: the encoder sees instance-normalized windows, so
    // the head learns normalized horizons (de-normalized at evaluation).
    let norm_targets = data.train_targets_normalized();

    // LP: initialize the head from the closed-form ridge solution on the
    // frozen encoder's embeddings of the labelled subset.
    {
        let inputs = gather_rows(&data.train_inputs, &kept);
        let targets = gather_targets(&norm_targets, &kept);
        let emb = model.embed_timestamps_flat(&inputs);
        let probe = RidgeProbe::fit(&emb, &targets, 1.0);
        head.load(probe.weight().clone(), Some(probe.bias().clone()));
    }

    // FT: joint encoder + head training.
    let mut joint = model.parameters();
    joint.extend(head.parameters());
    let mut opt = AdamW::new(joint, ft.lr, 1e-4);
    let mut ctx = Ctx::train(seed ^ 0xf17e);
    for _ in 0..ft.epochs {
        for idx in BatchIndices::new(kept.len(), ft.batch_size, Some(&mut rng))
            .expect("finetune batch_size is positive")
        {
            let rows: Vec<usize> = idx.iter().map(|&i| kept[i]).collect();
            let inputs = gather_rows(&data.train_inputs, &rows);
            let targets = gather_targets(&norm_targets, &rows);
            opt.zero_grad();
            let enc = model.encode(&inputs, &mut ctx);
            let emb = enc.timestamps().reshape(&[rows.len(), t_p * d]);
            head.forward(&emb).mse_loss(&targets).backward();
            opt.step();
        }
    }

    // Score with the fine-tuned encoder in eval mode.
    let mut eval_ctx = Ctx::eval();
    let n_test = data.test_inputs.shape()[0];
    let mut preds: Vec<NdArray> = Vec::new();
    let mut start = 0;
    while start < n_test {
        let len = 128.min(n_test - start);
        let chunk = data.test_inputs.slice(0, start, len).expect("test chunk");
        let enc = model.encode(&chunk, &mut eval_ctx);
        let emb = enc.timestamps().reshape(&[len, t_p * d]);
        preds.push(head.forward(&emb).to_array());
        start += len;
    }
    let refs: Vec<&NdArray> = preds.iter().collect();
    let pred = data.denormalize_test(&NdArray::concat(&refs, 0));
    ForecastEvalResult { mse: mse(&pred, &data.test_targets), mae: mae(&pred, &data.test_targets) }
}

/// Fine-tunes a (pre-trained or fresh) model plus a linear classification
/// head end-to-end, then scores on the test set (Fig. 5(d–f)).
pub fn finetune_classification(
    model: &TimeDrl,
    train: &ClassifyDataset,
    test: &ClassifyDataset,
    ft: &FinetuneConfig,
    label_fraction: f32,
    seed: u64,
) -> ClassificationReport {
    let cfg = model.config();
    let mut rng = Prng::new(seed);

    let labelled =
        train.subsample_labels(label_fraction, &mut rng).expect("label fraction in [0, 1]");
    let batch_tensor = labelled.to_batch();

    // LP: the head *is* the logistic-probe solution on the frozen
    // encoder's embeddings of the labelled subset.
    let head = {
        let emb = model.embed_instances(&batch_tensor);
        LogisticProbe::fit(&emb, &labelled.labels, train.n_classes, &LogisticConfig::default(), seed)
            .into_linear()
    };

    // FT: joint encoder + head training.
    let mut joint = model.parameters();
    joint.extend(head.parameters());
    let mut opt = AdamW::new(joint, ft.lr, 1e-4);
    let mut ctx = Ctx::train(seed ^ 0xc1a5);
    for _ in 0..ft.epochs {
        for idx in BatchIndices::new(labelled.len(), ft.batch_size, Some(&mut rng))
            .expect("finetune batch_size is positive")
        {
            let inputs = gather_rows(&batch_tensor, &idx);
            let labels: Vec<usize> = idx.iter().map(|&i| labelled.labels[i]).collect();
            opt.zero_grad();
            let enc = model.encode(&inputs, &mut ctx);
            let z_i = enc.instance(cfg.pooling);
            head.forward(&z_i).cross_entropy(&labels).backward();
            opt.step();
        }
    }

    let test_emb = model.embed_instances(&test.to_batch());
    let pred = head.forward(&Var::constant(test_emb)).to_array().argmax_lastdim();
    classification_report(&pred, &test.labels, test.n_classes)
}

/// Gathers target rows `[M, H]` by index.
fn gather_targets(targets: &NdArray, rows: &[usize]) -> NdArray {
    let h = targets.shape()[1];
    let mut data = Vec::with_capacity(rows.len() * h);
    for &r in rows {
        data.extend_from_slice(&targets.data()[r * h..(r + 1) * h]);
    }
    NdArray::from_vec(&[rows.len(), h], data).expect("gathered targets")
}

/// Picks a random `fraction` of `0..n` (at least one element).
fn select_fraction(n: usize, fraction: f32, rng: &mut Prng) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    let keep = (((n as f32) * fraction).round() as usize).clamp(1, n);
    idx.truncate(keep);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use timedrl_data::synth::classify::pendigits;
    use timedrl_data::synth::forecast::etth1;

    fn quick_cfg(lookback: usize) -> TimeDrlConfig {
        let mut cfg = TimeDrlConfig::forecasting(lookback);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 2;
        cfg
    }

    fn quick_task() -> ForecastTask {
        ForecastTask { lookback: 32, horizon: 8, stride: 16 }
    }

    // ------------------------------------------------------------------
    // Direct unit tests of the data plumbing (no pre-training).
    // ------------------------------------------------------------------

    #[test]
    fn window_stats_hand_computed() {
        // Window 0: [1, 3] -> mean 2, var 1; window 1: [5, 5] -> mean 5, var 0.
        let inputs = NdArray::from_vec(&[2, 2, 1], vec![1.0, 3.0, 5.0, 5.0]).unwrap();
        let (mean, std) = window_stats(&inputs);
        assert_eq!(mean.shape(), &[2, 1]);
        assert_eq!(mean.at(&[0, 0]), 2.0);
        assert_eq!(mean.at(&[1, 0]), 5.0);
        assert!((std.at(&[0, 0]) - (1.0f32 + 1e-5).sqrt()).abs() < 1e-7);
        assert!((std.at(&[1, 0]) - (1e-5f32).sqrt()).abs() < 1e-7);
    }

    #[test]
    fn window_stats_one_window_edge() {
        let inputs = NdArray::from_vec(&[1, 3, 1], vec![2.0, 4.0, 6.0]).unwrap();
        let (mean, std) = window_stats(&inputs);
        assert_eq!(mean.shape(), &[1, 1]);
        assert_eq!(mean.at(&[0, 0]), 4.0);
        assert!(std.at(&[0, 0]) > 0.0);
    }

    #[test]
    fn revin_target_space_roundtrip() {
        // Hand-built ForecastData with known window statistics.
        let targets = NdArray::from_vec(&[2, 2], vec![3.0, 5.0, 10.0, 20.0]).unwrap();
        let mean = NdArray::from_vec(&[2, 1], vec![1.0, 10.0]).unwrap();
        let std = NdArray::from_vec(&[2, 1], vec![2.0, 5.0]).unwrap();
        let data = ForecastData {
            train_inputs: NdArray::zeros(&[2, 4, 1]),
            train_targets: targets.clone(),
            test_inputs: NdArray::zeros(&[2, 4, 1]),
            test_targets: targets.clone(),
            train_mean: mean.clone(),
            train_std: std.clone(),
            test_mean: mean,
            test_std: std,
        };
        let norm = data.train_targets_normalized();
        // Window 0: (3-1)/2 = 1, (5-1)/2 = 2; window 1: 0, 2.
        assert_eq!(norm.at(&[0, 0]), 1.0);
        assert_eq!(norm.at(&[0, 1]), 2.0);
        assert_eq!(norm.at(&[1, 0]), 0.0);
        assert_eq!(norm.at(&[1, 1]), 2.0);
        // Denormalizing the normalized targets recovers the originals
        // (train and test stats coincide in this fixture).
        assert!(data.denormalize_test(&norm).max_abs_diff(&targets) < 1e-6);
    }

    #[test]
    fn gather_targets_picks_rows_in_order() {
        let t = NdArray::from_vec(&[3, 2], vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]).unwrap();
        let g = gather_targets(&t, &[2, 0]);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.data(), &[20.0, 21.0, 0.0, 1.0]);
        // Empty gather: a well-formed [0, H] tensor, not a panic.
        assert_eq!(gather_targets(&t, &[]).shape(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "series too short")]
    fn too_short_series_is_reported() {
        let ds = etth1(60, 9);
        // Lookback + horizon exceed the 60/20/20 split's train length.
        prepare_forecast_data(&ds, &ForecastTask { lookback: 48, horizon: 24, stride: 1 });
    }

    #[test]
    fn forecast_pipeline_end_to_end() {
        let ds = etth1(1200, 0);
        let data = prepare_forecast_data(&ds, &quick_task());
        // 7 channels folded into the sample axis.
        assert_eq!(data.train_inputs.shape()[2], 1);
        assert_eq!(data.train_inputs.shape()[0] % 7, 0);
        let (_, result, report) = forecast_linear_eval(&quick_cfg(32), &data, 1.0).unwrap();
        assert!(result.mse.is_finite() && result.mse > 0.0);
        assert!(result.mae.is_finite() && result.mae > 0.0);
        assert!(report.final_loss().unwrap().is_finite());
    }

    #[test]
    fn probe_beats_mean_predictor_on_structured_data() {
        // Standardized targets have variance ~1, so MSE of the mean
        // predictor is ~1. The learned probe must do better on ETT's
        // strongly periodic series.
        let ds = etth1(2000, 1);
        let data = prepare_forecast_data(&ds, &quick_task());
        let (_, result, _) = forecast_linear_eval(&quick_cfg(32), &data, 1.0).unwrap();
        assert!(result.mse < 1.0, "probe MSE {} should beat variance baseline", result.mse);
    }

    #[test]
    fn fold_targets_matches_channel_fold_order() {
        // targets[n, h, c] = 100n + 10h + c
        let t = NdArray::from_fn(&[2, 3, 2], |flat| {
            let n = flat / 6;
            let h = (flat % 6) / 2;
            let c = flat % 2;
            (100 * n + 10 * h + c) as f32
        });
        let f = fold_targets(&t);
        assert_eq!(f.shape(), &[4, 3]);
        // Row 0: window 0 channel 0 horizons -> [0, 10, 20].
        assert_eq!(f.at(&[0, 2]), 20.0);
        // Row 1: window 0 channel 1 -> [1, 11, 21].
        assert_eq!(f.at(&[1, 0]), 1.0);
        // Row 2: window 1 channel 0 -> [100, ...].
        assert_eq!(f.at(&[2, 0]), 100.0);
    }

    #[test]
    fn classification_pipeline_end_to_end() {
        let ds = pendigits(120, 2);
        let mut rng = Prng::new(3);
        let (train, test) =
            ds.train_test_split(0.6, &mut rng).expect("0.6 is a valid fraction");
        let mut cfg = TimeDrlConfig::classification(8, 2);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 3;
        let probe_cfg = LogisticConfig { epochs: 120, ..Default::default() };
        let (_, report) = classification_linear_eval(&cfg, &train, &test, &probe_cfg).unwrap();
        // 10 classes, chance = 10%; structured prototypes should be far
        // above chance even with a tiny model.
        assert!(report.accuracy > 0.3, "accuracy {}", report.accuracy);
        assert!(report.kappa > 0.2, "kappa {}", report.kappa);
    }

    #[test]
    fn finetune_improves_or_matches_probe() {
        let ds = etth1(1200, 4);
        let data = prepare_forecast_data(&ds, &quick_task());
        let (model, probe_result, _) = forecast_linear_eval(&quick_cfg(32), &data, 1.0).unwrap();
        let ft = FinetuneConfig { epochs: 3, ..Default::default() };
        let ft_result = finetune_forecast(&model, &data, &ft, 1.0, 9);
        assert!(ft_result.mse.is_finite());
        // Fine-tuning with full labels should be in the same regime or
        // better — allow slack for the tiny training budget.
        assert!(ft_result.mse < probe_result.mse * 2.0);
    }

    #[test]
    fn label_fraction_subsampling() {
        let mut rng = Prng::new(5);
        let sel = select_fraction(100, 0.25, &mut rng);
        assert_eq!(sel.len(), 25);
        let all = select_fraction(10, 1.0, &mut rng);
        assert_eq!(all.len(), 10);
        let one = select_fraction(10, 0.0, &mut rng);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn finetune_classification_runs() {
        let ds = pendigits(80, 6);
        let mut rng = Prng::new(7);
        let (train, test) =
            ds.train_test_split(0.6, &mut rng).expect("0.6 is a valid fraction");
        let mut cfg = TimeDrlConfig::classification(8, 2);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.epochs = 1;
        let model = TimeDrl::new(cfg);
        let ft = FinetuneConfig { epochs: 4, ..Default::default() };
        let report = finetune_classification(&model, &train, &test, &ft, 0.5, 11);
        assert!(report.accuracy > 0.1, "should be at least near chance");
    }
}
