//! Shared method runners used by the experiment binaries: one call = one
//! (method, dataset, task) cell of a paper table.

use crate::scale::Scale;
use timedrl::{
    classification_linear_eval, forecast_linear_eval, prepare_forecast_data, ForecastData,
    ForecastEvalResult, ForecastTask, TimeDrlConfig,
};
use timedrl_baselines::{BaselineConfig, EndToEndForecaster, SslMethod};
use timedrl_data::{ClassifyDataset, ForecastDataset};
use timedrl_eval::{
    classification_report, mae, mse, ClassificationReport, LogisticConfig, LogisticProbe,
    RidgeProbe,
};

/// Ridge regularization used by every forecasting probe.
pub const RIDGE_LAMBDA: f32 = 1.0;

/// Logistic-probe settings used by every classification probe.
pub fn probe_config(scale: Scale) -> LogisticConfig {
    LogisticConfig {
        epochs: match scale {
            Scale::Quick => 80,
            Scale::Full => 200,
        },
        ..Default::default()
    }
}

/// TimeDRL forecasting configuration at experiment scale.
pub fn timedrl_forecast_config(scale: Scale, seed: u64) -> TimeDrlConfig {
    let mut cfg = TimeDrlConfig::forecasting(scale.lookback());
    cfg.epochs = scale.epochs();
    cfg.seed = seed;
    cfg
}

/// TimeDRL classification configuration at experiment scale.
pub fn timedrl_classify_config(ds: &ClassifyDataset, scale: Scale, seed: u64) -> TimeDrlConfig {
    let mut cfg = TimeDrlConfig::classification(ds.sample_len(), ds.features());
    cfg.epochs = scale.epochs();
    cfg.seed = seed;
    cfg
}

/// Baseline configuration matched to the forecasting geometry.
pub fn baseline_forecast_config(scale: Scale, seed: u64) -> BaselineConfig {
    let mut cfg = BaselineConfig::compact(scale.lookback(), 1);
    cfg.epochs = scale.epochs();
    cfg.seed = seed;
    cfg
}

/// Baseline configuration matched to a classification dataset.
pub fn baseline_classify_config(ds: &ClassifyDataset, scale: Scale, seed: u64) -> BaselineConfig {
    let mut cfg = BaselineConfig::compact(ds.sample_len(), ds.features());
    cfg.epochs = scale.epochs();
    cfg.seed = seed;
    cfg
}

/// Builds forecasting data for one (dataset, horizon) cell.
pub fn forecast_data(ds: &ForecastDataset, horizon: usize, scale: Scale) -> ForecastData {
    let task = ForecastTask { lookback: scale.lookback(), horizon, stride: scale.window_stride() };
    prepare_forecast_data(ds, &task)
}

/// TimeDRL's cell of Table III/IV: pre-train + ridge probe.
pub fn run_timedrl_forecast(data: &ForecastData, scale: Scale, seed: u64) -> ForecastEvalResult {
    let cfg = timedrl_forecast_config(scale, seed);
    let (_, result, _) =
        forecast_linear_eval(&cfg, data, RIDGE_LAMBDA).expect("pre-training failed");
    result
}

/// An SSL baseline's cell of Table III/IV: pre-train, embed, ridge probe.
pub fn run_ssl_forecast(method: &mut dyn SslMethod, data: &ForecastData) -> ForecastEvalResult {
    method.pretrain(&data.train_inputs);
    let train_emb = method.embed_timestamps_flat(&data.train_inputs);
    let test_emb = method.embed_timestamps_flat(&data.test_inputs);
    let probe = RidgeProbe::fit(&train_emb, &data.train_targets, RIDGE_LAMBDA);
    let pred = probe.predict(&test_emb);
    ForecastEvalResult { mse: mse(&pred, &data.test_targets), mae: mae(&pred, &data.test_targets) }
}

/// An end-to-end baseline's cell of Table III/IV: supervised fit + predict.
pub fn run_e2e_forecast(method: &mut dyn EndToEndForecaster, data: &ForecastData) -> ForecastEvalResult {
    method.fit(&data.train_inputs, &data.train_targets);
    let pred = method.predict(&data.test_inputs);
    ForecastEvalResult { mse: mse(&pred, &data.test_targets), mae: mae(&pred, &data.test_targets) }
}

/// TimeDRL's cell of Table V: pre-train + logistic probe.
pub fn run_timedrl_classification(
    train: &ClassifyDataset,
    test: &ClassifyDataset,
    scale: Scale,
    seed: u64,
) -> ClassificationReport {
    let cfg = timedrl_classify_config(train, scale, seed);
    let (_, report) = classification_linear_eval(&cfg, train, test, &probe_config(scale))
        .expect("pre-training failed");
    report
}

/// An SSL baseline's cell of Table V: pre-train, embed, logistic probe.
pub fn run_ssl_classification(
    method: &mut dyn SslMethod,
    train: &ClassifyDataset,
    test: &ClassifyDataset,
    scale: Scale,
    seed: u64,
) -> ClassificationReport {
    method.pretrain(&train.to_batch());
    let train_emb = method.embed_instances(&train.to_batch());
    let test_emb = method.embed_instances(&test.to_batch());
    let probe = LogisticProbe::fit(&train_emb, &train.labels, train.n_classes, &probe_config(scale), seed);
    let pred = probe.predict(&test_emb);
    classification_report(&pred, &test.labels, test.n_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{classify_by_name, forecast_by_name};
    use timedrl_baselines::SimTs;
    use timedrl_tensor::Prng;

    #[test]
    fn timedrl_forecast_cell_runs() {
        let ds = forecast_by_name("ETTh1", Scale::Quick);
        let data = forecast_data(&ds, 24, Scale::Quick);
        let r = run_timedrl_forecast(&data, Scale::Quick, 0);
        assert!(r.mse.is_finite() && r.mse > 0.0);
    }

    #[test]
    fn ssl_forecast_cell_runs() {
        let ds = forecast_by_name("Exchange", Scale::Quick);
        let data = forecast_data(&ds, 24, Scale::Quick);
        let mut m = SimTs::new(baseline_forecast_config(Scale::Quick, 0));
        let r = run_ssl_forecast(&mut m, &data);
        assert!(r.mse.is_finite());
    }

    #[test]
    fn classification_cell_runs() {
        let ds = classify_by_name("PenDigits", Scale::Quick);
        let (train, test) = ds.train_test_split(0.6, &mut Prng::new(1)).unwrap();
        let r = run_timedrl_classification(&train, &test, Scale::Quick, 0);
        assert!(r.accuracy > 0.0 && r.accuracy <= 1.0);
    }
}
