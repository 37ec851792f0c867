//! Extension experiment: channel-independence vs channel-mixing for
//! forecasting — the Section V.4 implementation claim ("we observed that
//! channel-independence significantly enhances performance in time-series
//! forecasting").
//!
//! Channel-independent: each channel becomes a univariate sample through
//! shared weights (`[N, L, C] -> [N·C, L, 1]`). Channel-mixing: the model
//! consumes all channels jointly (`n_features = C`).

use testkit::impl_to_json;
use timedrl::{
    channel_independent, forecast_linear_eval, pretrain, ForecastEvalResult, ForecastTask,
    TimeDrl, TimeDrlConfig,
};
use timedrl_bench::registry::forecast_by_name;
use timedrl_bench::runners::timedrl_forecast_config;
use timedrl_bench::{ResultSink, Scale};
use timedrl_data::{chrono_split, sliding_windows, Standardizer};
use timedrl_eval::{mae, mse, RidgeProbe};

struct CiRecord {
    dataset: String,
    mode: String,
    mse: f32,
    mae: f32,
}

impl_to_json!(CiRecord { dataset, mode, mse, mae });

fn main() {
    let scale = Scale::from_args();
    let seed = 41u64;
    let horizon = 24usize;
    let mut sink = ResultSink::new("ablation_channel_independence");

    println!("Extension: channel-independence vs channel-mixing (forecast, horizon {horizon}).\n");
    println!("{:<10} {:>22} {:>22}", "dataset", "independent (MSE/MAE)", "mixing (MSE/MAE)");

    for name in ["ETTh1", "Weather"] {
        let ds = forecast_by_name(name, scale);
        let task = ForecastTask { lookback: scale.lookback(), horizon, stride: scale.window_stride() };

        // Channel-independent: the standard pipeline.
        let data = timedrl::prepare_forecast_data(&ds, &task);
        let cfg = timedrl_forecast_config(scale, seed);
        let (_, independent, _) =
            forecast_linear_eval(&cfg, &data, 1.0).expect("pre-training failed");

        // Channel-mixing: model built with n_features = C; probe predicts
        // the flattened multivariate horizon.
        let mixing = channel_mixing_eval(&ds, &task, scale, seed);

        println!(
            "{:<10} {:>11.3} / {:>7.3} {:>11.3} / {:>7.3}",
            name, independent.mse, independent.mae, mixing.mse, mixing.mae
        );
        for (mode, r) in [("independent", independent), ("mixing", mixing)] {
            sink.push(CiRecord { dataset: name.to_string(), mode: mode.into(), mse: r.mse, mae: r.mae });
        }
    }

    println!("\nExpected shape (paper, Section V.4): channel-independence wins on");
    println!("forecasting — shared univariate weights generalize better than joint");
    println!("channel mixing at this data scale.");
    let path = sink.write();
    println!("results written to {}", path.display());
}

/// The channel-mixing counterpart of `forecast_linear_eval`: no channel
/// fold; the probe maps flattened timestamp embeddings to the flattened
/// `[H·C]` horizon. Scores on the same standardized scale.
fn channel_mixing_eval(
    ds: &timedrl_data::ForecastDataset,
    task: &ForecastTask,
    scale: Scale,
    seed: u64,
) -> ForecastEvalResult {
    let split = chrono_split(ds);
    let scaler = Standardizer::fit(&split.train);
    let train = scaler.transform(&split.train);
    let test = scaler.transform(&split.test);
    let train_w = sliding_windows(&train, task.lookback, task.horizon, task.stride);
    let test_w = sliding_windows(&test, task.lookback, task.horizon, task.stride);

    let c = ds.features();
    let mut cfg = TimeDrlConfig::forecasting(task.lookback);
    cfg.n_features = c;
    cfg.channel_independence = false;
    cfg.epochs = scale.epochs();
    cfg.seed = seed;
    let model = TimeDrl::new(cfg);
    pretrain(&model, &train_w.inputs).expect("pre-training failed");

    // RevIN parity with the independent path: the probe learns horizons in
    // each window's per-channel normalized scale; predictions are
    // de-normalized with the window statistics before scoring.
    let window_stats = |inputs: &timedrl_tensor::NdArray| {
        let mean = inputs.mean_axis(1, true); // [N, 1, C]
        let std = inputs.var_axis(1, true).add_scalar(1e-5).sqrt();
        (mean, std)
    };
    let flatten = |targets: &timedrl_tensor::NdArray| {
        let n = targets.shape()[0];
        let h = targets.shape()[1];
        targets.reshape(&[n, h * c]).expect("flatten targets")
    };
    let (train_mean, train_std) = window_stats(&train_w.inputs);
    let (test_mean, test_std) = window_stats(&test_w.inputs);
    let norm_train_targets = flatten(&train_w.targets.sub(&train_mean).div(&train_std));

    let train_emb = model.embed_timestamps_flat(&train_w.inputs);
    let test_emb = model.embed_timestamps_flat(&test_w.inputs);
    let probe = RidgeProbe::fit(&train_emb, &norm_train_targets, 1.0);
    let h = test_w.targets.shape()[1];
    let n_test = test_w.targets.shape()[0];
    let pred_norm = probe.predict(&test_emb).reshape(&[n_test, h, c]).expect("unflatten");
    let pred = flatten(&pred_norm.mul(&test_std).add(&test_mean));
    let truth = flatten(&test_w.targets);
    ForecastEvalResult { mse: mse(&pred, &truth), mae: mae(&pred, &truth) }
}

// Re-export check: channel_independent is part of the public API used by
// the independent path inside prepare_forecast_data.
#[allow(dead_code)]
fn _api_surface(x: &timedrl_tensor::NdArray) -> timedrl_tensor::NdArray {
    channel_independent(x)
}
