//! Forecasting with linear evaluation on a synthetic ETTh1: the full
//! Fig. 3 pipeline — chronological split, standardization, windowing,
//! channel-independence, self-supervised pre-training, frozen-encoder
//! ridge probe — exactly the protocol behind Table III.
//!
//! ```text
//! cargo run -p timedrl --release --example forecasting
//! ```

use timedrl::{forecast_linear_eval, prepare_forecast_data, ForecastTask, TimeDrlConfig};
use timedrl_data::synth::forecast::etth1;

fn main() {
    // Synthetic ETTh1: 7 channels, hourly cadence, daily/weekly seasonality.
    let dataset = etth1(3000, 7);
    println!(
        "dataset: {} ({} steps x {} features, {})",
        dataset.name,
        dataset.timesteps(),
        dataset.features(),
        dataset.frequency
    );

    // Task geometry: look back 64 steps, predict 24 (the shortest paper
    // horizon), windows every 8 steps.
    let task = ForecastTask { lookback: 64, horizon: 24, stride: 8 };
    let data = prepare_forecast_data(&dataset, &task);
    println!(
        "windows: {} train / {} test (channel-independent univariate folds)",
        data.train_inputs.shape()[0],
        data.test_inputs.shape()[0]
    );

    // Pre-train + frozen linear evaluation.
    let mut cfg = TimeDrlConfig::forecasting(task.lookback);
    cfg.epochs = 5;
    let (model, result, report) =
        forecast_linear_eval(&cfg, &data, 1.0).expect("pre-training failed");
    println!(
        "\npre-training loss: {:.4} -> {:.4}",
        report.total[0],
        report.final_loss().expect("at least one epoch ran")
    );
    println!("linear-probe test MSE: {:.4}", result.mse);
    println!("linear-probe test MAE: {:.4}", result.mae);

    // Context: the mean predictor on standardized data scores MSE ~ 1.
    println!("\n(reference: predicting the per-channel mean scores MSE ~ 1.0)");
    let improvement = (1.0 - result.mse) * 100.0;
    println!("TimeDRL's frozen embeddings beat it by {improvement:.1}%");
    let _ = model;
}
