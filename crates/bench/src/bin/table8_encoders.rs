//! Table VIII: ablation study on the backbone encoder architecture —
//! Transformer encoder (TimeDRL's choice) vs Transformer decoder (causal),
//! 1-D ResNet, TCN, LSTM, and Bi-LSTM, on ETTh1 and Exchange forecasting.
//!
//! The paper's expected ordering: the bidirectional Transformer wins;
//! causal/unidirectional variants (decoder, TCN, LSTM) trail their
//! bidirectional counterparts — full temporal access per timestamp
//! matters.

use testkit::impl_to_json;
use timedrl::{forecast_linear_eval, EncoderKind};
use timedrl_bench::registry::forecast_by_name;
use timedrl_bench::runners::{forecast_data, timedrl_forecast_config};
use timedrl_bench::{ResultSink, Scale};

struct EncoderRecord {
    dataset: String,
    encoder: String,
    mse: f32,
    delta_pct: f32,
}

impl_to_json!(EncoderRecord { dataset, encoder, mse, delta_pct });

fn main() {
    let scale = Scale::from_args();
    let seed = 29u64;
    let horizon = if scale == Scale::Quick { 24 } else { 168 };
    let mut sink = ResultSink::new("table8_encoders");

    println!("Table VIII. Ablation on the backbone encoder (forecast MSE, horizon {horizon}).\n");
    println!("{:<28} {:>10} {:>10} {:>10} {:>10}", "backbone", "ETTh1", "Δ%", "Exchange", "Δ%");

    let datasets = ["ETTh1", "Exchange"];
    let mut baselines = [0.0f32; 2];
    let mut rows: Vec<(String, [f32; 2])> = Vec::new();

    for kind in EncoderKind::ALL {
        let mut cells = [0.0f32; 2];
        for (d, name) in datasets.iter().enumerate() {
            let ds = forecast_by_name(name, scale);
            let data = forecast_data(&ds, horizon, scale);
            let mut cfg = timedrl_forecast_config(scale, seed);
            cfg.encoder = kind;
            let (_, result, _) =
                forecast_linear_eval(&cfg, &data, 1.0).expect("pre-training failed");
            cells[d] = result.mse;
        }
        if kind == EncoderKind::TransformerEncoder {
            baselines = cells;
        }
        rows.push((kind.name().to_string(), cells));
    }

    for (name, cells) in &rows {
        let d0 = (cells[0] - baselines[0]) / baselines[0] * 100.0;
        let d1 = (cells[1] - baselines[1]) / baselines[1] * 100.0;
        println!("{name:<28} {:>10.3} {d0:>+9.2}% {:>10.3} {d1:>+9.2}%", cells[0], cells[1]);
        for (d, dataset) in datasets.iter().enumerate() {
            sink.push(EncoderRecord {
                dataset: dataset.to_string(),
                encoder: name.clone(),
                mse: cells[d],
                delta_pct: (cells[d] - baselines[d]) / baselines[d] * 100.0,
            });
        }
    }

    println!("\nExpected shape (paper): Transformer encoder best; decoder (causal)");
    println!("worse than encoder; Bi-LSTM better than LSTM.");
    let path = sink.write();
    println!("results written to {}", path.display());
}
