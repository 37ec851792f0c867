//! Table VI: ablation study on data augmentation. TimeDRL's thesis: any
//! augmentation during pre-training injects inductive bias and worsens
//! downstream forecasting. Runs the seven rows (None + six augmentations)
//! on ETTh1 and Exchange, at the prediction geometry scaled from the
//! paper's T = 168.

use testkit::impl_to_json;
use timedrl::forecast_linear_eval;
use timedrl_bench::registry::forecast_by_name;
use timedrl_bench::runners::{forecast_data, timedrl_forecast_config};
use timedrl_bench::{ResultSink, Scale};
use timedrl_data::Augmentation;

struct AugRecord {
    dataset: String,
    augmentation: String,
    mse: f32,
    delta_pct: f32,
}

impl_to_json!(AugRecord { dataset, augmentation, mse, delta_pct });

fn main() {
    let scale = Scale::from_args();
    let seed = 19u64;
    // Paper uses T=168; our full scale keeps that, quick shrinks it.
    let horizon = if scale == Scale::Quick { 24 } else { 168 };
    let mut sink = ResultSink::new("table6_augmentation");

    println!("Table VI. Ablation on data augmentation (forecast MSE, horizon {horizon}).\n");
    println!("{:<16} {:>10} {:>10} {:>10} {:>10}", "augmentation", "ETTh1", "Δ%", "Exchange", "Δ%");

    let datasets = ["ETTh1", "Exchange"];
    let mut baselines = [0.0f32; 2];
    let mut rows: Vec<(String, [f32; 2])> = Vec::new();

    for aug in Augmentation::ALL {
        let mut cells = [0.0f32; 2];
        for (d, name) in datasets.iter().enumerate() {
            let ds = forecast_by_name(name, scale);
            let data = forecast_data(&ds, horizon, scale);
            let mut cfg = timedrl_forecast_config(scale, seed);
            cfg.augmentation = aug;
            let (_, result, _) =
                forecast_linear_eval(&cfg, &data, 1.0).expect("pre-training failed");
            cells[d] = result.mse;
        }
        if aug == Augmentation::None {
            baselines = cells;
        }
        rows.push((aug.name().to_string(), cells));
    }

    for (name, cells) in &rows {
        let d0 = (cells[0] - baselines[0]) / baselines[0] * 100.0;
        let d1 = (cells[1] - baselines[1]) / baselines[1] * 100.0;
        println!("{name:<16} {:>10.3} {d0:>+9.2}% {:>10.3} {d1:>+9.2}%", cells[0], cells[1]);
        for (d, dataset) in datasets.iter().enumerate() {
            sink.push(AugRecord {
                dataset: dataset.to_string(),
                augmentation: name.clone(),
                mse: cells[d],
                delta_pct: (cells[d] - baselines[d]) / baselines[d] * 100.0,
            });
        }
    }

    println!("\nExpected shape (paper): every augmentation row is >= None; Rotation");
    println!("degrades most, Masking least.");
    let path = sink.write();
    println!("results written to {}", path.display());
}
