//! Workspace-level integration tests: full user journeys spanning every
//! crate — load real-format data, pre-train, evaluate, checkpoint,
//! compare against a baseline.

use timedrl::{
    classification_linear_eval, forecast_linear_eval, prepare_forecast_data, pretrain,
    ForecastTask, TimeDrl, TimeDrlConfig,
};
use timedrl_baselines::{BaselineConfig, SslMethod, Ts2Vec};
use timedrl_data::{load_forecast_csv, parse_ts};
use timedrl_eval::{classification_report, KnnProbe, LogisticConfig};
use timedrl_tensor::Prng;

/// Journey 1: a user with a real ETT-style CSV loads it, runs the full
/// linear-evaluation pipeline, and checkpoints the encoder.
#[test]
fn csv_to_forecast_to_checkpoint() {
    // Write a synthetic "real CSV" (what a user would download).
    let dir = std::env::temp_dir().join("timedrl_e2e_csv");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ett_mini.csv");
    let mut csv = String::from("date,HUFL,HULL,OT\n");
    let mut rng = Prng::new(0);
    for t in 0..900 {
        let base = (t as f32 * 0.26).sin() + t as f32 * 0.002;
        csv.push_str(&format!(
            "2016-07-{:02} {:02}:00:00,{:.3},{:.3},{:.3}\n",
            1 + (t / 24) % 28,
            t % 24,
            base + rng.normal_with(0.0, 0.05),
            base * 0.5 + rng.normal_with(0.0, 0.05),
            base * 0.8 + rng.normal_with(0.0, 0.05),
        ));
    }
    std::fs::write(&path, csv).unwrap();

    let ds = load_forecast_csv(&path, "ETT-mini", "1 hour", 2).unwrap();
    assert_eq!(ds.features(), 3);
    let task = ForecastTask { lookback: 32, horizon: 8, stride: 8 };
    let data = prepare_forecast_data(&ds, &task);

    let mut cfg = TimeDrlConfig::forecasting(32);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 3;
    let (model, result, _) = forecast_linear_eval(&cfg, &data, 1.0).unwrap();
    assert!(result.mse < 1.0, "periodic CSV series must beat the variance baseline: {}", result.mse);

    // Checkpoint and restore into a fresh model: identical predictions.
    let ckpt = dir.join("model.tdrl");
    model.save(&ckpt).unwrap();
    let mut cfg2 = TimeDrlConfig::forecasting(32);
    cfg2.d_model = 16;
    cfg2.d_ff = 32;
    cfg2.n_heads = 2;
    cfg2.seed = 12345; // different init...
    let restored = TimeDrl::new(cfg2);
    restored.load(&ckpt).unwrap(); // ...overwritten by the checkpoint
    let a = model.embed_instances(&data.test_inputs);
    let b = restored.embed_instances(&data.test_inputs);
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

/// Journey 2: a user with a `.ts` classification archive trains TimeDRL
/// and probes with both the logistic and kNN probes.
#[test]
fn ts_archive_to_classification() {
    // Synthesize a .ts file with two separable classes.
    let mut text = String::from("@problemName mini\n@classLabel true 0 1\n@data\n");
    let mut rng = Prng::new(1);
    for i in 0..80 {
        let class = i % 2;
        let freq = if class == 0 { 0.3f32 } else { 1.1 };
        let vals: Vec<String> = (0..24)
            .map(|t| format!("{:.4}", (t as f32 * freq).sin() + rng.normal_with(0.0, 0.05)))
            .collect();
        text.push_str(&vals.join(","));
        text.push_str(&format!(" : {class}\n"));
    }
    let ds = parse_ts(&text, "mini").unwrap();
    assert_eq!(ds.n_classes, 2);

    let (train, test) = ds.train_test_split(0.6, &mut Prng::new(2)).unwrap();
    let mut cfg = TimeDrlConfig::classification(24, 1);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 4;
    let probe_cfg = LogisticConfig { epochs: 150, ..Default::default() };
    let (model, report) = classification_linear_eval(&cfg, &train, &test, &probe_cfg).unwrap();
    assert!(report.accuracy > 0.8, "logistic probe accuracy {}", report.accuracy);

    // kNN probe on the same frozen embeddings must also separate classes.
    let train_emb = model.embed_instances(&train.to_batch());
    let test_emb = model.embed_instances(&test.to_batch());
    let knn = KnnProbe::fit(&train_emb, &train.labels, 5);
    let knn_report = classification_report(&knn.predict(&test_emb), &test.labels, 2);
    assert!(knn_report.accuracy > 0.8, "kNN probe accuracy {}", knn_report.accuracy);
}

/// Journey 3: TimeDRL and a baseline run on the *same* data through the
/// same probe — the comparison machinery the experiment harness relies on.
#[test]
fn timedrl_and_baseline_share_probe_protocol() {
    let ds = timedrl_data::synth::forecast::etth1(1200, 3);
    let task = ForecastTask { lookback: 32, horizon: 8, stride: 16 };
    let data = prepare_forecast_data(&ds, &task);

    let mut cfg = TimeDrlConfig::forecasting(32);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 2;
    let (_, timedrl_result, _) = forecast_linear_eval(&cfg, &data, 1.0).unwrap();

    let mut baseline = Ts2Vec::new(BaselineConfig {
        epochs: 2,
        ..BaselineConfig::compact(32, 1)
    });
    baseline.pretrain(&data.train_inputs);
    let train_emb = baseline.embed_timestamps_flat(&data.train_inputs);
    let test_emb = baseline.embed_timestamps_flat(&data.test_inputs);
    let probe = timedrl_eval::RidgeProbe::fit(&train_emb, &data.train_targets, 1.0);
    let pred = probe.predict(&test_emb);
    let baseline_mse = timedrl_eval::mse(&pred, &data.test_targets);

    // Both pipelines produce sane numbers on the same data.
    assert!(timedrl_result.mse.is_finite() && timedrl_result.mse > 0.0);
    assert!(baseline_mse.is_finite() && baseline_mse > 0.0);
}

/// Journey 4: the anomaly-detection extension works end to end with the
/// schedule-driven optimizer API.
#[test]
fn anomaly_pipeline_with_lr_schedule() {
    use timedrl_nn::{LrSchedule, WarmupCosine};
    // (Schedules drive optimizers in user training loops; here we verify
    // the public API composes — the anomaly example covers detection
    // quality.)
    let schedule = WarmupCosine { peak: 1e-3, floor: 1e-5, warmup_steps: 10, total_steps: 100 };
    let windows = Prng::new(4).randn(&[32, 32, 1]);
    let mut cfg = TimeDrlConfig::forecasting(32);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 2;
    let model = TimeDrl::new(cfg);
    pretrain(&model, &windows).expect("pre-training failed");
    let scores = timedrl::anomaly_scores(&model, &windows);
    assert_eq!(scores.per_window.len(), 32);
    assert!(scores.per_window.iter().all(|s| s.is_finite() && *s >= 0.0));
    assert!(schedule.rate_at(5) < schedule.rate_at(9));
}
