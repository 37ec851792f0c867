//! Integration tests for the full TimeDRL pipeline: pre-training dynamics,
//! disentanglement properties, collapse behaviour, and end-to-end
//! downstream evaluation across crates.

use timedrl::{
    classification_linear_eval, forecast_linear_eval, prepare_forecast_data, pretrain,
    EncoderKind, ForecastTask, Pooling, TimeDrl, TimeDrlConfig, TrainError,
};
use timedrl_data::synth::classify::epilepsy;
use timedrl_data::synth::forecast::{etth1, exchange};
use timedrl_data::Augmentation;
use timedrl_eval::LogisticConfig;
use timedrl_nn::Ctx;
use timedrl_tensor::{NdArray, Prng};

fn tiny_cfg(input_len: usize) -> TimeDrlConfig {
    let mut cfg = TimeDrlConfig::forecasting(input_len);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 3;
    cfg
}

fn sine_windows(n: usize, t: usize, seed: u64) -> NdArray {
    let mut rng = Prng::new(seed);
    NdArray::from_fn(&[n, t, 1], |flat| {
        let i = flat / t;
        ((flat % t) as f32 * 0.35 + i as f32 * 0.2).sin() + rng.normal_with(0.0, 0.1)
    })
}

#[test]
fn pretraining_improves_low_label_probe_over_random_encoder() {
    // The core value proposition: pre-trained embeddings beat random-init
    // embeddings under the same frozen probe *when labels are scarce*
    // (with abundant labels, random high-dimensional features plus a
    // ridge readout are already a strong baseline — the random-features
    // effect — so the label-limited regime is where representation
    // quality is measurable).
    let ds = epilepsy(300, 3);
    let (train, test) = ds.train_test_split(0.6, &mut Prng::new(0)).unwrap();
    let labelled = train.subsample_labels(0.1, &mut Prng::new(1)).unwrap();
    let mut cfg = TimeDrlConfig::classification(train.sample_len(), train.features());
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 5;
    let probe = LogisticConfig::default();

    let random_model = TimeDrl::new(cfg.clone());
    let random = timedrl::probe_classification(&random_model, &labelled, &test, &probe);

    let trained_model = TimeDrl::new(cfg);
    pretrain(&trained_model, &train.to_batch()).unwrap(); // unlabeled pre-training
    let trained = timedrl::probe_classification(&trained_model, &labelled, &test, &probe);

    assert!(
        trained.accuracy > random.accuracy,
        "pretraining must help at 10% labels: trained {} vs random {}",
        trained.accuracy,
        random.accuracy
    );
}

#[test]
fn dual_level_embeddings_are_disentangled() {
    // The [CLS] embedding must carry information not recoverable by
    // pooling timestamp embeddings: after pre-training, the CLS and GAP
    // instance views differ substantially.
    let model = TimeDrl::new(tiny_cfg(32));
    let windows = sine_windows(48, 32, 0);
    pretrain(&model, &windows).unwrap();
    let mut ctx = Ctx::eval();
    let enc = model.encode(&windows.slice(0, 0, 8).unwrap(), &mut ctx);
    let cls = enc.instance(Pooling::Cls).to_array();
    let gap = enc.instance(Pooling::Gap).to_array();
    assert!(cls.max_abs_diff(&gap) > 0.1, "CLS degenerated into a pooled view");
}

#[test]
fn instance_embeddings_do_not_collapse() {
    let model = TimeDrl::new(tiny_cfg(32));
    let windows = sine_windows(64, 32, 1);
    pretrain(&model, &windows).unwrap();
    let z = model.embed_instances(&windows);
    // Across-batch variance of every dimension must not vanish.
    let std = z.var_axis(0, false).sqrt();
    assert!(std.mean() > 1e-3, "mean embedding std {} indicates collapse", std.mean());
}

#[test]
fn lambda_zero_still_learns_reconstruction() {
    // With lambda = 0 the contrastive task is off; predictive loss must
    // still fall (the two tasks are genuinely separate).
    let mut cfg = tiny_cfg(32);
    cfg.lambda = 0.0;
    let model = TimeDrl::new(cfg);
    let report = pretrain(&model, &sine_windows(48, 32, 2)).unwrap();
    assert!(report.predictive.last().unwrap() < &report.predictive[0]);
    // And the contrastive loss (tracked but unweighted) stays in range.
    assert!(report.contrastive.iter().all(|c| (-1.0..=1.0).contains(c)));
}

#[test]
fn exchange_random_walk_needs_revin_denormalization() {
    // Exchange is near a random walk: the window's own level carries most
    // of the predictable signal. The RevIN-style denormalized probe must
    // beat the variance baseline (MSE of predicting the global mean ~ 1).
    let ds = exchange(1500, 4).univariate();
    let task = ForecastTask { lookback: 32, horizon: 8, stride: 8 };
    let data = prepare_forecast_data(&ds, &task);
    let (_, result, _) = forecast_linear_eval(&tiny_cfg(32), &data, 1.0).unwrap();
    assert!(result.mse < 0.9, "RevIN probe must exploit window level: mse {}", result.mse);
}

#[test]
fn classification_pipeline_beats_chance_on_epilepsy() {
    let ds = epilepsy(120, 5);
    let (train, test) = ds.train_test_split(0.6, &mut Prng::new(0)).unwrap();
    let mut cfg = TimeDrlConfig::classification(train.sample_len(), train.features());
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 3;
    let probe = LogisticConfig { epochs: 150, ..Default::default() };
    let (_, report) = classification_linear_eval(&cfg, &train, &test, &probe).unwrap();
    assert!(report.accuracy > 0.7, "epilepsy accuracy {}", report.accuracy);
    assert!(report.kappa > 0.3, "epilepsy kappa {}", report.kappa);
}

#[test]
fn every_encoder_kind_pretrains() {
    // Table VIII coverage: all six backbones run the full pretext
    // pipeline without shape or gradient failures.
    for kind in EncoderKind::ALL {
        let mut cfg = tiny_cfg(32);
        cfg.encoder = kind;
        cfg.epochs = 1;
        let model = TimeDrl::new(cfg);
        let report = pretrain(&model, &sine_windows(16, 32, 3)).unwrap();
        assert!(
            report.final_loss().unwrap().is_finite(),
            "{} produced non-finite loss",
            kind.name()
        );
    }
}

#[test]
fn every_augmentation_pretrains() {
    // Table VI coverage: all seven augmentation settings run end-to-end.
    for aug in Augmentation::ALL {
        let mut cfg = tiny_cfg(32);
        cfg.augmentation = aug;
        cfg.epochs = 1;
        let model = TimeDrl::new(cfg);
        let report = pretrain(&model, &sine_windows(16, 32, 4)).unwrap();
        assert!(report.final_loss().unwrap().is_finite(), "{} failed", aug.name());
    }
}

#[test]
fn without_stop_gradient_embeddings_shrink_toward_collapse() {
    // Table IX mechanism check: training the contrastive task alone
    // (lambda large) without stop-gradient drives the representation
    // toward the trivial solution faster than with it.
    let run = |sg: bool| {
        let mut cfg = tiny_cfg(32);
        cfg.stop_gradient = sg;
        cfg.lambda = 50.0; // contrastive-dominated
        cfg.epochs = 6;
        let model = TimeDrl::new(cfg);
        let windows = sine_windows(48, 32, 5);
        pretrain(&model, &windows).unwrap();
        let z = model.embed_instances(&windows);
        // Dispersion of normalized embeddings (collapse-sensitive).
        
        z.var_axis(0, false).sqrt().mean()
    };
    let with_sg = run(true);
    let without_sg = run(false);
    assert!(
        with_sg > without_sg * 0.8,
        "stop-gradient should preserve at least comparable dispersion: {} vs {}",
        with_sg,
        without_sg
    );
}

#[test]
fn deterministic_end_to_end() {
    let ds = etth1(1200, 6);
    let task = ForecastTask { lookback: 32, horizon: 8, stride: 16 };
    let data = prepare_forecast_data(&ds, &task);
    let (_, r1, _) = forecast_linear_eval(&tiny_cfg(32), &data, 1.0).unwrap();
    let (_, r2, _) = forecast_linear_eval(&tiny_cfg(32), &data, 1.0).unwrap();
    assert_eq!(r1.mse, r2.mse, "same config + seed must reproduce bit-exactly");
}

#[test]
fn checkpoint_roundtrip_preserves_behaviour() {
    // Save a trained model, perturb it, reload: embeddings must match the
    // originals bit-for-bit.
    let model = TimeDrl::new(tiny_cfg(32));
    let windows = sine_windows(24, 32, 9);
    pretrain(&model, &windows).unwrap();
    let before = model.embed_instances(&windows);

    let dir = std::env::temp_dir().join("timedrl_integration_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.tdrl");
    model.save(&path).unwrap();

    // Wreck the weights, then restore.
    for p in timedrl_nn::Module::parameters(&model) {
        p.update_value(|w| *w = w.scale(0.0));
    }
    let wrecked = model.embed_instances(&windows);
    assert!(before.max_abs_diff(&wrecked) > 1e-3, "zeroing must change embeddings");

    model.load(&path).unwrap();
    let after = model.embed_instances(&windows);
    assert_eq!(before, after, "checkpoint must restore exact behaviour");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_rejects_mismatched_architecture() {
    let model = TimeDrl::new(tiny_cfg(32));
    let dir = std::env::temp_dir().join("timedrl_integration_ckpt2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.tdrl");
    model.save(&path).unwrap();
    let mut other_cfg = tiny_cfg(32);
    other_cfg.d_model = 32; // different width
    let other = TimeDrl::new(other_cfg);
    assert!(other.load(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn linear_eval_pipelines_return_typed_errors_on_bad_input() {
    let ds = etth1(600, 6).univariate();
    let task = ForecastTask { lookback: 32, horizon: 8, stride: 16 };
    let data = prepare_forecast_data(&ds, &task);
    let mut no_epochs = tiny_cfg(32);
    no_epochs.epochs = 0;
    assert!(matches!(
        forecast_linear_eval(&no_epochs, &data, 1.0),
        Err(TrainError::InvalidConfig(_))
    ));
    match forecast_linear_eval(&tiny_cfg(48), &data, 1.0) {
        Err(TrainError::BadWindows { got, .. }) => assert_eq!(got[1], 32),
        other => panic!("expected BadWindows for a lookback mismatch, got {:?}", other.err()),
    }

    let (train, test) = epilepsy(24, 5).train_test_split(0.5, &mut Prng::new(0)).unwrap();
    let mut cfg = TimeDrlConfig::classification(train.sample_len(), train.features());
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.epochs = 0;
    let probe = LogisticConfig::default();
    assert!(matches!(
        classification_linear_eval(&cfg, &train, &test, &probe),
        Err(TrainError::InvalidConfig(_))
    ));
}
