//! The streaming engine's headline contract, property-tested: a random
//! tick stream produces the same embeddings and anomaly scores as the
//! batch path re-encoding every window from scratch.
//!
//! * **Bitwise** on exact-stats hops (`recompute_every = 1` makes every
//!   hop exact), at every thread count, for patch-aligned *and*
//!   misaligned window lengths, on cold and warm buffer pools.
//! * **Within ε** (`1e-3`, in practice far tighter) between exact hops
//!   when the cheap incremental statistics are in effect — and bitwise
//!   again the moment an exact hop recomputes.
//! * Online calibration matches the batch `AnomalyDetector` on the
//!   same scores, and the rolling forecaster matches the batch ridge
//!   readout's arithmetic.

use testkit::pool;
use testkit::prop;
use timedrl::{
    anomaly_scores, decode_model_export, encode_model_export, AnomalyDetector, Precision, TimeDrl,
    TimeDrlConfig,
};
use timedrl_data::PatchConfig;
use timedrl_eval::RidgeProbe;
use timedrl_serve::CompiledModel;
use timedrl_stream::{OnlineAnomalyScorer, RollingForecaster, StreamUpdate, StreamingEncoder};
use timedrl_tensor::{NdArray, Prng};

/// Window lengths exercised by the properties: patch-aligned (16 = 4·4)
/// and misaligned (18, 22 leave a ragged tail no patch covers).
const WINDOW_LENS: [usize; 3] = [16, 18, 22];

/// ε for hops normalized with incremental (f64 Welford) statistics.
const EPS: f32 = 1e-3;

fn fixture(input_len: usize, seed: u64) -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(input_len);
    cfg.patch = PatchConfig::non_overlapping(4);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 2;
    cfg.seed = seed;
    TimeDrl::new(cfg)
}

fn compile(model: &TimeDrl) -> CompiledModel {
    let payload = encode_model_export(model);
    CompiledModel::from_export(decode_model_export(&payload[4..]).expect("export"))
        .expect("compile")
}

/// Streams `series` (`[N, 1]`) through a fresh engine, returning every
/// hop with its anomaly score.
fn run_stream(model: &TimeDrl, series: &NdArray, recompute_every: usize) -> Vec<(StreamUpdate, f32)> {
    let mut engine = StreamingEncoder::new(compile(model), recompute_every).expect("engine");
    let mut hops = Vec::new();
    for i in 0..series.shape()[0] {
        let sample = [series.data()[i]];
        if let Some(update) = engine.push(&sample).expect("push") {
            let (_, score) = engine.reconstruction_error(&update).expect("score");
            hops.push((update, score));
        }
    }
    hops
}

/// The batch reference for the window ending at `tick`: `[1, T, 1]`.
fn window_at(series: &NdArray, tick: u64, t: usize) -> NdArray {
    series
        .slice(0, tick as usize - t, t)
        .expect("window")
        .reshape(&[1, t, 1])
        .expect("shape")
}

/// An engine's model reports the exact tier, the only one it computes.
#[test]
fn exact_engine_reports_the_exact_tier() {
    let model = fixture(16, 1);
    let engine = StreamingEncoder::new(compile(&model), 1).expect("engine");
    assert_eq!(engine.model().precision(), Precision::Exact);
}

prop! {
    #![config(cases = 6)]

    /// With `recompute_every = 1` every hop recomputes exact statistics,
    /// so every hop must be bitwise-identical to the batch path — both
    /// the compiled embeddings and the tape anomaly score.
    fn streaming_is_bitwise_identical_to_batch_when_stats_are_exact(
        len_pick in 0usize..3,
        extra_hops in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let t = WINDOW_LENS[len_pick];
        let model = fixture(t, seed % 17);
        let compiled = compile(&model);
        let series = Prng::new(seed ^ 0xA5).randn(&[t + extra_hops * 4, 1]);
        let hops = run_stream(&model, &series, 1);
        assert_eq!(hops.len(), 1 + extra_hops, "one hop per completed patch stride");
        for (update, score) in &hops {
            assert!(update.exact);
            let window = window_at(&series, update.tick, t);
            let batch = compiled.embed(&window).expect("batch embed");
            assert_eq!(batch.z_i.data(), update.z_i.data(), "z_i bits at tick {}", update.tick);
            assert_eq!(batch.z_t.data(), update.z_t.data(), "z_t bits at tick {}", update.tick);
            let tape = anomaly_scores(&model, &window);
            assert_eq!(
                tape.per_window[0].to_bits(),
                score.to_bits(),
                "anomaly score bits at tick {}", update.tick
            );
        }
    }

    /// With a recompute period, intermediate hops normalize with the
    /// incremental f64 statistics: embeddings and scores stay within ε
    /// of the batch path, and exact hops snap back to bitwise equality.
    fn incremental_stats_stay_within_epsilon_and_exact_hops_restore_bits(
        len_pick in 0usize..3,
        recompute_every in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let t = WINDOW_LENS[len_pick];
        let model = fixture(t, seed % 13);
        let compiled = compile(&model);
        let hops_total = 2 * recompute_every + 1;
        let series = Prng::new(seed ^ 0x3C).randn(&[t + hops_total * 4, 1]);
        let hops = run_stream(&model, &series, recompute_every);
        let mut saw_inexact = false;
        for (i, (update, score)) in hops.iter().enumerate() {
            assert_eq!(update.exact, i % recompute_every == 0, "exact cadence at hop {i}");
            let window = window_at(&series, update.tick, t);
            let batch = compiled.embed(&window).expect("batch embed");
            let tape = anomaly_scores(&model, &window);
            if update.exact {
                assert_eq!(batch.z_t.data(), update.z_t.data(), "exact hop {i} must be bitwise");
                assert_eq!(tape.per_window[0].to_bits(), score.to_bits());
            } else {
                saw_inexact = true;
                let max_diff = batch
                    .z_t
                    .data()
                    .iter()
                    .zip(update.z_t.data())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(max_diff <= EPS, "hop {i} drifted {max_diff} > {EPS}");
                assert!((tape.per_window[0] - score).abs() <= EPS);
            }
        }
        assert!(saw_inexact, "the property must exercise incremental hops");
    }

    /// The entire streaming pipeline is thread-count invariant: the same
    /// tick stream produces identical bytes at 1, 2, and 4 threads.
    fn streaming_bits_do_not_depend_on_thread_count(
        len_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let t = WINDOW_LENS[len_pick];
        let model = fixture(t, seed % 11);
        let series = Prng::new(seed ^ 0x77).randn(&[t + 3 * 4, 1]);
        let run = || {
            run_stream(&model, &series, 2)
                .into_iter()
                .map(|(u, s)| (u.z_i.data().to_vec(), u.z_t.data().to_vec(), s.to_bits()))
                .collect::<Vec<_>>()
        };
        let baseline = pool::with_threads(1, run);
        for threads in [2usize, 4] {
            let got = pool::with_threads(threads, || pool::with_grain(16, run));
            assert_eq!(baseline, got, "stream diverged at {threads} threads");
        }
    }

    /// A cold buffer pool (first run in the process) and a warm one
    /// (every later run) produce identical bytes, warmed or not.
    fn cold_and_warm_arenas_produce_identical_streams(
        seed in 0u64..1_000_000,
    ) {
        let t = 16;
        let model = fixture(t, seed % 7);
        let series = Prng::new(seed ^ 0x5A).randn(&[t + 3 * 4, 1]);
        let reference = run_stream(&model, &series, 2);
        // Second engine: pool now warm from the first run. Third engine:
        // explicitly warmed before any tick arrives.
        let warm_pool = run_stream(&model, &series, 2);
        let mut warmed = StreamingEncoder::new(compile(&model), 2).expect("engine");
        warmed.warm();
        let mut explicit = Vec::new();
        for i in 0..series.shape()[0] {
            if let Some(update) = warmed.push(&[series.data()[i]]).expect("push") {
                let (_, score) = warmed.reconstruction_error(&update).expect("score");
                explicit.push((update, score));
            }
        }
        for (a, b) in reference.iter().zip(&warm_pool).chain(reference.iter().zip(&explicit)) {
            assert_eq!(a.0.z_i.data(), b.0.z_i.data());
            assert_eq!(a.0.z_t.data(), b.0.z_t.data());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    /// The online scorer's first calibration equals the batch
    /// `AnomalyDetector` calibrated on the same warmup scores, and its
    /// verdicts afterwards equal the batch `detect`.
    fn online_calibration_matches_the_batch_detector(
        warmup in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let t = 16;
        let model = fixture(t, seed % 5);
        let series = Prng::new(seed ^ 0xE1).randn(&[t + (warmup + 4) * 4, 1]);
        let mut engine = StreamingEncoder::new(compile(&model), 2).expect("engine");
        let mut scorer = OnlineAnomalyScorer::new(0.75, warmup, None).expect("scorer");
        let mut scores = Vec::new();
        let mut verdicts = Vec::new();
        for i in 0..series.shape()[0] {
            if let Some(update) = engine.push(&[series.data()[i]]).expect("push") {
                let tick = scorer.observe(&engine, &update).expect("observe");
                scores.push(tick.score);
                verdicts.push(tick.anomalous);
            }
        }
        let detector = AnomalyDetector::calibrate(&scores[..warmup], 0.75);
        assert_eq!(
            scorer.threshold().expect("calibrated after warmup").to_bits(),
            detector.threshold().to_bits()
        );
        let batch_verdicts = detector.detect(&scores[warmup..]);
        assert_eq!(&verdicts[warmup..], &batch_verdicts.iter().copied().map(Some).collect::<Vec<_>>()[..]);
    }

    /// The rolling forecaster reproduces the batch ridge readout bit for
    /// bit, and RevIN de-normalization uses the same window-stat
    /// arithmetic as the batch pipeline.
    fn rolling_forecaster_matches_the_batch_readout(
        horizon in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let t = 16;
        let model = fixture(t, seed % 3);
        let series = Prng::new(seed ^ 0x9D).randn(&[t + 2 * 4, 1]);
        let hops = run_stream(&model, &series, 1);
        let (update, _) = hops.last().expect("at least one hop");
        let k = update.z_t.shape()[1] * update.z_t.shape()[2];
        // A ridge probe fitted on synthetic data stands in for the batch
        // readout — the contract is arithmetic, not accuracy.
        let feats = Prng::new(seed ^ 0x11).randn(&[8, k]);
        let targets = Prng::new(seed ^ 0x22).randn(&[8, horizon]);
        let probe = RidgeProbe::fit(&feats, &targets, 1.0);
        let forecaster = RollingForecaster::from_probe(&probe).expect("forecaster");
        assert_eq!(forecaster.horizon(), horizon);

        let flat = update.z_t.reshape(&[1, k]).expect("flatten");
        let batch_pred = probe.predict(&flat);
        let stream_pred = forecaster.refresh(update).expect("refresh");
        assert_eq!(batch_pred.data(), stream_pred.data(), "normalized-space bits");

        // De-normalized: the engine's exact-hop stats are the batch
        // window stats, so pred·σ + μ must match the batch arithmetic.
        let mut engine = StreamingEncoder::new(compile(&model), 1).expect("engine");
        let mut last = None;
        for i in 0..series.shape()[0] {
            if let Some(u) = engine.push(&[series.data()[i]]).expect("push") {
                last = Some(u);
            }
        }
        let last = last.expect("hop");
        let window = window_at(&series, last.tick, t).reshape(&[t, 1]).expect("2d");
        let stats = timedrl_data::InstanceStats::compute(&window);
        let denorm = forecaster.refresh_denormalized(&engine, &last).expect("denorm");
        let manual = forecaster
            .refresh(&last)
            .expect("refresh")
            .scale(stats.std.data()[0])
            .add_scalar(stats.mean.data()[0]);
        assert_eq!(manual.data(), denorm.data(), "RevIN de-normalization bits");
    }
}
