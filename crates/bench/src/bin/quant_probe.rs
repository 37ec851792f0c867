//! CI probe for the relaxed exactness tier (see `ci.sh`).
//!
//! Answers the question the serving gate cannot: does int8 quantized
//! serving *change the answers that matter*? The probe embeds the same
//! synthetic dataset under both tiers of one fixture model, fits the
//! paper's linear-evaluation readouts on each tier's embeddings, and
//! requires the downstream metrics — classification accuracy and
//! forecast MSE — to agree within ε. It also re-checks the serving
//! allocation budget on the relaxed path: a warmed relaxed request must
//! perform zero heap allocations, same as exact.
//!
//! Prints machine-parseable `key=value` lines and exits nonzero on any
//! violated budget. Run with `TIMEDRL_THREADS=1`, so the allocation count
//! does not depend on how many pool workers the host spawns.

use std::process::ExitCode;
use testkit::alloc::count_allocations;
use timedrl::{decode_model_export, encode_model_export, Precision, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_eval::{classification_report, mse, LogisticConfig, LogisticProbe, RidgeProbe};
use timedrl_serve::CompiledModel;
use timedrl_tensor::{NdArray, Prng};

/// Dataset geometry: windows of `T` ticks, `H` future ticks as the
/// forecast target, split `TRAIN`/`TEST`.
const N: usize = 96;
const TRAIN: usize = 64;
const T: usize = 16;
const H: usize = 4;

/// Tier-agreement budgets. Quantization perturbs each embedding by well
/// under 1% (see the `relaxed` serve suite); after a linear readout the
/// *metric* drift stays far smaller than these, and anything beyond them
/// means the relaxed tier is changing answers, not rounding them.
const ACC_EPS: f32 = 0.05;
const MSE_REL_EPS: f32 = 0.10;

fn fixture_model() -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(T);
    cfg.patch = PatchConfig::non_overlapping(4);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 2;
    cfg.seed = 11;
    TimeDrl::new(cfg)
}

fn compile(model: &TimeDrl, precision: Precision) -> CompiledModel {
    let payload = encode_model_export(model);
    let export = decode_model_export(&payload[4..]).expect("export");
    CompiledModel::from_export_with(export, precision).expect("compile")
}

/// Synthetic but *learnable* data: per-window sinusoids whose frequency
/// carries the class label and whose continuation is the forecast target.
fn dataset() -> (NdArray, NdArray, Vec<usize>) {
    let mut rng = Prng::new(42);
    let params = rng.randn(&[N, 2]);
    let noise = rng.randn(&[N, T + H]);
    let mut series = vec![0.0f32; N * (T + H)];
    let mut labels = Vec::with_capacity(N);
    for n in 0..N {
        let r = params.data()[n * 2];
        let freq = 0.1 + 0.4 / (1.0 + (-r).exp());
        let phase = params.data()[n * 2 + 1];
        labels.push(usize::from(freq > 0.3));
        for t in 0..T + H {
            series[n * (T + H) + t] = (std::f32::consts::TAU * freq * t as f32 + phase).sin()
                + 0.1 * noise.data()[n * (T + H) + t];
        }
    }
    let mut windows = NdArray::zeros(&[N, T, 1]);
    let mut targets = NdArray::zeros(&[N, H]);
    for n in 0..N {
        windows.data_mut()[n * T..(n + 1) * T]
            .copy_from_slice(&series[n * (T + H)..n * (T + H) + T]);
        targets.data_mut()[n * H..(n + 1) * H]
            .copy_from_slice(&series[n * (T + H) + T..(n + 1) * (T + H)]);
    }
    (windows, targets, labels)
}

/// Linear-evaluation metrics on one tier's embeddings.
fn evaluate(z_i: &NdArray, targets: &NdArray, labels: &[usize]) -> (f32, f32) {
    let (z_train, z_test) = (z_i.slice(0, 0, TRAIN).unwrap(), z_i.slice(0, TRAIN, N - TRAIN).unwrap());
    let (y_train, y_test) =
        (targets.slice(0, 0, TRAIN).unwrap(), targets.slice(0, TRAIN, N - TRAIN).unwrap());
    let ridge = RidgeProbe::fit(&z_train, &y_train, 1.0);
    let fmse = mse(&ridge.predict(&z_test), &y_test);
    let logistic = LogisticProbe::fit(&z_train, &labels[..TRAIN], 2, &LogisticConfig::default(), 9);
    let acc = classification_report(&logistic.predict(&z_test), &labels[TRAIN..], 2).accuracy;
    (acc, fmse)
}

fn main() -> ExitCode {
    let model = fixture_model();
    let (windows, targets, labels) = dataset();

    let exact = compile(&model, Precision::Exact);
    let relaxed = compile(&model, Precision::Relaxed);

    let z_exact = exact.embed(&windows).expect("exact embed").z_i;
    let z_relaxed = relaxed.embed(&windows).expect("relaxed embed").z_i;

    let (acc_exact, mse_exact) = evaluate(&z_exact, &targets, &labels);
    let (acc_relaxed, mse_relaxed) = evaluate(&z_relaxed, &targets, &labels);
    println!("accuracy_exact={acc_exact}");
    println!("accuracy_relaxed={acc_relaxed}");
    println!("mse_exact={mse_exact}");
    println!("mse_relaxed={mse_relaxed}");

    // Steady-state allocation budget on the relaxed serving path.
    let probe = Prng::new(7).randn(&[3, T, 1]);
    relaxed.warm(3);
    relaxed.warm(3);
    let (result, allocs) = count_allocations(|| relaxed.embed(&probe));
    result.expect("relaxed embed");
    println!("relaxed_allocs_per_request={allocs}");

    let mut ok = true;
    if (acc_exact - acc_relaxed).abs() > ACC_EPS {
        eprintln!("quant_probe: FAIL: accuracy drifts {} > {ACC_EPS}", (acc_exact - acc_relaxed).abs());
        ok = false;
    }
    let mse_drift = (mse_exact - mse_relaxed).abs() / mse_exact.max(1e-6);
    if mse_drift > MSE_REL_EPS {
        eprintln!("quant_probe: FAIL: forecast MSE drifts {mse_drift} > {MSE_REL_EPS} (relative)");
        ok = false;
    }
    if allocs != 0 {
        eprintln!("quant_probe: FAIL: warmed relaxed request allocates {allocs} blocks, budget is 0");
        ok = false;
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("quality=ok");
    ExitCode::SUCCESS
}
