//! Fig. 6: sensitivity analysis on λ (Eq. 19), sweeping the
//! predictive/contrastive balance across seven orders of magnitude.
//!
//! Small λ → predictive-dominated; large λ → contrastive-dominated. The
//! paper's finding: both extremes hurt, λ = 1 (balanced) is near-optimal
//! for both forecasting (MSE) and classification (accuracy).

use testkit::impl_to_json;
use timedrl_bench::registry::{classify_by_name, forecast_by_name};
use timedrl_bench::runners::{
    forecast_data, probe_config, timedrl_classify_config, timedrl_forecast_config,
};
use timedrl_bench::{line_chart, ResultSink, Scale, Series};
use timedrl::{classification_linear_eval, forecast_linear_eval};
use timedrl_tensor::Prng;

struct LambdaRecord {
    task: String,
    dataset: String,
    lambda: f32,
    metric: f32,
}

impl_to_json!(LambdaRecord { task, dataset, lambda, metric });

fn main() {
    let scale = Scale::from_args();
    let seed = 17u64;
    let mut sink = ResultSink::new("fig6_lambda_sensitivity");

    // Forecasting branch (ETTh1, horizon 24).
    let ds_f = forecast_by_name("ETTh1", scale);
    let data = forecast_data(&ds_f, 24, scale);
    println!("Fig. 6 (left): forecasting MSE on ETTh1 vs lambda (lower is better).\n");
    println!("{:>10} {:>10}", "lambda", "MSE");
    let mut mse_pts = Vec::new();
    for &lambda in &scale.lambda_grid() {
        let mut cfg = timedrl_forecast_config(scale, seed);
        cfg.lambda = lambda;
        let (_, result, _) =
            forecast_linear_eval(&cfg, &data, 1.0).expect("pre-training failed");
        println!("{lambda:>10.3} {:>10.3}", result.mse);
        mse_pts.push((lambda.log10(), result.mse));
        sink.push(LambdaRecord {
            task: "forecast".into(),
            dataset: "ETTh1".into(),
            lambda,
            metric: result.mse,
        });
    }
    println!("\n{}", line_chart(
        &[Series { label: "ETTh1 MSE".into(), points: mse_pts }],
        56, 10,
        "forecast MSE vs log10(lambda)",
    ));

    // Classification branch (FingerMovements).
    let ds_c = classify_by_name("FingerMovements", scale);
    let (train, test) = ds_c.train_test_split(0.6, &mut Prng::new(seed)).unwrap();
    println!("\nFig. 6 (right): classification accuracy on FingerMovements vs lambda.\n");
    println!("{:>10} {:>10}", "lambda", "ACC %");
    let mut acc_pts = Vec::new();
    for &lambda in &scale.lambda_grid() {
        let mut cfg = timedrl_classify_config(&train, scale, seed);
        cfg.lambda = lambda;
        let (_, report) = classification_linear_eval(&cfg, &train, &test, &probe_config(scale))
            .expect("pre-training failed");
        println!("{lambda:>10.3} {:>10.2}", report.accuracy * 100.0);
        acc_pts.push((lambda.log10(), report.accuracy * 100.0));
        sink.push(LambdaRecord {
            task: "classify".into(),
            dataset: "FingerMovements".into(),
            lambda,
            metric: report.accuracy * 100.0,
        });
    }
    println!("\n{}", line_chart(
        &[Series { label: "FingerMovements ACC %".into(), points: acc_pts }],
        56, 10,
        "classification accuracy vs log10(lambda)",
    ));

    println!("\nExpected shape (paper): forecasting degrades at tiny lambda (contrastive");
    println!("task starved); classification degrades at huge lambda (predictive task");
    println!("starved); balanced lambda ~ 1 is strong for both.");
    let path = sink.write();
    println!("results written to {}", path.display());
}
