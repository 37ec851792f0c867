//! Training-step benchmark: wall-clock and steady-state heap allocations
//! of one whole-batch pre-training step (forward + backward + clip +
//! AdamW), the path the packed matmul microkernel and the tensor buffer
//! pool optimize (DESIGN.md §10).
//!
//! Writes a machine-readable baseline to `BENCH_step.json` at the
//! repository root (override with `TIMEDRL_BENCH_OUT`). Alongside the
//! usual median/min/p95 seconds it records `allocs_per_step`, measured at
//! steady state (after warm-up steps, so every pool bucket is populated) —
//! the same metric `ci.sh` gates via `probe step_alloc`. The
//! Fig. 4-shape elementwise layer rows (`fig4_layers`) ride along.

use testkit::{Bench, Json};
use timedrl_bench::step::bench_fig4_layers;
use timedrl_bench::StepHarness;

fn out_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("TIMEDRL_BENCH_OUT") {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_step.json")
}

fn result_obj(group: &str, id: &str, report: &testkit::bench::BenchReport) -> Vec<(String, Json)> {
    vec![
        ("group".to_string(), Json::Str(group.to_string())),
        ("id".to_string(), Json::Str(id.to_string())),
        ("median_s".to_string(), Json::Num(report.median)),
        ("min_s".to_string(), Json::Num(report.min)),
        ("p95_s".to_string(), Json::Num(report.p95)),
        ("samples".to_string(), Json::Num(report.samples as f64)),
    ]
}

fn main() {
    let mut b = Bench::from_env("step_train");
    let mut group = b.group("pretrain_step");
    let mut harness = StepHarness::new();
    // The group's own warm-up iterations put the pool at steady state
    // before any timed sample.
    let report = group.bench("whole_batch_b8_d16", || harness.step());
    group.finish();

    // Phase split: forward alone (graph built and dropped), then repeated
    // backward over one retained graph. Together they show which side of
    // the step the transpose-aware kernels are paying off on.
    let mut group = b.group("pretrain_phases");
    let fwd = group.bench("forward_b8_d16", || harness.forward_only());
    let loss = harness.build_loss();
    let bwd = group.bench("backward_b8_d16", || harness.backward_only(&loss));
    drop(loss);
    group.finish();

    // The elementwise layers of the Fig. 4 step, so a regression in any
    // of them has a committed baseline (DESIGN.md §10, row walker).
    let layers = bench_fig4_layers(&mut b);

    // Allocation metric, measured after the timing loop: thousands of
    // steps in, every transient buffer should come from the pool.
    let allocs_per_step = harness.allocations_per_step(2, 8);
    println!("allocs/step (steady state): {allocs_per_step}");

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = testkit::pool::num_threads();

    let mut whole = result_obj("pretrain_step", "whole_batch_b8_d16", &report);
    whole.push(("allocs_per_step".to_string(), Json::Num(allocs_per_step as f64)));
    let doc = Json::Obj(vec![
        ("suite".to_string(), Json::Str("step_train".to_string())),
        ("host_cores".to_string(), Json::Num(host_cores as f64)),
        ("timedrl_threads".to_string(), Json::Num(threads as f64)),
        (
            "results".to_string(),
            Json::Arr(
                [
                    Json::Obj(whole),
                    Json::Obj(result_obj("pretrain_phases", "forward_b8_d16", &fwd)),
                    Json::Obj(result_obj("pretrain_phases", "backward_b8_d16", &bwd)),
                ]
                .into_iter()
                .chain(layers.iter().map(|(id, r)| Json::Obj(result_obj("fig4_layers", id, r))))
                .collect(),
            ),
        ),
    ]);
    let path = out_path();
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_step.json");
    println!("\nwrote {}", path.display());
}
