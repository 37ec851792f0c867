//! Serving-path benchmark: request latency and throughput of the
//! tape-free compiled forward (`timedrl-serve`), against the eval-mode
//! `Var`-tape forward it replaces (DESIGN.md §13).
//!
//! Writes `BENCH_serve.json` at the repository root (override with
//! `TIMEDRL_BENCH_OUT`): per-batch p50/p95 latency, derived
//! embeddings/sec, and steady-state `allocs_per_request` — the metric
//! `ci.sh` gates to zero via `probe serve check`.

use testkit::alloc::count_allocations;
use testkit::{Bench, Json};
use timedrl::{decode_model_export, encode_model_export, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_nn::Ctx;
use timedrl_serve::CompiledModel;
use timedrl_tensor::{NdArray, Prng};

fn out_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("TIMEDRL_BENCH_OUT") {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

/// Serving-sized model: one ETT-style forecasting window geometry.
fn model() -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(64);
    cfg.patch = PatchConfig::non_overlapping(8);
    cfg.d_model = 32;
    cfg.n_heads = 4;
    cfg.d_ff = 64;
    cfg.n_layers = 2;
    cfg.seed = 47;
    TimeDrl::new(cfg)
}

fn result_obj(
    group: &str,
    id: &str,
    batch: usize,
    report: &testkit::bench::BenchReport,
) -> Vec<(String, Json)> {
    vec![
        ("group".to_string(), Json::Str(group.to_string())),
        ("id".to_string(), Json::Str(id.to_string())),
        ("p50_latency_s".to_string(), Json::Num(report.median)),
        ("p95_latency_s".to_string(), Json::Num(report.p95)),
        ("min_s".to_string(), Json::Num(report.min)),
        ("embeddings_per_sec".to_string(), Json::Num(batch as f64 / report.median)),
        ("samples".to_string(), Json::Num(report.samples as f64)),
    ]
}

fn main() {
    let model = model();
    let payload = encode_model_export(&model);
    let compiled = CompiledModel::from_export(decode_model_export(&payload[4..]).unwrap())
        .expect("transformer backbone compiles");

    let mut b = Bench::from_env("embed_serve");
    let mut results = Vec::new();

    let mut group = b.group("compiled_embed");
    for batch in [1usize, 16, 64] {
        let x = Prng::new(batch as u64).randn(&[batch, 64, 1]);
        compiled.warm(batch);
        let report = group.bench(&format!("batch{batch}"), || {
            compiled.embed(&x).expect("valid request")
        });
        results.push(Json::Obj(result_obj(
            "compiled_embed",
            &format!("batch{batch}"),
            batch,
            &report,
        )));
    }
    group.finish();

    // The tape path at the same batch, for the compiled-vs-tape ratio.
    let mut group = b.group("tape_embed");
    let x16 = Prng::new(16).randn(&[16, 64, 1]);
    let tape = group.bench("batch16", || {
        let mut ctx = Ctx::eval();
        let enc = model.encode(&x16, &mut ctx);
        (enc.instance(model.config().pooling).to_array(), enc.timestamps().to_array())
    });
    results.push(Json::Obj(result_obj("tape_embed", "batch16", 16, &tape)));
    group.finish();

    // Steady-state allocation metric at batch 1 (the latency-critical
    // request size) — gated to zero by ci.sh.
    let x1: NdArray = Prng::new(1).randn(&[1, 64, 1]);
    compiled.warm(1);
    compiled.warm(1);
    let (_, allocs_per_request) = count_allocations(|| compiled.embed(&x1));
    println!("allocs/request (steady state): {allocs_per_request}");

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = testkit::pool::num_threads();
    let doc = Json::Obj(vec![
        ("suite".to_string(), Json::Str("embed_serve".to_string())),
        ("host_cores".to_string(), Json::Num(host_cores as f64)),
        ("timedrl_threads".to_string(), Json::Num(threads as f64)),
        ("allocs_per_request".to_string(), Json::Num(allocs_per_request as f64)),
        ("results".to_string(), Json::Arr(results)),
    ]);
    let path = out_path();
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_serve.json");
    println!("\nwrote {}", path.display());
}
