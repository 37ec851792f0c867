//! Parallel-runtime benchmark: the same kernels as `kernels`, pinned to
//! explicit `testkit::pool` thread counts so the speedup of the chunked
//! fan-out is measurable and tracked over time.
//!
//! Besides the usual stdout report, this target writes a machine-readable
//! baseline to `BENCH_parallel.json` at the repository root (override the
//! path with `TIMEDRL_BENCH_OUT`). The file records the host's available
//! parallelism next to every sample: on a single-core host the pool
//! degrades to the serial path plus scheduling overhead, so thread-count
//! speedups are only meaningful where `host_cores > 1`.

use testkit::bench::BenchReport;
use testkit::pool;
use testkit::{Bench, Json};
use timedrl_nn::Conv1d;
use timedrl_tensor::{
    attention_fused, attention_reference, matmul, matmul_nt, matmul_tn, Prng, Var,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

struct Record {
    group: String,
    id: String,
    threads: usize,
    report: BenchReport,
}

fn record(records: &mut Vec<Record>, group: &str, id: &str, threads: usize, report: BenchReport) {
    records.push(Record { group: group.to_string(), id: id.to_string(), threads, report });
}

fn bench_matmul_threads(b: &mut Bench, records: &mut Vec<Record>) {
    let mut group = b.group("matmul_256");
    let mut rng = Prng::new(0);
    let a = rng.randn(&[256, 256]);
    let bm = rng.randn(&[256, 256]);
    for &threads in &THREAD_COUNTS {
        let report =
            group.bench(format!("t{threads}"), || pool::with_threads(threads, || matmul(&a, &bm).unwrap()));
        record(records, "matmul_256", "256x256x256", threads, report);
    }
    group.finish();
}

/// The transpose-aware variants at the same scale as `matmul_256`: both
/// read their logically-transposed operand in place, so parity with the
/// plain product here means the backward pass pays no transpose tax.
fn bench_matmul_transposed_threads(b: &mut Bench, records: &mut Vec<Record>) {
    let mut rng = Prng::new(3);
    let a = rng.randn(&[256, 256]);
    let bm = rng.randn(&[256, 256]);

    let mut group = b.group("matmul_nt_256");
    for &threads in &THREAD_COUNTS {
        let report = group.bench(format!("t{threads}"), || {
            pool::with_threads(threads, || matmul_nt(&a, &bm).unwrap())
        });
        record(records, "matmul_nt_256", "256x256x256", threads, report);
    }
    group.finish();

    let mut group = b.group("matmul_tn_256");
    for &threads in &THREAD_COUNTS {
        let report = group.bench(format!("t{threads}"), || {
            pool::with_threads(threads, || matmul_tn(&a, &bm).unwrap())
        });
        record(records, "matmul_tn_256", "256x256x256", threads, report);
    }
    group.finish();
}

/// The fused tiled attention kernel (DESIGN.md §17) against the composed
/// chain it replaced (`matmul_nt → scale → mask → softmax → matmul`, which
/// materializes the `[B·H, T, T]` scores), at the serving-scale sequence
/// length T=256. `ci.sh`'s attention gate asserts `attention_fused_256` is
/// ≥1.5× `attention_naive_256` at equal thread counts.
fn bench_attention_threads(b: &mut Bench, records: &mut Vec<Record>) {
    let mut rng = Prng::new(5);
    let (bh, t, dh) = (8, 256, 16);
    let q = rng.randn(&[bh, t, dh]);
    let k = rng.randn(&[bh, t, dh]);
    let v = rng.randn(&[bh, t, dh]);
    let scale = 1.0 / (dh as f32).sqrt();

    let mut group = b.group("attention_fused_256");
    for &threads in &THREAD_COUNTS {
        let report = group.bench(format!("t{threads}"), || {
            pool::with_threads(threads, || attention_fused(&q, &k, &v, scale, true, None).unwrap())
        });
        record(records, "attention_fused_256", "8x256x16_causal", threads, report);
    }
    group.finish();

    let mut group = b.group("attention_naive_256");
    for &threads in &THREAD_COUNTS {
        let report = group.bench(format!("t{threads}"), || {
            pool::with_threads(threads, || {
                attention_reference(&q, &k, &v, scale, true, None).unwrap()
            })
        });
        record(records, "attention_naive_256", "8x256x16_causal", threads, report);
    }
    group.finish();
}

fn bench_conv1d_threads(b: &mut Bench, records: &mut Vec<Record>) {
    let mut group = b.group("conv1d_forward_256");
    let mut rng = Prng::new(1);
    let conv = Conv1d::new(32, 32, 3, 1, 1, 1, &mut rng);
    let x = Var::constant(rng.randn(&[8, 32, 256]));
    for &threads in &THREAD_COUNTS {
        let report = group.bench(format!("t{threads}"), || {
            pool::with_threads(threads, || conv.forward(&x).to_array())
        });
        record(records, "conv1d_forward_256", "8x32x256_k3", threads, report);
    }
    group.finish();
}

fn bench_elementwise_threads(b: &mut Bench, records: &mut Vec<Record>) {
    let mut group = b.group("map_1m");
    let mut rng = Prng::new(2);
    let a = rng.randn(&[1 << 20]);
    for &threads in &THREAD_COUNTS {
        let report = group.bench(format!("t{threads}"), || {
            pool::with_threads(threads, || a.map(|v| (v * 1.7).tanh()))
        });
        record(records, "map_1m", "tanh_1048576", threads, report);
    }
    group.finish();
}

/// Median-time speedup of each multi-thread row over its group's
/// single-thread row.
fn speedup_vs_serial(records: &[Record], r: &Record) -> Option<f64> {
    let serial = records
        .iter()
        .find(|s| s.group == r.group && s.id == r.id && s.threads == 1)?;
    (r.report.median > 0.0).then(|| serial.report.median / r.report.median)
}

fn out_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("TIMEDRL_BENCH_OUT") {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json")
}

/// Detected SIMD features, recorded in the baseline so cross-host numbers
/// are interpretable: the exact GEMM microkernel under every `matmul_*` and
/// attention row here dispatches to its AVX2 instantiation only where `avx2`
/// is detected, and runs its portable one otherwise (same bits, different
/// speed) — a reader comparing hosts needs to know which one ran.
fn cpu_features() -> Vec<Json> {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, have) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512vl", std::arch::is_x86_feature_detected!("avx512vl")),
            ("avx512vnni", std::arch::is_x86_feature_detected!("avx512vnni")),
        ] {
            if have {
                feats.push(name);
            }
        }
    }
    feats.into_iter().map(|f| Json::Str(f.to_string())).collect()
}

fn main() {
    let mut b = Bench::from_env("kernels_parallel");
    let mut records = Vec::new();
    bench_matmul_threads(&mut b, &mut records);
    bench_matmul_transposed_threads(&mut b, &mut records);
    bench_attention_threads(&mut b, &mut records);
    bench_conv1d_threads(&mut b, &mut records);
    bench_elementwise_threads(&mut b, &mut records);

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut obj = vec![
                ("group".to_string(), Json::Str(r.group.clone())),
                ("id".to_string(), Json::Str(r.id.clone())),
                ("threads".to_string(), Json::Num(r.threads as f64)),
                ("median_s".to_string(), Json::Num(r.report.median)),
                ("min_s".to_string(), Json::Num(r.report.min)),
                ("p95_s".to_string(), Json::Num(r.report.p95)),
                ("samples".to_string(), Json::Num(r.report.samples as f64)),
            ];
            if let Some(s) = speedup_vs_serial(&records, r) {
                obj.push(("speedup_vs_1thread".to_string(), Json::Num(s)));
            }
            Json::Obj(obj)
        })
        .collect();
    let doc = Json::Obj(vec![
        ("suite".to_string(), Json::Str("kernels_parallel".to_string())),
        ("host_cores".to_string(), Json::Num(host_cores as f64)),
        ("cpu_features".to_string(), Json::Arr(cpu_features())),
        ("results".to_string(), Json::Arr(results)),
    ]);
    let path = out_path();
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_parallel.json");
    println!("\nwrote {}", path.display());
}
