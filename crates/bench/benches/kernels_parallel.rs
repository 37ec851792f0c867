//! Parallel-runtime benchmark: the same kernels as `kernels`, pinned to
//! explicit `testkit::pool` thread counts so the speedup of the chunked
//! fan-out is measurable and tracked over time.
//!
//! Besides the usual stdout report, this target writes a machine-readable
//! baseline to `BENCH_parallel.json` at the repository root (override the
//! path with `TIMEDRL_BENCH_OUT`). The file records the host's available
//! parallelism next to every sample, and marks every row run on more
//! threads than the host has cores `"oversubscribed": true`: such a row
//! measures scheduling overhead, not a speedup.
//!
//! The `fig4_ops` group times the ops of one Fig. 4 training step (T=512,
//! P=S=16, so 33 tokens; d_model 32, d_ff 64, 4 heads, batch 32) one by
//! one, at 1 and 2 threads with each kernel's own grain, and at 2 threads
//! with that grain divided by 4 and by 16. The `per_op_1v2` table collects
//! those medians, so both "is any op slower at 2 threads than at 1?" and
//! "would a smaller grain pay?" can be read from the file.

use testkit::bench::BenchReport;
use testkit::pool;
use testkit::{Bench, Json};
use timedrl_nn::Conv1d;
use timedrl_tensor::{
    attention_fused, attention_fused_backward, attention_reference, matmul, matmul_nt,
    matmul_tn, Prng, Var,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The kernels' default grains, in their own work units: `MATMUL_GRAIN`
/// (multiply-adds; matmul and attention) in `crates/tensor/src/matmul.rs`,
/// `ROWWISE_GRAIN` and `ELEMWISE_GRAIN` (elements) in
/// `crates/tensor/src/array.rs`.
const MATMUL_GRAIN: usize = 1 << 18;
const ROWWISE_GRAIN: usize = 1 << 15;
const ELEMWISE_GRAIN: usize = 1 << 17;

/// Divisors of an op's default grain tried at 2 threads.
const GRAIN_DIVISORS: [usize; 2] = [4, 16];

struct Record {
    group: String,
    id: String,
    threads: usize,
    /// The grain override the row ran under; `None` for the kernel default.
    grain: Option<usize>,
    report: BenchReport,
}

fn record(records: &mut Vec<Record>, group: &str, id: &str, threads: usize, report: BenchReport) {
    records.push(Record {
        group: group.to_string(),
        id: id.to_string(),
        threads,
        grain: None,
        report,
    });
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

/// One op of the Fig. 4 training step and the default grain of its kernel.
struct Fig4Op {
    id: &'static str,
    grain: usize,
    run: Box<dyn Fn()>,
}

/// The Fig. 4 step's parallel ops at its shapes: 32 windows × 33 tokens =
/// 1056 rows, d_model 32, d_ff 64, 4 heads of 8 (so 128 attention
/// entries). The matmuls are an FFN Linear forward and its two gradients.
fn fig4_ops() -> Vec<Fig4Op> {
    let mut rng = Prng::new(11);
    let x = rng.randn(&[1056, 32]);
    let w = rng.randn(&[32, 64]);
    let g = rng.randn(&[1056, 64]);
    let (q, k, v, go) = (
        rng.randn(&[128, 33, 8]),
        rng.randn(&[128, 33, 8]),
        rng.randn(&[128, 33, 8]),
        rng.randn(&[128, 33, 8]),
    );
    let scores = rng.randn(&[128, 33, 33]);
    let hidden = rng.randn(&[32, 33, 64]);
    let act = rng.randn(&[32, 33, 32]);
    let bias = rng.randn(&[32]);
    let scale = 1.0 / 8f32.sqrt();
    let op = |id, grain, run: Box<dyn Fn()>| Fig4Op { id, grain, run };
    let (x1, w1) = (x.clone(), w.clone());
    let (g2, w2) = (g.clone(), w);
    let (q3, k3, v3) = (q.clone(), k.clone(), v.clone());
    vec![
        op("linear_fwd_1056x32x64", MATMUL_GRAIN, Box::new(move || {
            std::hint::black_box(matmul(&x1, &w1).unwrap());
        })),
        op("linear_dx_1056x64x32", MATMUL_GRAIN, Box::new(move || {
            std::hint::black_box(matmul_nt(&g2, &w2).unwrap());
        })),
        op("linear_dw_32x1056x64", MATMUL_GRAIN, Box::new(move || {
            std::hint::black_box(matmul_tn(&x, &g).unwrap());
        })),
        op("attention_fwd_128x33x8", MATMUL_GRAIN, Box::new(move || {
            std::hint::black_box(attention_fused(&q3, &k3, &v3, scale, false, None).unwrap());
        })),
        op("attention_bwd_128x33x8", MATMUL_GRAIN, Box::new(move || {
            std::hint::black_box(
                attention_fused_backward(&q, &k, &v, &go, scale, false, None).unwrap(),
            );
        })),
        op("softmax_128x33x33", ROWWISE_GRAIN, Box::new(move || {
            std::hint::black_box(scores.softmax_lastdim());
        })),
        op("gelu_map_32x33x64", ELEMWISE_GRAIN, Box::new(move || {
            std::hint::black_box(hidden.map(|v| 0.5 * v * (1.0 + (0.797_884_6 * v).tanh())));
        })),
        op("bias_add_32x33x32", ELEMWISE_GRAIN, Box::new(move || {
            std::hint::black_box(act.add(&bias));
        })),
    ]
}

/// Each Fig. 4 op at 1 and 2 threads with its kernel's grain, then at 2
/// threads under each [`GRAIN_DIVISORS`] override.
fn bench_fig4_ops(b: &mut Bench, records: &mut Vec<Record>) {
    let mut group = b.group("fig4_ops");
    for op in fig4_ops() {
        for threads in [1, 2] {
            let report = group.bench(format!("{}_t{threads}", op.id), || {
                pool::with_threads(threads, || (op.run)())
            });
            record(records, "fig4_ops", op.id, threads, report);
        }
        for div in GRAIN_DIVISORS {
            let grain = op.grain / div;
            let report = group.bench(format!("{}_t2_grain_div{div}", op.id), || {
                pool::with_threads(2, || pool::with_grain(grain, || (op.run)()))
            });
            records.push(Record {
                group: "fig4_ops".to_string(),
                id: op.id.to_string(),
                threads: 2,
                grain: Some(grain),
                report,
            });
        }
    }
    group.finish();
}

/// A group's row at `threads` under the kernels' default grains.
fn default_row<'a>(records: &'a [Record], r: &Record, threads: usize) -> Option<&'a Record> {
    records
        .iter()
        .find(|s| s.group == r.group && s.id == r.id && s.threads == threads && s.grain.is_none())
}

/// Median-time speedup of each multi-thread row over its group's
/// single-thread row.
fn speedup_vs_serial(records: &[Record], r: &Record) -> Option<f64> {
    let serial = default_row(records, r, 1)?;
    (r.report.median > 0.0).then(|| serial.report.median / r.report.median)
}

/// One `per_op_1v2` entry per op measured at 1 and 2 threads: both
/// medians, the 2-thread speedup, and for the Fig. 4 ops the 2-thread
/// medians under the smaller grains.
fn per_op_1v2(records: &[Record]) -> Vec<Json> {
    let num = |v: f64| Json::Num(v);
    records
        .iter()
        .filter(|r| r.threads == 1 && r.grain.is_none())
        .filter_map(|t1| {
            let t2 = default_row(records, t1, 2)?;
            let mut obj = vec![
                ("group".to_string(), Json::Str(t1.group.clone())),
                ("id".to_string(), Json::Str(t1.id.clone())),
                ("t1_median_s".to_string(), num(t1.report.median)),
                ("t2_median_s".to_string(), num(t2.report.median)),
                ("speedup_2v1".to_string(), num(t1.report.median / t2.report.median)),
            ];
            for sweep in records.iter().filter(|s| {
                s.group == t1.group && s.id == t1.id && s.threads == 2 && s.grain.is_some()
            }) {
                let grain = sweep.grain.unwrap_or_default();
                obj.push((format!("t2_grain_{grain}_median_s"), num(sweep.report.median)));
            }
            Some(Json::Obj(obj))
        })
        .collect()
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
    bench_fig4_ops(&mut b, &mut records);

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut obj = vec![
                ("group".to_string(), Json::Str(r.group.clone())),
                ("id".to_string(), Json::Str(r.id.clone())),
                ("threads".to_string(), Json::Num(r.threads as f64)),
            ];
            if let Some(grain) = r.grain {
                obj.push(("grain".to_string(), Json::Num(grain as f64)));
            }
            if r.threads > host_cores {
                obj.push(("oversubscribed".to_string(), Json::Bool(true)));
            }
            obj.extend([
                ("median_s".to_string(), Json::Num(r.report.median)),
                ("min_s".to_string(), Json::Num(r.report.min)),
                ("p95_s".to_string(), Json::Num(r.report.p95)),
                ("samples".to_string(), Json::Num(r.report.samples as f64)),
            ]);
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
        ("per_op_1v2".to_string(), Json::Arr(per_op_1v2(&records))),
    ]);
    let path = out_path();
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_parallel.json");
    println!("\nwrote {}", path.display());
}
