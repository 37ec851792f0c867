//! Streaming-path benchmark: per-tick cost of the incremental engine
//! against a naive consumer that re-encodes the full window from
//! scratch every tick (DESIGN.md §14).
//!
//! Writes `BENCH_stream.json` at the repository root (override with
//! `TIMEDRL_BENCH_OUT`): per-tick latency of both paths across window
//! lengths, the streaming/naive speedup — which must be ≥ 2× at the
//! largest window and *grows* with the window, since the engine's
//! between-hop tick cost is O(C) while the naive path re-runs the
//! transformer on every tick — and steady-state allocations per tick,
//! gated to zero by `ci.sh` via `probe stream`.

use testkit::alloc::count_allocations;
use testkit::{Bench, Json};
use timedrl::{decode_model_export, encode_model_export, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_serve::CompiledModel;
use timedrl_stream::{SlidingWindow, StreamingEncoder};
use timedrl_tensor::Prng;

/// Patch geometry shared by every window length (stride = hop period).
const PATCH: usize = 8;
/// Window lengths swept; the acceptance gate reads the largest.
const WINDOWS: [usize; 4] = [32, 64, 128, 256];
/// Ticks per bench iteration — one full hop period, so the streaming
/// iteration pays exactly one encode plus `PATCH − 1` O(C) buffer ticks.
const TICKS_PER_ITER: usize = PATCH;

fn out_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("TIMEDRL_BENCH_OUT") {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_stream.json")
}

fn model(input_len: usize) -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(input_len);
    cfg.patch = PatchConfig::non_overlapping(PATCH);
    cfg.d_model = 32;
    cfg.n_heads = 4;
    cfg.d_ff = 64;
    cfg.n_layers = 2;
    cfg.seed = 47;
    TimeDrl::new(cfg)
}

fn compile(model: &TimeDrl) -> CompiledModel {
    let payload = encode_model_export(model);
    CompiledModel::from_export(decode_model_export(&payload[4..]).unwrap())
        .expect("transformer backbone compiles")
}

/// Endless deterministic tick source: cycles a precomputed buffer.
struct TickSource {
    data: Vec<f32>,
    next: usize,
}

impl TickSource {
    fn new(seed: u64) -> Self {
        Self { data: Prng::new(seed).randn(&[4096, 1]).data().to_vec(), next: 0 }
    }

    fn next(&mut self) -> f32 {
        let x = self.data[self.next];
        self.next = (self.next + 1) % self.data.len();
        x
    }
}

/// One naive tick: re-encode the materialized window from scratch and
/// score it, exactly what a consumer without the engine would run.
fn naive_tick(window: &SlidingWindow, compiled: &CompiledModel, patch: &PatchConfig) -> f32 {
    let t = window.capacity();
    let x = window.materialize().reshape(&[1, t, 1]).expect("window");
    let emb = compiled.embed(&x).expect("embed");
    let recon = compiled.reconstruct(&emb.z_t).expect("reconstruct");
    // Score against the normalized patched input, as the batch anomaly
    // path does.
    let normed = timedrl_data::instance_normalize(&x).expect("normalize");
    let patched = timedrl_data::patch_batch(&normed, patch);
    let errors = timedrl::patch_errors(&recon, &patched);
    timedrl::window_score(errors.data())
}

fn main() {
    let mut b = Bench::from_env("stream");
    let mut results = Vec::new();
    let mut largest_speedup = 0.0f64;

    for &t in &WINDOWS {
        let m = model(t);
        let compiled = compile(&m);

        // Streaming path: the engine encodes once per hop and buffers
        // the other ticks.
        let mut engine = StreamingEncoder::new(compile(&m), 4).expect("engine");
        engine.warm();
        let mut src = TickSource::new(t as u64);
        for _ in 0..(t + 4 * PATCH) {
            let s = [src.next()];
            if let Some(u) = engine.push(&s).expect("push") {
                let _ = engine.reconstruction_error(&u).expect("score");
            }
        }
        let mut group = b.group("streaming_tick");
        let stream_report = group.bench(format!("window{t}"), || {
            let mut last = 0.0f32;
            for _ in 0..TICKS_PER_ITER {
                let s = [src.next()];
                if let Some(u) = engine.push(&s).expect("push") {
                    let (_, score) = engine.reconstruction_error(&u).expect("score");
                    last = score;
                }
            }
            last
        });
        group.finish();
        let (_, allocs) = count_allocations(|| {
            for _ in 0..TICKS_PER_ITER {
                let s = [src.next()];
                if let Some(u) = engine.push(&s).expect("push") {
                    let _ = engine.reconstruction_error(&u).expect("score");
                }
            }
        });

        // Naive path: full re-encode of the window on every tick.
        let mut window = SlidingWindow::new(t, 1).expect("window");
        let mut src = TickSource::new(t as u64);
        for _ in 0..t {
            window.push(&[src.next()]);
        }
        compiled.warm(1);
        let patch = PatchConfig::non_overlapping(PATCH);
        let _ = naive_tick(&window, &compiled, &patch);
        let mut group = b.group("naive_tick");
        let naive_report = group.bench(format!("window{t}"), || {
            let mut last = 0.0f32;
            for _ in 0..TICKS_PER_ITER {
                window.push(&[src.next()]);
                last = naive_tick(&window, &compiled, &patch);
            }
            last
        });
        group.finish();

        let stream_tick_s = stream_report.median / TICKS_PER_ITER as f64;
        let naive_tick_s = naive_report.median / TICKS_PER_ITER as f64;
        let speedup = naive_tick_s / stream_tick_s;
        largest_speedup = speedup; // WINDOWS is sorted; the last wins.
        println!(
            "window {t:>4}: streaming {:>8.2} us/tick, naive {:>8.2} us/tick, speedup {speedup:.1}x, allocs/tick {allocs}",
            stream_tick_s * 1e6,
            naive_tick_s * 1e6,
        );
        results.push(Json::Obj(vec![
            ("window_len".to_string(), Json::Num(t as f64)),
            ("streaming_tick_s".to_string(), Json::Num(stream_tick_s)),
            ("naive_tick_s".to_string(), Json::Num(naive_tick_s)),
            ("speedup".to_string(), Json::Num(speedup)),
            ("allocs_per_tick_span".to_string(), Json::Num(allocs as f64)),
            ("samples".to_string(), Json::Num(stream_report.samples as f64)),
        ]));
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = testkit::pool::num_threads();
    let doc = Json::Obj(vec![
        ("suite".to_string(), Json::Str("stream".to_string())),
        ("host_cores".to_string(), Json::Num(host_cores as f64)),
        ("timedrl_threads".to_string(), Json::Num(threads as f64)),
        ("patch_stride".to_string(), Json::Num(PATCH as f64)),
        ("speedup_at_largest_window".to_string(), Json::Num(largest_speedup)),
        ("results".to_string(), Json::Arr(results)),
    ]);
    let path = out_path();
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_stream.json");
    println!("\nwrote {}", path.display());
    assert!(
        largest_speedup >= 2.0,
        "streaming must be at least 2x the naive path at the largest window, got {largest_speedup:.2}x"
    );
}
