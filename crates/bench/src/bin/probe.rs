//! CI probes: one binary, one subcommand per `ci.sh` gate.
//!
//! ```text
//! probe pretrain_checkpoint <model-out>
//! probe resume straight <model-out> | phase1 <state-out> | phase2 <state-in> <model-out>
//! probe step_alloc
//! probe attn
//! probe shard prepare <shard-dir>
//!           | worker <shard-dir> <run-dir> <w> <n> [--die-at-step K]
//!           | run <shard-dir> <run-dir> <n> <model-out>
//!           | crash <shard-dir> <run-dir> <n> <victim> <model-out>
//! probe serve prepare <dir> | check <dir>
//! probe stream
//! ```
//!
//! Every budget lives here, next to the check it bounds, and the verdict is
//! the exit code: 0 pass, 1 a failed check, 2 a usage error, 3 the typed
//! precision-mismatch refusal of `serve check`. The `key=value` lines on
//! stdout are for people reading the log; no gate parses them. Run the
//! allocation-counting subcommands `serve check` and `stream` with
//! `TIMEDRL_THREADS=1`, so the count does not depend on the host's core
//! count; `step_alloc` pins its own thread counts (1, then 2).

use std::path::Path;
use std::process::{Child, Command, ExitCode};
use std::time::Instant;
use testkit::alloc::count_allocations;
use testkit::pool;
use timedrl::shard::{run_shard_worker_with, ShardTrainPlan};
use timedrl::trainer::pretrain;
use timedrl::{decode_model_export, encode_model_export, Precision, TimeDrl, TimeDrlConfig};
use timedrl_bench::step::{probe_config, sine_windows, StepHarness};
use timedrl_data::{PatchConfig, ShardWriter};
use timedrl_nn::Ctx;
use timedrl_serve::{protocol, CompiledModel, ServeError};
use timedrl_stream::{OnlineAnomalyScorer, StreamUpdate, StreamingEncoder};
use timedrl_tensor::{attention_fused, attention_reference, NdArray, Prng, Var};

/// Printed on a usage error; the module docs list each subcommand's arguments.
const USAGE: &str =
    "usage: probe <pretrain_checkpoint|resume|step_alloc|attn|shard|serve|stream> [args]";

/// Why a probe did not pass; each variant has its own exit code.
enum Failure {
    /// Unknown subcommand or malformed arguments: exit 2.
    Usage,
    /// A violated check or budget: exit 1.
    Check(String),
    /// The typed refusal to byte-compare a response tagged relaxed: exit 3.
    Refused(ServeError),
}

type Outcome = Result<(), Failure>;

fn fail(msg: impl std::fmt::Display) -> Failure {
    Failure::Check(msg.to_string())
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, Failure> {
    s.parse().map_err(|_| Failure::Usage)
}

/// Bitwise equality: unlike `==` on `f32`, tells `+0.0` from `-0.0` and
/// matches a NaN to the identical NaN.
fn check_bits(a: &NdArray, b: &NdArray, what: &str) -> Outcome {
    if a.shape() != b.shape() {
        return Err(fail(format!("{what}: shape mismatch {:?} vs {:?}", a.shape(), b.shape())));
    }
    match a.data().iter().zip(b.data()).position(|(x, y)| x.to_bits() != y.to_bits()) {
        Some(i) => {
            Err(fail(format!("{what}: bit mismatch at {i}: {} vs {}", a.data()[i], b.data()[i])))
        }
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures, besides `probe_config` and `sine_windows` from the step
// harness. Each takes the seed its gate has always used, so every gate sees
// the same bytes as before the probes shared them.
// ---------------------------------------------------------------------------

/// Window length and patch length of the d8 serving fixture.
const WINDOW: usize = 16;
const PATCH: usize = 4;

/// The two-layer d8 model the serving and streaming gates serve.
fn d8_model(seed: u64) -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(WINDOW);
    cfg.patch = PatchConfig::non_overlapping(PATCH);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 2;
    cfg.seed = seed;
    TimeDrl::new(cfg)
}

/// Exports `model` in memory and compiles the export.
fn compile(model: &TimeDrl) -> CompiledModel {
    let payload = encode_model_export(model);
    let export = decode_model_export(&payload[4..]).expect("fixture export");
    CompiledModel::from_export(export).expect("fixture compile")
}

// ---------------------------------------------------------------------------
// pretrain_checkpoint: a 2-epoch micro-batched pretrain saved to a file.
// `ci.sh` byte-compares the files of TIMEDRL_THREADS=1 and 4 runs (a
// kernel's fan-out must never change a reduction order) and pins the
// single-thread file to a committed `cksum`.
// ---------------------------------------------------------------------------

fn pretrain_checkpoint(args: &[&str]) -> Outcome {
    let [path] = args else {
        return Err(Failure::Usage);
    };
    let mut cfg = probe_config(42);
    cfg.epochs = 2;
    cfg.micro_batch = Some(4);
    let model = TimeDrl::new(cfg);
    let report = pretrain(&model, &sine_windows()).map_err(fail)?;
    model.save(path).map_err(fail)?;
    println!(
        "pretrain_checkpoint: epochs={} final_loss={:.6} saved={path}",
        report.total.len(),
        report.final_loss().expect("at least one epoch ran")
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// resume: the crash-safe checkpoint contract across process boundaries
// (DESIGN.md §11). `straight` trains 4 epochs; `phase1` trains 2 and writes
// a training-state snapshot (the "kill"); `phase2` resumes it for the last
// 2. `ci.sh` byte-compares the `straight` and `phase2` model files: any
// difference means resume lost part of the training state.
// ---------------------------------------------------------------------------

fn resume(args: &[&str]) -> Outcome {
    let mut cfg = probe_config(77);
    let (mode, model_out) = match *args {
        ["straight", model_out] => {
            cfg.epochs = 4;
            ("straight", Some(model_out))
        }
        ["phase1", state_out] => {
            cfg.epochs = 2;
            cfg.checkpoint_every = Some(2);
            cfg.checkpoint_path = Some(state_out.into());
            ("phase1", None)
        }
        ["phase2", state_in, model_out] => {
            cfg.epochs = 4;
            cfg.resume_from = Some(state_in.into());
            ("phase2", Some(model_out))
        }
        _ => return Err(Failure::Usage),
    };
    let model = TimeDrl::new(cfg);
    let report = pretrain(&model, &sine_windows()).map_err(|e| fail(format!("{mode}: {e}")))?;
    if let Some(path) = model_out {
        model.save(path).map_err(fail)?;
    }
    println!("resume {mode}: epochs={}", report.total.len());
    Ok(())
}

// ---------------------------------------------------------------------------
// step_alloc: steady-state heap allocations of one whole-batch training step
// (DESIGN.md §10). The seed code performed 8944; the transpose-aware
// backward (§12) brought it to 416 and fused attention (§17) to 376. The
// budget is that measurement plus ~10% headroom. The step is measured twice:
// on one pool thread, and on two with a grain small enough that every
// kernel fans out. Persistent pool workers keep their buffer pools warm, so
// the fanned-out step may allocate no more than the serial one.
// ---------------------------------------------------------------------------

const ALLOC_BUDGET: u64 = 415;

/// Work units per chunk for the fanned-out measurement: far below every
/// kernel's production grain, so the probe-scale step splits into many
/// chunks.
const FAN_OUT_GRAIN: usize = 256;

fn step_alloc(args: &[&str]) -> Outcome {
    let [] = args else { return Err(Failure::Usage) };
    // Two warm-up steps fill the pool buckets; average over several
    // measured steps so a one-off bucket growth doesn't dominate.
    let measure = || StepHarness::new().allocations_per_step(2, 8);
    let serial = pool::with_threads(1, measure);
    let fanned = pool::with_threads(2, || pool::with_grain(FAN_OUT_GRAIN, measure));
    println!(
        "allocs_per_step={serial} allocs_per_step_2threads={fanned} budget={ALLOC_BUDGET} \
         seed_baseline=8944"
    );
    for (label, per_step) in [("1 thread", serial), ("2 threads", fanned)] {
        if per_step > ALLOC_BUDGET {
            return Err(fail(format!(
                "training step allocates {per_step} blocks on {label}, budget is {ALLOC_BUDGET}"
            )));
        }
    }
    if fanned > serial {
        return Err(fail(format!(
            "training step allocates {fanned} blocks on 2 threads, more than {serial} on 1"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// attn: the fused tiled attention kernel (DESIGN.md §17). Forward and
// backward must be bit-identical to the composed
// `matmul_t → scale → mask → softmax → matmul` graph at pool thread counts
// 1 and 4, causal and bidirectional, on shapes that reach both the packed
// and the reference microkernel; and at T=256 the kernel must beat the
// materialized `[B·H, T, T]` path by MIN_SPEEDUP in median wall time.
// ---------------------------------------------------------------------------

const MIN_SPEEDUP: f64 = 1.5;

/// Parity shapes `(B·H, T, Dh)`: a packed-kernel shape, an odd
/// non-multiple-of-tile shape, and a degenerate tiny one.
const ATTN_SHAPES: [(usize, usize, usize); 3] = [(4, 64, 8), (2, 33, 16), (3, 5, 2)];

/// The composed graph's additive causal mask: `-1e9` above the diagonal.
fn causal_mask(t: usize) -> NdArray {
    NdArray::from_fn(&[t, t], |f| if f % t > f / t { -1e9 } else { 0.0 })
}

fn check_attn_parity(threads: usize) -> Outcome {
    pool::with_threads(threads, || {
        for &(bh, t, dh) in &ATTN_SHAPES {
            for causal in [false, true] {
                let mut rng = Prng::new(17 + t as u64 + causal as u64);
                let q0 = rng.randn(&[bh, t, dh]);
                let k0 = rng.randn(&[bh, t, dh]);
                let v0 = rng.randn(&[bh, t, dh]);
                let g0 = rng.randn(&[bh, t, dh]);
                let scale = 1.0 / (dh as f32).sqrt();
                let what = format!("threads={threads} bh={bh} t={t} dh={dh} causal={causal}");

                // Raw kernel vs materialized reference chain.
                let fused = attention_fused(&q0, &k0, &v0, scale, causal, None)
                    .map_err(|e| fail(format!("{what}: {e}")))?;
                let naive = attention_reference(&q0, &k0, &v0, scale, causal, None)
                    .map_err(|e| fail(format!("{what}: {e}")))?;
                check_bits(&fused, &naive, &format!("forward {what}"))?;

                // Tape node (forward + backward) vs the composed graph.
                let run = |composed: bool| {
                    let q = Var::parameter(q0.clone());
                    let k = Var::parameter(k0.clone());
                    let v = Var::parameter(v0.clone());
                    let out = if composed {
                        let mut scores = q.matmul_t(&k).scale(scale);
                        if causal {
                            scores = scores.add(&Var::constant(causal_mask(t)));
                        }
                        scores.softmax_lastdim().matmul(&v)
                    } else {
                        Var::attention(&q, &k, &v, scale, causal, None)
                    };
                    out.backward_with(g0.clone());
                    [
                        out.to_array(),
                        q.grad().expect("dq"),
                        k.grad().expect("dk"),
                        v.grad().expect("dv"),
                    ]
                };
                let (fused, composed) = (run(false), run(true));
                for (name, (f, c)) in
                    ["node value", "dQ", "dK", "dV"].iter().zip(fused.iter().zip(&composed))
                {
                    check_bits(f, c, &format!("{name} {what}"))?;
                }
            }
        }
        Ok(())
    })
}

/// Median wall time of `f` over `iters` runs (after one warm-up).
fn median_time(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn attn(args: &[&str]) -> Outcome {
    let [] = args else { return Err(Failure::Usage) };
    for threads in [1usize, 4] {
        check_attn_parity(threads)?;
    }
    println!("parity=ok");

    // Speedup at serving scale; TIMEDRL_THREADS applies to both paths.
    let mut rng = Prng::new(99);
    let (bh, t, dh) = (8, 256, 16);
    let q = rng.randn(&[bh, t, dh]);
    let k = rng.randn(&[bh, t, dh]);
    let v = rng.randn(&[bh, t, dh]);
    let scale = 1.0 / (dh as f32).sqrt();
    let fused_s = median_time(15, || {
        attention_fused(&q, &k, &v, scale, true, None).expect("fused");
    });
    let naive_s = median_time(15, || {
        attention_reference(&q, &k, &v, scale, true, None).expect("naive");
    });
    let speedup = naive_s / fused_s;
    println!("fused_t256_s={fused_s:.6} naive_t256_s={naive_s:.6} speedup={speedup:.2}");
    if speedup < MIN_SPEEDUP {
        return Err(fail(format!(
            "fused attention is only {speedup:.2}x the materialized path (budget {MIN_SPEEDUP}x)"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// shard: multi-process determinism and crash recovery of sharded pretraining
// across real OS processes (DESIGN.md §16). `prepare` writes the series as
// a 5-shard split; `worker` runs one worker, and with `--die-at-step K`
// exits with code 9 at the start of optimizer step K (the "kill"); `run`
// spawns `n` workers and copies the final checkpoint out; `crash` kills
// worker `victim` at step 2, confirms exit code 9, and respawns it, and the
// run must still finish. `ci.sh` byte-compares the final checkpoints.
// ---------------------------------------------------------------------------

/// Exit code of a worker killed by `--die-at-step`.
const KILL_CODE: i32 = 9;

/// Deterministic series, 600 rows × 1 channel — five 128-row shards (the
/// last holds 88).
fn shard_series() -> NdArray {
    NdArray::from_fn(&[600, 1], |i| (i as f32 * 0.4).sin() + (i as f32 * 0.05).cos())
}

fn spawn_worker(shard_dir: &str, run_dir: &str, w: usize, n: usize, die_at: Option<u64>) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["shard", "worker", shard_dir, run_dir, &w.to_string(), &n.to_string()]);
    if let Some(k) = die_at {
        cmd.args(["--die-at-step", &k.to_string()]);
    }
    cmd.spawn().expect("spawn worker")
}

fn wait_worker(w: usize, mut child: Child) -> Outcome {
    let status = child.wait().map_err(fail)?;
    if status.success() {
        Ok(())
    } else {
        Err(fail(format!("worker {w} failed: {status}")))
    }
}

fn finish_run(run_dir: &str, model_out: &str, n: usize) -> Outcome {
    std::fs::copy(Path::new(run_dir).join("model_final.tdrl"), model_out).map_err(fail)?;
    println!("shard: workers={n} final={model_out}");
    Ok(())
}

fn shard(args: &[&str]) -> Outcome {
    match *args {
        ["prepare", shard_dir] => {
            let paths = ShardWriter::new(128)
                .map_err(fail)?
                .write(&shard_series(), shard_dir)
                .map_err(fail)?;
            println!("shard prepare: shards={} dir={shard_dir}", paths.len());
            Ok(())
        }
        ["worker", shard_dir, run_dir, w, n, ref flag @ ..] => {
            let (w, n) = (parse::<usize>(w)?, parse::<usize>(n)?);
            let die_at = match *flag {
                [] => None,
                ["--die-at-step", k] => Some(parse::<u64>(k)?),
                _ => return Err(Failure::Usage),
            };
            let mut cfg = probe_config(21);
            cfg.epochs = 2;
            let mut plan = ShardTrainPlan::new(shard_dir, run_dir);
            plan.worker = w;
            plan.n_workers = n;
            plan.stride = 4;
            let report = run_shard_worker_with(&cfg, &plan, |s| {
                if die_at == Some(s) {
                    eprintln!("shard worker {w}: dying at step {s} as instructed");
                    std::process::exit(KILL_CODE);
                }
            })
            .map_err(|e| fail(format!("worker {w}: {e}")))?;
            println!("shard worker {w}/{n}: done, epochs={}", report.total.len());
            Ok(())
        }
        ["run", shard_dir, run_dir, n, model_out] => {
            let n = parse::<usize>(n)?;
            let children: Vec<_> =
                (0..n).map(|w| spawn_worker(shard_dir, run_dir, w, n, None)).collect();
            for (w, child) in children.into_iter().enumerate() {
                wait_worker(w, child)?;
            }
            finish_run(run_dir, model_out, n)
        }
        ["crash", shard_dir, run_dir, n, victim, model_out] => {
            let (n, victim) = (parse::<usize>(n)?, parse::<usize>(victim)?);
            if victim >= n {
                return Err(Failure::Usage);
            }
            let mut children: Vec<_> = (0..n)
                .map(|w| (w, spawn_worker(shard_dir, run_dir, w, n, (w == victim).then_some(2))))
                .collect();
            // The victim must actually die with the kill code...
            let (_, mut victim_child) = children.remove(victim);
            let code = victim_child.wait().map_err(fail)?.code();
            if code != Some(KILL_CODE) {
                return Err(fail(format!(
                    "victim {victim} exited {code:?}, expected the kill code {KILL_CODE}"
                )));
            }
            println!("shard crash: worker {victim} killed at step 2, respawning");
            // ...and a clean replacement must finish the run from disk.
            children.push((victim, spawn_worker(shard_dir, run_dir, victim, n, None)));
            for (w, child) in children {
                wait_worker(w, child)?;
            }
            finish_run(run_dir, model_out, n)
        }
        _ => Err(Failure::Usage),
    }
}

// ---------------------------------------------------------------------------
// serve: the tape-free serving path (DESIGN.md §13). `prepare` writes a
// model export, two identical request frames and the tape-path golden
// outputs; `check` requires the compiled forward to match the goldens bit
// for bit, a warmed request to perform zero heap allocations, and — when
// `ci.sh` has piped the requests through the real `embed_server` into
// `response.bin` — every response to carry the golden bytes. Goldens are
// exact-tier bytes, so a response frame tagged relaxed (input from outside
// the program: this server writes only exact frames) is refused with the
// typed `PrecisionMismatch` (exit 3), not reported as a byte diff.
// ---------------------------------------------------------------------------

/// Fixture batch size; `check` warms and measures at exactly this size.
const SERVE_BATCH: usize = 3;

fn serve_windows() -> NdArray {
    Prng::new(5).randn(&[SERVE_BATCH, WINDOW, 1])
}

fn f32s_to_bytes(data: &[f32]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn read(path: &Path) -> Result<Vec<u8>, Failure> {
    std::fs::read(path).map_err(|e| fail(format!("cannot read {}: {e}", path.display())))
}

fn refuse_relaxed(precision: Precision) -> Outcome {
    if precision == Precision::Exact {
        return Ok(());
    }
    Err(Failure::Refused(ServeError::PrecisionMismatch { expected: "exact", actual: "relaxed" }))
}

fn serve_prepare(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let model = d8_model(7);
    model.export(dir.join("model.tdrl"))?;
    let windows = serve_windows();
    // The second identical frame exercises the server's embedding cache and
    // must come back byte-identical to the first.
    let payload = protocol::encode_request(&windows);
    let mut request = Vec::new();
    for _ in 0..2 {
        protocol::write_frame(&mut request, &payload).expect("vec write");
    }
    std::fs::write(dir.join("request.bin"), &request)?;
    let enc = model.encode(&windows, &mut Ctx::eval());
    let z_i = enc.instance(model.config().pooling).to_array();
    std::fs::write(dir.join("expected_zi.bin"), f32s_to_bytes(z_i.data()))?;
    std::fs::write(dir.join("expected_zt.bin"), f32s_to_bytes(enc.timestamps().to_array().data()))?;
    println!("serve prepare: fixture written to {}", dir.display());
    Ok(())
}

fn serve_check(dir: &Path) -> Outcome {
    let model = CompiledModel::load(dir.join("model.tdrl"))
        .map_err(|e| fail(format!("cannot load fixture model: {e}")))?;
    let windows = serve_windows();
    model.warm(SERVE_BATCH);
    model.warm(SERVE_BATCH);
    let (result, allocs) = count_allocations(|| model.embed(&windows));
    let emb = result.map_err(|e| fail(format!("compiled embed failed: {e}")))?;
    println!("allocs_per_request={allocs}");
    if allocs != 0 {
        return Err(fail(format!(
            "warmed embedding request allocates {allocs} blocks, budget is 0"
        )));
    }

    let expected_zi = read(&dir.join("expected_zi.bin"))?;
    let expected_zt = read(&dir.join("expected_zt.bin"))?;
    if f32s_to_bytes(emb.z_i.data()) != expected_zi {
        return Err(fail("compiled z_i differs from tape-path golden bytes"));
    }
    if f32s_to_bytes(emb.z_t.data()) != expected_zt {
        return Err(fail("compiled z_t differs from tape-path golden bytes"));
    }
    println!("serve check: compiled output bitwise-matches the tape path");

    let response_path = dir.join("response.bin");
    if !response_path.exists() {
        return Ok(());
    }
    let raw = read(&response_path)?;
    let mut reader = raw.as_slice();
    let mut frame = Vec::new();
    let mut count = 0;
    while protocol::read_frame_into(&mut reader, &mut frame, 64 << 20)
        .map_err(|e| fail(format!("response frame {count}: {e}")))?
    {
        let (resp, precision) = protocol::decode_response(&frame)
            .map_err(|e| fail(format!("response frame {count}: {e}")))?;
        refuse_relaxed(precision)?;
        if f32s_to_bytes(resp.z_i.data()) != expected_zi {
            return Err(fail(format!("server response {count}: z_i bytes differ")));
        }
        if f32s_to_bytes(resp.z_t.data()) != expected_zt {
            return Err(fail(format!("server response {count}: z_t bytes differ")));
        }
        count += 1;
    }
    if count != 2 {
        return Err(fail(format!("expected 2 response frames, got {count}")));
    }
    println!("serve check: {count} server responses bitwise-match the golden bytes");
    Ok(())
}

fn serve(args: &[&str]) -> Outcome {
    match *args {
        ["prepare", dir] => {
            serve_prepare(Path::new(dir)).map_err(|e| fail(format!("prepare: {e}")))
        }
        ["check", dir] => serve_check(Path::new(dir)),
        _ => Err(Failure::Usage),
    }
}

// ---------------------------------------------------------------------------
// stream: the streaming engine (DESIGN.md §14). After warm-up, one full
// recompute period of steady-state ticks (crossing an exact-stats hop) must
// perform zero heap allocations; then a fresh exact hop's embeddings and
// anomaly score must equal, bit for bit, `CompiledModel::embed` and the
// tape-path `anomaly_scores` of the same materialized window.
// ---------------------------------------------------------------------------

/// Exact-stats period in hops; the measured span crosses one exact hop.
const RECOMPUTE_EVERY: usize = 2;

/// Feeds `n` ticks from `ticks` starting at `*next`, returning the last
/// hop (if any) with its anomaly score.
fn feed(
    engine: &mut StreamingEncoder,
    scorer: &mut OnlineAnomalyScorer,
    ticks: &[f32],
    next: &mut usize,
    n: usize,
) -> Option<(StreamUpdate, f32)> {
    let mut last = None;
    for _ in 0..n {
        let sample = [ticks[*next]];
        *next += 1;
        if let Some(update) = engine.push(&sample).expect("push") {
            let score = scorer.observe(engine, &update).expect("score");
            last = Some((update, score.score));
        }
    }
    last
}

fn stream(args: &[&str]) -> Outcome {
    let [] = args else { return Err(Failure::Usage) };
    let model = d8_model(7);
    let compiled = compile(&model);
    let mut engine = StreamingEncoder::new(compile(&model), RECOMPUTE_EVERY).map_err(fail)?;
    let mut scorer = OnlineAnomalyScorer::new(0.9, 4, Some(8)).map_err(fail)?;

    // A generous deterministic series: fill + warm hops + measured span.
    let series = Prng::new(11).randn(&[WINDOW + 16 * PATCH, 1]);
    let ticks = series.data();
    let mut next = 0usize;
    engine.warm();
    // Fill the window and run several hops so every pool bucket exists.
    feed(&mut engine, &mut scorer, ticks, &mut next, WINDOW + 4 * PATCH);

    let span = RECOMPUTE_EVERY * PATCH;
    let start_tick = next;
    let (_, allocs) = count_allocations(|| feed(&mut engine, &mut scorer, ticks, &mut next, span));
    println!("allocs_per_tick={allocs}");
    if next != start_tick + span {
        return Err(fail(format!("fed {} ticks, expected {span}", next - start_tick)));
    }
    if allocs != 0 {
        return Err(fail(format!("warmed streaming tick allocates {allocs} blocks, budget is 0")));
    }

    let (update, score) = loop {
        let hop = feed(&mut engine, &mut scorer, ticks, &mut next, PATCH)
            .expect("a hop fires every stride ticks once the window is full");
        if hop.0.exact {
            break hop;
        }
    };
    let start = (update.tick as usize) - WINDOW;
    let window =
        series.slice(0, start, WINDOW).map_err(fail)?.reshape(&[1, WINDOW, 1]).map_err(fail)?;
    let batch = compiled.embed(&window).map_err(fail)?;
    check_bits(&update.z_i, &batch.z_i, "exact hop z_i vs batch path")?;
    check_bits(&update.z_t, &batch.z_t, "exact hop z_t vs batch path")?;
    let tape = timedrl::anomaly_scores(&model, &window).per_window[0];
    if tape.to_bits() != score.to_bits() {
        return Err(fail(format!("anomaly score {score} differs from tape path {tape}")));
    }
    let again = compiled.embed_patched(&update.x_patched).map_err(fail)?;
    check_bits(&again.z_t, &update.z_t, "x_patched re-embed z_t vs hop")?;
    println!("equivalence=ok");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (cmd, rest) = args.split_first().map_or(("", &[][..]), |(c, r)| (*c, r));
    let outcome = match cmd {
        "pretrain_checkpoint" => pretrain_checkpoint(rest),
        "resume" => resume(rest),
        "step_alloc" => step_alloc(rest),
        "attn" => attn(rest),
        "shard" => shard(rest),
        "serve" => serve(rest),
        "stream" => stream(rest),
        _ => Err(Failure::Usage),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage) => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Check(msg)) => {
            eprintln!("probe {cmd}: FAIL: {msg}");
            ExitCode::FAILURE
        }
        Err(Failure::Refused(err)) => {
            eprintln!("probe {cmd}: refused: {err}");
            ExitCode::from(3)
        }
    }
}
