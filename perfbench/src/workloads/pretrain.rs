//! `pretrain_fig4`: `timedrl::pretrain` on the whole-batch path at the
//! paper's Fig. 4 geometry. One operation is one short pretraining run (a
//! fresh model trained for one epoch of [`FIG4_RUN_WINDOWS`] windows).
//!
//! The traced run replays the same seeded inputs through the public layer
//! functions (`gather_rows`, `TimeDrl::prepare`, `encode_patched`, the two
//! pretext losses, `Var::try_backward`, `clip_grad_norm`, `AdamW::step`)
//! and times each call from outside. It then measures the sharded
//! trainer's layers at the short probe geometry: `ShardWriter` shards, two
//! in-process `run_shard_worker` threads (one pool thread each) for the
//! real step time, and a serial replay of their per-shard work
//! (`shard_window_batch`, the `TimeDrl::new` replica, the gradient). A
//! sharded end-to-end workload was tried and dropped: its step is bound by
//! the `fsync` of every exchanged file and varied by a third between runs.

use super::{etth1_columns, repeat_setup, report, Opts, Outcome};
use crate::host;
use crate::stats::{describe, median, percentile, summarize, SliceRate};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;
use testkit::pool;
use testkit::TestRng;
use timedrl::{
    channel_independent, contrastive_loss, gather_rows, predictive_loss, pretrain,
    run_shard_worker, run_shard_worker_with, ShardTrainPlan, TimeDrl, TimeDrlConfig,
};
use timedrl_data::{sliding_windows, BatchIndices, PatchConfig, ShardWriter, ShardedDataset};
use timedrl_nn::{clip_grad_norm, AdamW, Ctx, Module, Optimizer};
use timedrl_tensor::{NdArray, Prng};

// Phases of a traced optimizer step.
const GATHER: usize = 0;
const PREPARE: usize = 1;
const ENCODE: usize = 2;
const LOSS: usize = 3;
const BACKWARD: usize = 4;
const CLIP: usize = 5;
const ADAMW: usize = 6;
const SHARD_BATCH: usize = 7;
const REPLICA: usize = 8;
const REDUCE: usize = 9;
const PHASES: usize = 10;

/// Fig. 4 geometry: T=512, P=S=16 (32 patches + `[CLS]` = 33 tokens),
/// batch 32, forecasting defaults otherwise.
const FIG4_T: usize = 512;
const FIG4_PATCH: usize = 16;
const FIG4_BATCH: usize = 32;
/// Windows per pretraining run: one optimizer step, so a run yields enough
/// latency samples for a tail percentile (a step takes ~0.15 s here).
pub const FIG4_RUN_WINDOWS: usize = 32;
/// Distinct seeded window subsets cycled through the runs.
const FIG4_SUBSETS: usize = 8;
/// Pool threads for `pretrain_fig4` (the host's two cores).
pub const FIG4_THREADS: usize = 2;

/// Sharded geometry: the `pretrain_checkpoint` / `StepHarness` model.
const SHARD_T: usize = 32;
const SHARD_ROWS: usize = 512;
const SHARDS: usize = 4;
const SHARD_STRIDE: usize = 4;
const SHARD_EPOCHS: usize = 2;
const SHARD_WORKERS: usize = 2;

fn fig4_config(seed: u64) -> TimeDrlConfig {
    let mut cfg = TimeDrlConfig::forecasting(FIG4_T);
    cfg.patch = PatchConfig::non_overlapping(FIG4_PATCH);
    cfg.batch_size = FIG4_BATCH;
    cfg.epochs = 1;
    cfg.seed = seed;
    cfg
}

fn shard_config(seed: u64) -> TimeDrlConfig {
    let mut cfg = TimeDrlConfig::forecasting(SHARD_T);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.batch_size = 8;
    cfg.epochs = SHARD_EPOCHS;
    cfg.seed = seed;
    cfg
}

/// One traced pretext forward and backward on `batch`: the body of
/// `timedrl::pretext_loss` followed by `Var::try_backward`, split at the
/// layer boundaries. Returns the joint loss.
fn forward_backward(
    tr: &mut Tracer,
    model: &TimeDrl,
    batch: &NdArray,
    ctx: &mut Ctx,
    aug: &mut Prng,
) -> Result<f32, String> {
    let cfg = model.config();
    let x_patched = tr.span(PREPARE, || {
        model.prepare(&cfg.augmentation.apply_batch(batch, aug))
    });
    let views = tr.span(ENCODE, || {
        let v1 = model.encode_patched(&x_patched, ctx);
        let v2 = model.encode_patched(&x_patched, ctx);
        (v1, v2)
    });
    let training = ctx.training;
    // The views are dropped inside the span, before backward, exactly as
    // `pretext_loss` drops them when it returns.
    let (total, loss) = tr.span(LOSS, move || {
        let (v1, v2) = views;
        let p = predictive_loss(model, &v1, &v2);
        let c = contrastive_loss(model, &v1, &v2, training);
        let total = p.add(&c.scale(cfg.lambda));
        let loss = total.item();
        (total, loss)
    });
    if !loss.is_finite() {
        return Err(format!("non-finite loss {loss}"));
    }
    tr.span(BACKWARD, || total.try_backward())
        .map_err(|e| e.to_string())?;
    Ok(loss)
}

/// Replays `timedrl::pretrain`'s whole-batch loop (`micro_batch: None`)
/// call by call and returns the final-epoch mean loss. The RNG domains
/// mirror `crates/core/src/trainer.rs`; the bitwise loss check proves the
/// replay runs the same program.
fn replay_pretrain(tr: &mut Tracer, cfg: &TimeDrlConfig, windows: &NdArray) -> Result<f32, String> {
    let model = TimeDrl::new(cfg.clone());
    let mut opt = AdamW::new(model.parameters(), cfg.lr, cfg.weight_decay);
    let mut epoch_rng = Prng::new(cfg.seed ^ 0x5eed_0001);
    let mut ctx = Ctx::train(cfg.seed ^ 0x5eed_0002);
    let mut aug = Prng::new(cfg.seed ^ 0x5eed_0003);
    let n = windows.shape()[0];
    let mut last = None;
    for _ in 0..cfg.epochs {
        let (mut sum, mut batches) = (0.0f64, 0usize);
        for idx in
            BatchIndices::new(n, cfg.batch_size, Some(&mut epoch_rng)).map_err(|e| e.to_string())?
        {
            tr.begin();
            let batch = tr.span(GATHER, || gather_rows(windows, &idx));
            opt.zero_grad();
            let loss = forward_backward(tr, &model, &batch, &mut ctx, &mut aug)?;
            tr.span(CLIP, || clip_grad_norm(opt.parameters(), 5.0));
            tr.span(ADAMW, || opt.step());
            tr.end();
            sum += loss as f64;
            batches += 1;
        }
        last = Some((sum / batches as f64) as f32);
    }
    last.ok_or_else(|| "no epochs ran".to_string())
}

/// Seeded window subsets, one per pretraining run (cycled).
fn fig4_setup(seed: u64) -> Result<Vec<NdArray>, String> {
    let cols = etth1_columns(seed);
    let t = cols[0].len();
    let series = NdArray::from_fn(&[t, cols.len()], |i| cols[i % cols.len()][i / cols.len()]);
    let w = sliding_windows(&series, FIG4_T, 1, 64);
    let all = channel_independent(&w.inputs);
    let mut rng = TestRng::new(seed ^ 0xf164);
    let subsets: Vec<NdArray> = (0..FIG4_SUBSETS)
        .map(|_| {
            let idx: Vec<usize> = rng.permutation(all.shape()[0])[..FIG4_RUN_WINDOWS].to_vec();
            gather_rows(&all, &idx)
        })
        .collect();
    // Warm-up run: the buffer pool and lazily sized scratch fill here, not
    // in the first timed run.
    pretrain(&TimeDrl::new(fig4_config(seed)), &subsets[0]).map_err(|e| e.to_string())?;
    Ok(subsets)
}

pub fn fig4(opts: &Opts) -> Result<Outcome, String> {
    pool::with_threads(FIG4_THREADS, || fig4_inner(opts))
}

fn fig4_inner(opts: &Opts) -> Result<Outcome, String> {
    println!("{}", host::describe_budget(FIG4_THREADS, "2 pool threads"));
    let mut out = Outcome::new();
    let (subsets, setup_s) = repeat_setup(|| fig4_setup(opts.seed))?;
    let steps_per_run = FIG4_RUN_WINDOWS.div_ceil(FIG4_BATCH) as u64;
    let cfg_for = |k: usize| fig4_config(opts.seed.wrapping_add(k as u64));

    // Untraced: the real entry point, one fresh model per run.
    let budget = if opts.trace {
        0.35 * opts.seconds
    } else {
        opts.seconds
    };
    let mut run_s = Vec::new();
    let mut first_loss = None;
    let mut rate = SliceRate::start();
    let t_start = Instant::now();
    while t_start.elapsed().as_secs_f64() < budget {
        let k = run_s.len();
        let t0 = Instant::now();
        let result = pretrain(&TimeDrl::new(cfg_for(k)), &subsets[k % FIG4_SUBSETS]);
        run_s.push(t0.elapsed().as_secs_f64());
        rate.add(FIG4_RUN_WINDOWS as f64);
        out.attempted += steps_per_run;
        match result {
            Ok(r) if r.total.iter().all(|l| l.is_finite()) => {
                if k == 0 {
                    first_loss = r.final_loss();
                }
            }
            Ok(r) => {
                out.failed += steps_per_run;
                println!("run {k}: non-finite losses {:?}", r.total);
            }
            Err(e) => {
                out.failed += steps_per_run;
                println!("run {k}: {e}");
            }
        }
    }
    let windows_per_s = (run_s.len() * FIG4_RUN_WINDOWS) as f64 / run_s.iter().sum::<f64>();
    let mut runs = run_s.clone();
    let summary = summarize(&mut runs);

    // Traced replay of the same runs (or, untraced, one replay as the check).
    let mut tr = Tracer::new(PHASES, opts.trace);
    let replay_budget = if opts.trace { 0.4 * opts.seconds } else { 0.0 };
    let mut replay_runs = 0usize;
    let mut replay_s = 0.0;
    let mut replay_first = None;
    loop {
        let t0 = Instant::now();
        let loss = replay_pretrain(
            &mut tr,
            &cfg_for(replay_runs),
            &subsets[replay_runs % FIG4_SUBSETS],
        )?;
        replay_s += t0.elapsed().as_secs_f64();
        if replay_runs == 0 {
            replay_first = Some(loss);
        }
        replay_runs += 1;
        if replay_s >= replay_budget {
            break;
        }
    }
    out.check(
        out.failed == 0 && first_loss.is_some(),
        "every pretrain run returned finite losses",
    );
    out.check(
        matches!((first_loss, replay_first), (Some(a), Some(b)) if a.to_bits() == b.to_bits()),
        &format!(
            "layer replay reproduces pretrain's final-epoch loss bit for bit ({first_loss:?} vs {replay_first:?})"
        ),
    );

    println!(
        "pretrain_fig4: T={FIG4_T} P=S={FIG4_PATCH} (33 tokens) batch {FIG4_BATCH}, {} runs",
        run_s.len()
    );
    report(
        "setup_s",
        setup_s,
        "s",
        "median of set-ups (data, model, warm-up run)",
    );
    report(
        "peak_rss_mb",
        host::peak_rss_mb(None).unwrap_or(0.0),
        "MB",
        "VmHWM of the bench process",
    );
    report(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        "",
    );
    report(
        "train.windows_per_s",
        rate.median(),
        "1/s",
        &format!(
            "median of {} slices; run mean {windows_per_s:.2}",
            rate.slices()
        ),
    );
    println!(
        "  pretraining run latency ({FIG4_RUN_WINDOWS} windows): {}",
        describe(&summary, 1e3, "ms")
    );

    out.metric("setup_s", setup_s);
    out.metric("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(0.0));
    out.metric("throughput_per_s", rate.median());
    out.metric("latency_p50_ms", summary.p50 * 1e3);
    out.metric("latency_tail_ms", percentile(&runs, 90.0) * 1e3);
    if opts.trace {
        let traced_rate = (replay_runs * FIG4_RUN_WINDOWS) as f64 / replay_s;
        step_metrics(&mut out, &tr);
        let pct = (windows_per_s / traced_rate - 1.0) * 100.0;
        println!(
            "  tracing overhead: untraced {windows_per_s:.2} windows/s (pretrain()) vs traced {traced_rate:.2}/s -> {pct:.2}%"
        );
        out.metric("trace.overhead_pct", pct);
        shard_layers(opts, 0.25 * opts.seconds, &mut out)?;
    }
    Ok(out)
}

/// Per-step layer metrics of the whole-batch replay.
fn step_metrics(out: &mut Outcome, tr: &Tracer) {
    let ms = |p| tr.median(p) * 1e3;
    let rows = [
        ("data.gather_ms", ms(GATHER)),
        ("data.prepare_ms", ms(PREPARE)),
        ("core.encode_fwd_ms", ms(ENCODE)),
        ("core.loss_fwd_ms", ms(LOSS)),
        ("tensor.backward_ms", ms(BACKWARD)),
        ("nn.clip_ms", ms(CLIP)),
        ("nn.adamw_ms", ms(ADAMW)),
        ("core.step_ms", tr.whole_median() * 1e3),
        ("testkit.alloc.allocs_per_step", tr.allocs_median()),
        (
            "trace.coverage",
            tr.coverage(&[GATHER, PREPARE, ENCODE, LOSS, BACKWARD, CLIP, ADAMW]),
        ),
    ];
    println!(
        "traced steps: {} (per-step medians; allocations are process-wide)",
        tr.ops()
    );
    for (name, v) in rows {
        println!("  {name:<34} {v:.4}");
        out.metric(name, v);
    }
}

// ------------------------------------------------------ sharded trainer

struct ShardSet {
    dir: PathBuf,
    write_s: f64,
    windows_per_epoch: usize,
}

fn shard_setup(opts: &Opts) -> Result<ShardSet, String> {
    let cols = etth1_columns(opts.seed);
    let ch = (opts.seed % cols.len() as u64) as usize;
    let rows = SHARDS * SHARD_ROWS;
    let series =
        NdArray::from_vec(&[rows, 1], cols[ch][..rows].to_vec()).map_err(|e| e.to_string())?;
    let dir = opts.work_dir.join("shards");
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    ShardWriter::new(SHARD_ROWS)
        .and_then(|w| w.write(&series, &dir))
        .map_err(|e| e.to_string())?;
    let write_s = t0.elapsed().as_secs_f64();
    let ds = ShardedDataset::open(&dir).map_err(|e| e.to_string())?;
    let windows_per_epoch = (0..ds.num_shards())
        .map(|j| ds.shard_window_count(j, SHARD_T, 0, SHARD_STRIDE))
        .sum();
    Ok(ShardSet {
        dir,
        write_s,
        windows_per_epoch,
    })
}

fn shard_plan(set: &ShardSet, run_dir: &Path, worker: usize) -> ShardTrainPlan {
    let mut plan = ShardTrainPlan::new(&set.dir, run_dir);
    plan.n_workers = SHARD_WORKERS;
    plan.worker = worker;
    plan.stride = SHARD_STRIDE;
    plan.poll_ms = 1;
    plan.timeout_ms = 60_000;
    plan
}

/// One real two-worker run. Returns the coordinator's step start times and
/// the run's wall time, or the first worker error.
fn sharded_run(
    cfg: &TimeDrlConfig,
    set: &ShardSet,
    run_dir: &Path,
) -> Result<(Vec<Instant>, f64), String> {
    let _ = std::fs::remove_dir_all(run_dir);
    let mut starts = Vec::new();
    let t0 = Instant::now();
    let (coord, follower) = std::thread::scope(|s| {
        let follower = s.spawn(|| {
            pool::with_threads(1, || run_shard_worker(cfg, &shard_plan(set, run_dir, 1)))
        });
        let coord = pool::with_threads(1, || {
            run_shard_worker_with(cfg, &shard_plan(set, run_dir, 0), |_| {
                starts.push(Instant::now())
            })
        });
        (coord, follower.join())
    });
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(run_dir);
    let report = coord.map_err(|e| format!("coordinator: {e}"))?;
    follower
        .map_err(|_| "follower thread panicked".to_string())?
        .map_err(|e| format!("follower: {e}"))?;
    if report.total.len() != cfg.epochs || !report.total.iter().all(|l| l.is_finite()) {
        return Err(format!("bad loss history {:?}", report.total));
    }
    Ok((starts, wall))
}

/// Serial traced replay of one sharded run: per step, every shard's batch
/// read, replica build and gradient, then the coordinator's reduce, clip
/// and AdamW step. Per-step critical path (slowest worker's shards plus
/// the coordinator tail) goes to `critical`.
fn replay_sharded(
    tr: &mut Tracer,
    cfg: &TimeDrlConfig,
    set: &ShardSet,
    open_s: &mut Vec<f64>,
    critical: &mut Vec<f64>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let ds = ShardedDataset::open(&set.dir).map_err(|e| e.to_string())?;
    open_s.push(t0.elapsed().as_secs_f64());
    let counts: Vec<usize> = (0..ds.num_shards())
        .map(|j| ds.shard_window_count(j, SHARD_T, 0, SHARD_STRIDE))
        .collect();
    let steps_per_epoch = counts
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .div_ceil(cfg.batch_size);
    let model = TimeDrl::new(cfg.clone());
    let mut opt = AdamW::new(model.parameters(), cfg.lr, cfg.weight_decay);
    for epoch in 0..cfg.epochs {
        let mut orders: Vec<Vec<Vec<usize>>> = counts
            .iter()
            .enumerate()
            .map(|(j, &n)| {
                let mut rng = Prng::new(cfg.seed ^ ((epoch as u64) << 8) ^ j as u64);
                BatchIndices::new(n, cfg.batch_size, Some(&mut rng))
                    .map(|b| b.collect())
                    .unwrap_or_default()
            })
            .collect();
        for b in 0..steps_per_epoch {
            tr.begin();
            let snapshot: Vec<NdArray> = tr.span(REPLICA, || {
                model.parameters().iter().map(|p| p.to_array()).collect()
            });
            let mut worker_s = [0.0f64; SHARD_WORKERS];
            let mut grads: Vec<(usize, Vec<NdArray>)> = Vec::new();
            for (j, order) in orders.iter_mut().enumerate() {
                let Some(idx) = order.get(b) else { continue };
                let shard_t0 = Instant::now();
                let batch = tr
                    .span(SHARD_BATCH, || {
                        ds.shard_window_batch(j, SHARD_T, 0, SHARD_STRIDE, idx)
                    })
                    .map_err(|e| e.to_string())?
                    .inputs;
                let replica = tr.span(REPLICA, || {
                    let r = TimeDrl::new(cfg.clone());
                    for (p, v) in r.parameters().iter().zip(&snapshot) {
                        p.set_value(v.clone());
                    }
                    r
                });
                let mut ctx = Ctx::train(cfg.seed ^ 0x5a4d_0002 ^ ((b as u64) << 16) ^ j as u64);
                let mut aug = Prng::new(cfg.seed ^ 0x5a4d_0003 ^ ((b as u64) << 16) ^ j as u64);
                forward_backward(tr, &replica, &batch, &mut ctx, &mut aug)?;
                let g = tr.span(BACKWARD, || {
                    replica
                        .parameters()
                        .iter()
                        .map(|p| p.grad().unwrap_or_else(|| NdArray::zeros(&p.shape())))
                        .collect()
                });
                grads.push((idx.len(), g));
                worker_s[j % SHARD_WORKERS] += shard_t0.elapsed().as_secs_f64();
            }
            let tail_t0 = Instant::now();
            let total: usize = grads.iter().map(|(n, _)| n).sum();
            tr.span(REDUCE, || -> Result<(), String> {
                let mut reduced: Vec<NdArray> =
                    snapshot.iter().map(|p| NdArray::zeros(p.shape())).collect();
                for (n, g) in &grads {
                    let w = *n as f32 / total as f32;
                    for (acc, gv) in reduced.iter_mut().zip(g) {
                        for (a, &x) in acc.data_mut().iter_mut().zip(gv.data()) {
                            *a += x * w;
                        }
                    }
                }
                opt.zero_grad();
                for (p, g) in model.parameters().iter().zip(reduced) {
                    p.try_backward_with(g).map_err(|e| e.to_string())?;
                }
                Ok(())
            })?;
            tr.span(CLIP, || clip_grad_norm(opt.parameters(), 5.0));
            tr.span(ADAMW, || opt.step());
            tr.end();
            let slowest = worker_s.iter().copied().fold(0.0, f64::max);
            critical.push(slowest + tail_t0.elapsed().as_secs_f64());
        }
    }
    Ok(())
}

/// The sharded trainer's layers, measured in the traced run over
/// `seconds`: shard writes, real two-worker steps, and the serial replay
/// with the tracer off and then on.
fn shard_layers(opts: &Opts, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut writes = Vec::new();
    let (set, _) = repeat_setup(|| {
        let set = shard_setup(opts)?;
        writes.push(set.write_s);
        Ok(set)
    })?;
    let cfg = shard_config(opts.seed);
    let run_dir = opts.work_dir.join("run");
    let windows_per_run = (set.windows_per_epoch * cfg.epochs) as f64;

    let (mut step_s, mut run_rates) = (Vec::new(), Vec::new());
    let (mut runs, t0) = (0usize, Instant::now());
    while runs == 0 || t0.elapsed().as_secs_f64() < 0.4 * seconds {
        runs += 1;
        out.attempted += 1;
        match sharded_run(&cfg, &set, &run_dir) {
            Ok((starts, wall)) => {
                step_s.extend(starts.windows(2).map(|p| (p[1] - p[0]).as_secs_f64()));
                run_rates.push(windows_per_run / wall);
            }
            Err(e) => {
                out.failed += 1;
                println!("sharded run failed: {e}");
            }
        }
    }
    out.check(
        !step_s.is_empty(),
        "sharded runs complete with finite losses",
    );

    let (mut open_s, mut critical) = (Vec::new(), Vec::new());
    let mut rates = [0.0f64; 2];
    let mut tr = Tracer::new(PHASES, false);
    for (i, share) in [(0usize, 0.2), (1, 0.4)] {
        tr = Tracer::new(PHASES, i == 1);
        let (mut n, t0) = (0usize, Instant::now());
        while n == 0 || t0.elapsed().as_secs_f64() < share * seconds {
            pool::with_threads(1, || {
                replay_sharded(&mut tr, &cfg, &set, &mut open_s, &mut critical)
            })?;
            n += 1;
        }
        rates[i] = n as f64 * windows_per_run / t0.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_dir_all(&set.dir);

    let params: usize = TimeDrl::new(cfg.clone())
        .parameters()
        .iter()
        .map(|p| p.shape().iter().product::<usize>())
        .sum();
    let step_real = median(&step_s) * 1e3;
    let ms = |p| tr.median(p) * 1e3;
    println!(
        "sharded trainer (T={SHARD_T} P=8 d_model 16 batch 8, {SHARDS} shards x {SHARD_ROWS} rows, \
         {SHARD_WORKERS} workers x 1 pool thread): {:.1} windows/s (median of {} runs), replay step {:.3} ms, \
         replay coverage {:.4}, replay tracing overhead {:.2}%",
        median(&run_rates),
        run_rates.len(),
        tr.whole_median() * 1e3,
        tr.coverage(&[PREPARE, ENCODE, LOSS, BACKWARD, CLIP, ADAMW, SHARD_BATCH, REPLICA, REDUCE]),
        (rates[0] / rates[1] - 1.0) * 100.0,
    );
    let rows = [
        ("data.shard.write_s", median(&writes)),
        ("data.shard.open_ms", median(&open_s) * 1e3),
        ("data.shard.batch_ms", ms(SHARD_BATCH)),
        ("core.replica_build_ms", ms(REPLICA)),
        ("core.shard.reduce_ms", ms(REDUCE)),
        ("core.shard.step_ms", step_real),
        (
            "core.shard.exchange_ms",
            step_real - median(&critical) * 1e3,
        ),
        (
            "core.shard.grad_bytes_per_step",
            (SHARDS * params * 4) as f64,
        ),
    ];
    for (name, v) in rows {
        println!("  {name:<34} {v:.4}");
        out.metric(name, v);
    }
    println!(
        "  (core.shard.step_ms: real two-worker step; exchange_ms: derived, that step minus the serial \
         replay's per-step critical path; grad_bytes_per_step: computed from parameter sizes, {params} f32 \
         per shard gradient)"
    );
    Ok(())
}
