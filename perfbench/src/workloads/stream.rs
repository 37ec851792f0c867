//! `stream_anomaly`: 64 univariate streams, each a `StreamingEncoder`
//! (T=256, P=S=8, exact statistics every 4th hop) feeding an
//! `OnlineAnomalyScorer`, fed round-robin from one thread. It runs inside
//! `serve_mixed`'s traced run, which reports its `stream.*` layer rows.
//!
//! Streams start staggered by one sample each (mod the stride), so every
//! round of 64 pushes fires exactly 8 hops. A hop's latency is `push` on a
//! hop tick plus `observe`. The traced run continues the same streams and
//! times every `push` and `observe` from outside, and re-runs
//! `embed_patched` on each hop's `x_patched` to isolate the compiled plan.

use super::{etth1_columns, repeat_setup, report, Opts, Outcome};
use crate::host;
use crate::stats::{describe, median, percentile, summarize, SliceRate};
use crate::trace::Tracer;
use std::time::Instant;
use testkit::pool;
use timedrl::{decode_model_export, encode_model_export, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_serve::CompiledModel;
use timedrl_stream::{OnlineAnomalyScorer, StreamingEncoder};
use timedrl_tensor::NdArray;

const STREAMS: usize = 64;
const T: usize = 256;
const STRIDE: usize = 8;
const RECOMPUTE_EVERY: usize = 4;
/// Scorer: 99th-percentile threshold over the last 32 scores, recalibrated
/// every 32 hops.
const QUANTILE: f32 = 0.99;
const SCORE_WINDOW: usize = 32;
/// Hops per stream run during set-up, so the timed loop starts warm.
const WARM_HOPS: usize = 2;
/// Every this-many-th hop is checked against the batch path (capped).
const SAMPLE_EVERY: u64 = 53;
const MAX_SAMPLES: usize = 200;
/// Welford hops must agree with the batch path within this bound.
const WELFORD_EPS: f32 = 1e-3;
pub const THREADS: usize = 1;

const PUSH: usize = 0;
const OBSERVE: usize = 1;
const PHASES: usize = 2;

struct Fleet {
    engines: Vec<StreamingEncoder>,
    scorers: Vec<OnlineAnomalyScorer>,
    cols: Vec<Vec<f32>>,
    /// Samples pushed into each stream so far.
    ticks: Vec<usize>,
}

impl Fleet {
    /// Sample `i` of stream `k`: a channel of the series, from a
    /// per-stream offset, wrapping at the end.
    fn sample(&self, k: usize, i: usize) -> f32 {
        let col = &self.cols[k % self.cols.len()];
        col[(k / self.cols.len() * 1_999 + i) % col.len()]
    }

    /// Whether the next push into stream `k` completes a hop.
    fn next_is_hop(&self, k: usize) -> bool {
        let n = self.ticks[k] + 1;
        n >= T && (n - T).is_multiple_of(STRIDE)
    }

    /// The `T` samples ending at tick `tick` of stream `k`, as `[1, T, 1]`.
    fn window(&self, k: usize, tick: usize) -> NdArray {
        NdArray::from_fn(&[1, T, 1], |i| self.sample(k, tick - T + i))
    }
}

fn stream_model() -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(T);
    cfg.patch = PatchConfig::non_overlapping(STRIDE);
    cfg.seed = 47;
    TimeDrl::new(cfg)
}

fn setup(seed: u64) -> Result<Fleet, String> {
    let cols = etth1_columns(seed);
    let payload = encode_model_export(&stream_model());
    let mut fleet = Fleet {
        engines: Vec::new(),
        scorers: Vec::new(),
        cols,
        ticks: vec![0; STREAMS],
    };
    for k in 0..STREAMS {
        let export = decode_model_export(&payload[4..]).map_err(|e| e.to_string())?;
        let model = CompiledModel::from_export(export).map_err(|e| e.to_string())?;
        let mut engine =
            StreamingEncoder::new(model, RECOMPUTE_EVERY).map_err(|e| e.to_string())?;
        engine.warm();
        fleet.engines.push(engine);
        fleet.scorers.push(
            OnlineAnomalyScorer::new(QUANTILE, SCORE_WINDOW, Some(SCORE_WINDOW))
                .map_err(|e| e.to_string())?,
        );
        for _ in 0..T + WARM_HOPS * STRIDE + k % STRIDE {
            push(&mut fleet, k).map_err(|e| e.to_string())?;
        }
    }
    Ok(fleet)
}

/// One push into stream `k`, scoring the hop if it fires one.
fn push(
    fleet: &mut Fleet,
    k: usize,
) -> Result<Option<timedrl_stream::StreamUpdate>, timedrl_stream::StreamError> {
    let x = [fleet.sample(k, fleet.ticks[k])];
    fleet.ticks[k] += 1;
    let update = fleet.engines[k].push(&x)?;
    if let Some(u) = &update {
        fleet.scorers[k].observe(&fleet.engines[k], u)?;
    }
    Ok(update)
}

struct Sample {
    stream: usize,
    tick: usize,
    exact: bool,
    z_i: NdArray,
    z_t: NdArray,
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    pool::with_threads(THREADS, || run_inner(opts))
}

fn run_inner(opts: &Opts) -> Result<Outcome, String> {
    println!(
        "{}",
        host::describe_budget(THREADS, "one feeding thread at TIMEDRL_THREADS=1")
    );
    let mut out = Outcome::new();
    let (mut fleet, setup_s) = repeat_setup(|| setup(opts.seed))?;
    let mut samples: Vec<Sample> = Vec::new();
    let mut hops = 0u64;
    let sample_phase = opts.seed % SAMPLE_EVERY;

    // Untraced: hop latency is timed only on ticks known to be hops.
    let budget = if opts.trace { 0.4 } else { 1.0 } * opts.seconds;
    let mut hop_s = Vec::new();
    let mut pushed = 0u64;
    let mut rate = SliceRate::start();
    let t_start = Instant::now();
    while t_start.elapsed().as_secs_f64() < budget {
        for k in 0..STREAMS {
            let hop = fleet.next_is_hop(k);
            let t0 = Instant::now();
            let result = push(&mut fleet, k);
            if hop {
                hop_s.push(t0.elapsed().as_secs_f64());
            }
            out.attempted += 1;
            match result {
                Ok(Some(u)) if hop => {
                    hops += 1;
                    if hops % SAMPLE_EVERY == sample_phase && samples.len() < MAX_SAMPLES {
                        samples.push(Sample {
                            stream: k,
                            tick: fleet.ticks[k],
                            exact: u.exact,
                            z_i: u.z_i.clone(),
                            z_t: u.z_t.clone(),
                        });
                    }
                }
                Ok(None) if !hop => {}
                Ok(_) => {
                    out.failed += 1;
                    println!(
                        "stream {k}: hop fired off schedule at tick {}",
                        fleet.ticks[k]
                    );
                }
                Err(e) => {
                    out.failed += 1;
                    println!("stream {k}: {e}");
                }
            }
        }
        pushed += STREAMS as u64;
        rate.add(STREAMS as f64);
    }
    let untraced_rate = pushed as f64 / t_start.elapsed().as_secs_f64();
    let mut sorted = hop_s.clone();
    let summary = summarize(&mut sorted);

    let layers = if opts.trace {
        Some(traced(
            &mut fleet,
            opts.seconds * 0.6,
            untraced_rate,
            &mut out,
        )?)
    } else {
        None
    };

    // Output checks against the batch path, outside the timed loops.
    let (mut exact_ok, mut exact_n, mut welford_ok, mut welford_n) = (0, 0, 0, 0);
    for s in &samples {
        let want = fleet.engines[s.stream]
            .model()
            .embed(&fleet.window(s.stream, s.tick))
            .map_err(|e| e.to_string())?;
        if s.exact {
            exact_n += 1;
            let same = |a: &NdArray, b: &NdArray| {
                a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
            };
            exact_ok += usize::from(same(&want.z_i, &s.z_i) && same(&want.z_t, &s.z_t));
        } else {
            welford_n += 1;
            let close = want.z_i.max_abs_diff(&s.z_i) <= WELFORD_EPS
                && want.z_t.max_abs_diff(&s.z_t) <= WELFORD_EPS;
            welford_ok += usize::from(close);
        }
    }
    out.check(out.failed == 0, "no StreamError and every hop on schedule");
    out.check(
        exact_n > 0 && exact_ok == exact_n,
        &format!("{exact_ok}/{exact_n} sampled exact hops bitwise equal to CompiledModel::embed"),
    );
    out.check(
        welford_n > 0 && welford_ok == welford_n,
        &format!("{welford_ok}/{welford_n} sampled Welford hops within {WELFORD_EPS} of CompiledModel::embed"),
    );
    out.failed += (exact_n - exact_ok + welford_n - welford_ok) as u64;

    println!("stream_anomaly: {STREAMS} streams, T={T} P=S={STRIDE}, exact stats every {RECOMPUTE_EVERY} hops");
    report(
        "setup_s",
        setup_s,
        "s",
        "median of set-ups (data, model export/compile/warm of 64 engines, warm hops)",
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
        "stream.samples_per_s",
        rate.median(),
        "1/s",
        &format!(
            "median of {} slices; run mean {untraced_rate:.1}",
            rate.slices()
        ),
    );
    report(
        "stream.hop_p50_us",
        summary.p50 * 1e6,
        "us",
        &describe(&summary, 1e6, "us"),
    );
    report(
        "stream.hop_p99_us",
        percentile(&sorted, 99.0) * 1e6,
        "us",
        "",
    );
    out.metric("setup_s", setup_s);
    out.metric("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(0.0));
    out.metric("throughput_per_s", rate.median());
    out.metric("latency_p50_ms", summary.p50 * 1e3);
    out.metric("latency_tail_ms", percentile(&sorted, 99.0) * 1e3);
    if let Some(rows) = layers {
        for (name, v) in rows {
            println!("  {name:<34} {v:.4}");
            out.metric(name, v);
        }
    }
    Ok(out)
}

/// Continues the streams with every call timed; returns the layer rows.
fn traced(
    fleet: &mut Fleet,
    seconds: f64,
    untraced_rate: f64,
    out: &mut Outcome,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut tr = Tracer::new(PHASES, true);
    let (mut idle_push, mut exact, mut welford, mut embed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pushed = 0u64;
    let mut recall_s = 0.0;
    let t_start = Instant::now();
    while t_start.elapsed().as_secs_f64() < seconds {
        for k in 0..STREAMS {
            let hop = fleet.next_is_hop(k);
            let x = [fleet.sample(k, fleet.ticks[k])];
            fleet.ticks[k] += 1;
            out.attempted += 1;
            if !hop {
                let t0 = Instant::now();
                let r = fleet.engines[k].push(&x);
                idle_push.push(t0.elapsed().as_secs_f64());
                if !matches!(r, Ok(None)) {
                    out.failed += 1;
                }
                continue;
            }
            tr.begin();
            let update = tr.span(PUSH, || fleet.engines[k].push(&x));
            let Ok(Some(u)) = update else {
                tr.end();
                out.failed += 1;
                continue;
            };
            let scored = tr.span(OBSERVE, || fleet.scorers[k].observe(&fleet.engines[k], &u));
            tr.end();
            if scored.is_err() {
                out.failed += 1;
            }
            (if u.exact { &mut exact } else { &mut welford }).push(tr.last(PUSH));
            let t0 = Instant::now();
            let again = fleet.engines[k].model().embed_patched(&u.x_patched);
            let dt = t0.elapsed().as_secs_f64();
            embed.push(dt);
            recall_s += dt;
            if again.is_err() {
                out.failed += 1;
            }
        }
        pushed += STREAMS as u64;
    }
    let traced_rate = pushed as f64 / (t_start.elapsed().as_secs_f64() - recall_s);
    let pct = (untraced_rate / traced_rate - 1.0) * 100.0;
    println!(
        "traced hops: {} ({} exact, {} Welford); tracing overhead: untraced {untraced_rate:.0} samples/s vs \
         traced {traced_rate:.0}/s -> {pct:.2}%",
        tr.ops(),
        exact.len(),
        welford.len()
    );
    Ok(vec![
        ("stream.window.push_ns", median(&idle_push) * 1e9),
        ("stream.engine.hop_exact_us", median(&exact) * 1e6),
        ("stream.engine.hop_welford_us", median(&welford) * 1e6),
        ("stream.compiled.embed_patched_us", median(&embed) * 1e6),
        ("stream.anomaly.observe_us", tr.median(OBSERVE) * 1e6),
        ("stream.hop_us", tr.whole_median() * 1e6),
        ("stream.allocs_per_hop", tr.allocs_median()),
        ("trace.coverage", tr.coverage(&[PUSH, OBSERVE])),
        ("trace.overhead_pct", pct),
    ])
}
