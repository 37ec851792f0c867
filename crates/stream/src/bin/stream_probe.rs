//! CI probe for the streaming engine (see `ci.sh`).
//!
//! Builds a deterministic fixture, warms the engine, then:
//!
//! 1. counts heap allocations across a full recompute period of
//!    steady-state ticks (including an exact-stats hop) and prints
//!    `allocs_per_tick=N` for the gate — must be 0;
//! 2. byte-compares an exact hop's embeddings and anomaly score against
//!    `CompiledModel::embed` + the tape-path `anomaly_scores` of the
//!    same materialized window, exiting nonzero on any mismatch.
//!
//! Run it with `TIMEDRL_THREADS=1`, so the allocation count does not
//! depend on how many pool workers the host spawns.

use std::process::ExitCode;
use testkit::alloc::count_allocations;
use timedrl::{decode_model_export, encode_model_export, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_serve::CompiledModel;
use timedrl_stream::{OnlineAnomalyScorer, StreamUpdate, StreamingEncoder};
use timedrl_tensor::Prng;

const WINDOW: usize = 16;
const PATCH: usize = 4;
/// Exact-stats period in hops; the measured span crosses one exact hop.
const RECOMPUTE_EVERY: usize = 2;

fn fixture_model() -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(WINDOW);
    cfg.patch = PatchConfig::non_overlapping(PATCH);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 2;
    cfg.seed = 7;
    TimeDrl::new(cfg)
}

fn compile(model: &TimeDrl) -> CompiledModel {
    let payload = encode_model_export(model);
    CompiledModel::from_export(decode_model_export(&payload[4..]).expect("fixture export"))
        .expect("fixture compile")
}

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

fn main() -> ExitCode {
    let model = fixture_model();
    let compiled = compile(&model);
    let mut engine = StreamingEncoder::new(compile(&model), RECOMPUTE_EVERY).expect("engine");
    let mut scorer = OnlineAnomalyScorer::new(0.9, 4, Some(8)).expect("scorer");

    // A generous deterministic series: fill + warm hops + measured span.
    let series = Prng::new(11).randn(&[WINDOW + 16 * PATCH, 1]);
    let ticks = series.data();
    let mut next = 0usize;

    engine.warm();
    // Fill the window and run several hops so every pool bucket exists.
    feed(&mut engine, &mut scorer, ticks, &mut next, WINDOW + 4 * PATCH);

    // Steady state: one full recompute period of ticks must not allocate.
    let span = RECOMPUTE_EVERY * PATCH;
    let start_tick = next;
    let (_, allocs) = count_allocations(|| {
        feed(&mut engine, &mut scorer, ticks, &mut next, span)
    });
    assert_eq!(next, start_tick + span);
    println!("allocs_per_tick={allocs}");

    // Equivalence smoke on a fresh exact hop: bitwise against the
    // compiled batch path and the tape anomaly score.
    let (update, score) = loop {
        let hop = feed(&mut engine, &mut scorer, ticks, &mut next, PATCH)
            .expect("a hop fires every stride ticks once the window is full");
        if hop.0.exact {
            break hop;
        }
    };
    let start = (update.tick as usize) - WINDOW;
    let window = series
        .slice(0, start, WINDOW)
        .expect("window slice")
        .reshape(&[1, WINDOW, 1])
        .expect("window shape");
    let batch = compiled.embed(&window).expect("batch embed");
    if batch.z_i.data() != update.z_i.data() || batch.z_t.data() != update.z_t.data() {
        eprintln!("FAIL: exact hop embeddings differ from the batch path");
        return ExitCode::FAILURE;
    }
    let tape = timedrl::anomaly_scores(&model, &window);
    if tape.per_window[0].to_bits() != score.to_bits() {
        eprintln!(
            "FAIL: anomaly score {score} differs from tape path {}",
            tape.per_window[0]
        );
        return ExitCode::FAILURE;
    }
    let again = compiled
        .embed_patched(&update.x_patched)
        .expect("re-embed normalized tokens");
    if again.z_t.data() != update.z_t.data() {
        eprintln!("FAIL: x_patched does not reproduce the hop's embeddings");
        return ExitCode::FAILURE;
    }
    println!("equivalence=ok");
    ExitCode::SUCCESS
}
