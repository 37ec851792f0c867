//! The repository benchmark.
//!
//! ```text
//! perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against the public entry points and prints
//! human-readable results, then, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are [`END_TO_END`]; with `--trace 1` they are
//! [`PER_LAYER`], measured by a replay that times each layer call from
//! outside the program. A per-layer metric of a layer the workload does not
//! reach reads 0. `BENCHMARK.json` at the repository root lists the same
//! names (a unit test keeps them in step).

mod host;
mod loadgen;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use testkit::Json;
use workloads::{Opts, Outcome};

/// End-to-end metrics, reported by every workload. What the operation
/// behind the two latencies is, and which tail percentile `latency_tail_ms`
/// is, depends on the workload (see `BENCHMARK.json`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics of the traced run.
const PER_LAYER: [(&str, &str); 44] = [
    ("data.gather_ms", "ms"),
    ("data.prepare_ms", "ms"),
    ("core.encode_fwd_ms", "ms"),
    ("core.loss_fwd_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("nn.clip_ms", "ms"),
    ("nn.adamw_ms", "ms"),
    ("core.step_ms", "ms"),
    ("testkit.alloc.allocs_per_step", "count"),
    ("data.shard.write_s", "s"),
    ("data.shard.open_ms", "ms"),
    ("data.shard.batch_ms", "ms"),
    ("core.replica_build_ms", "ms"),
    ("core.shard.reduce_ms", "ms"),
    ("core.shard.step_ms", "ms"),
    ("core.shard.exchange_ms", "ms"),
    ("core.shard.grad_bytes_per_step", "bytes"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.compiled.miss_embed_us", "us"),
    ("serve.batcher.run_us", "us"),
    ("serve.request_us", "us"),
    ("serve.allocs_per_request", "count"),
    ("serve.compiled.embed_b1_us", "us"),
    ("serve.compiled.embed_b16_us", "us"),
    ("serve.compiled.embed_b64_us", "us"),
    ("serve.compiled.per_window_b64_us", "us"),
    ("serve.loadgen.lag_p99_ms", "ms"),
    ("serve.loadgen.backlog_max", "count"),
    ("stream.window.push_ns", "ns"),
    ("stream.engine.hop_exact_us", "us"),
    ("stream.engine.hop_welford_us", "us"),
    ("stream.compiled.embed_patched_us", "us"),
    ("stream.anomaly.observe_us", "us"),
    ("stream.hop_us", "us"),
    ("stream.allocs_per_hop", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.thread_budget", "count"),
    ("host.oversubscribed", "bool"),
];

const WORKLOADS: [&str; 2] = ["pretrain_fig4", "serve_mixed"];

/// Share of `--seconds` that `serve_mixed`'s traced run gives the
/// streaming engine's layers, after its own.
const STREAM_SHARE: f64 = 0.5;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --server <embed_server> --work-dir <dir>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(server), Some(work_dir)) = (
        get("--workload"),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && *s <= 600.0),
        get("--trace").filter(|t| t == "0" || t == "1"),
        get("--server"),
        get("--work-dir"),
    ) else {
        return usage("missing or invalid argument");
    };
    let Some(&name) = WORKLOADS.iter().find(|w| **w == workload) else {
        return usage(&format!("unknown workload {workload}"));
    };
    let opts = Opts {
        seed,
        seconds,
        trace: trace == "1",
        work_dir: PathBuf::from(work_dir).join(format!("{name}-{}", std::process::id())),
        server_bin: PathBuf::from(server),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    println!("workload {name}, seed {seed}, {seconds} s, trace {trace}");
    let (result, budget) = match name {
        "pretrain_fig4" => (
            workloads::pretrain::fig4(&opts),
            workloads::pretrain::FIG4_THREADS,
        ),
        _ => (serve_mixed(&opts), workloads::serve::THREADS),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    match result {
        Ok(mut out) => {
            out.metric("host.nproc", host::nproc() as f64);
            out.metric("host.thread_budget", budget as f64);
            out.metric(
                "host.oversubscribed",
                f64::from(u8::from(budget > host::nproc())),
            );
            let list: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", result_line(&mut out, list, opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `serve_mixed`. Its traced run then measures the streaming engine's
/// layers on the `stream_anomaly` fleet (see `workloads::stream`), which
/// runs the same compiled plan at batch 1, after the server has stopped.
/// That fleet is no end-to-end workload of its own: one compute-bound
/// thread followed the host's CPU-speed levels, 1.6× apart, so its figures
/// split between runs by more than any usable bound.
fn serve_mixed(opts: &Opts) -> Result<Outcome, String> {
    let mut out = workloads::serve::run(opts)?;
    if opts.trace {
        let stream_opts = Opts {
            seconds: opts.seconds * STREAM_SHARE,
            ..opts.clone()
        };
        let stream = workloads::stream::run(&stream_opts)?;
        out.attempted += stream.attempted;
        out.failed += stream.failed;
        out.correct &= stream.correct;
        // The stream run's own end-to-end and trace.* rows stay out: the
        // result's are serving's.
        out.metrics.extend(
            stream
                .metrics
                .into_iter()
                .filter(|(name, _)| name.starts_with("stream.")),
        );
    }
    Ok(out)
}

/// The final JSON line. Every listed metric appears; a per-layer metric the
/// workload did not produce is a layer it does not reach and reads 0. A
/// missing end-to-end metric or a non-finite value makes the run incorrect.
fn result_line(out: &mut Outcome, list: &[(&str, &str)], traced: bool) -> String {
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                eprintln!("perfbench: metric {name} is {v}");
                out.correct = false;
                0.0
            }
            None if traced => 0.0,
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                out.correct = false;
                0.0
            }
        };
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string_pretty()
    // The writer only pretty-prints; strings escape their newlines, so
    // trimming every line yields the same document on one line.
    .lines()
    .map(str::trim)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must name the same metrics with the
    /// same units, in the same order, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn result_line_fills_unreached_layers_with_zero() {
        let mut out = Outcome::new();
        out.attempted = 3;
        out.metric("trace.coverage", 0.97);
        let line = result_line(&mut out, &PER_LAYER, true);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("trace.coverage")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.97)
        );
        assert_eq!(
            m.get("serve.cache.hit_ratio")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );

        let mut missing = Outcome::new();
        let line = result_line(&mut missing, &END_TO_END, false);
        assert_eq!(
            Json::parse(&line)
                .unwrap()
                .get("correct")
                .and_then(Json::as_bool),
            Some(false)
        );
    }
}
