//! Zero-dependency embedding server over a frozen TimeDRL checkpoint.
//!
//! ```text
//! embed_server --stdio <model.tdrl> [--max-batch N] [--cache N]
//! embed_server --tcp <addr> <model.tdrl> [--max-batch N] [--cache N]
//! ```
//!
//! `--stdio` answers length-prefixed frames on stdin/stdout until
//! end-of-stream (session stats go to stderr); `--tcp` listens forever,
//! logs the address it bound (so port `0` works), and coalesces concurrent
//! connections into micro-batches on one compute thread, which warms its
//! own arena. The wire format is documented in `timedrl_serve::protocol`.
//! Responses are bitwise-equal to the eval-mode tape forward and tagged
//! exact on the wire. Any other flag is a usage error (exit code 2).

use std::io::Write;
use std::process::ExitCode;
use timedrl_serve::{serve_stream, serve_tcp, CompiledModel, ServeConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: embed_server --stdio <model.tdrl> [--max-batch N] [--cache N]\n\
         \x20      embed_server --tcp <addr> <model.tdrl> [--max-batch N] [--cache N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = None; // ("stdio", model) | ("tcp", addr, model)
    let mut cfg = ServeConfig::default();

    let mut i = 0;
    let mut positional: Vec<&str> = Vec::new();
    let mut flag = None;
    while i < args.len() {
        match args[i].as_str() {
            "--stdio" | "--tcp" => {
                if flag.is_some() {
                    return usage();
                }
                flag = Some(args[i].clone());
            }
            "--max-batch" | "--cache" => {
                let Some(raw) = args.get(i + 1) else { return usage() };
                let Ok(n) = raw.parse::<usize>() else { return usage() };
                if args[i] == "--max-batch" {
                    cfg.max_batch = n.max(1);
                } else {
                    cfg.cache_capacity = n;
                }
                i += 1;
            }
            other if !other.starts_with("--") => positional.push(other),
            _ => return usage(),
        }
        i += 1;
    }
    match (flag.as_deref(), positional.as_slice()) {
        (Some("--stdio"), [model]) => mode = Some(("stdio", String::new(), model.to_string())),
        (Some("--tcp"), [addr, model]) => {
            mode = Some(("tcp", addr.to_string(), model.to_string()))
        }
        _ => {}
    }
    let Some((kind, addr, model_path)) = mode else { return usage() };

    let model = match CompiledModel::load(&model_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("embed_server: cannot load {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match kind {
        "stdio" => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut r = stdin.lock();
            let mut w = stdout.lock();
            match serve_stream(&model, &mut r, &mut w, cfg) {
                Ok(stats) => {
                    let _ = w.flush();
                    eprintln!(
                        "embed_server: served={} rejected={} cache_hits={} cache_misses={}",
                        stats.served, stats.rejected, stats.cache_hits, stats.cache_misses
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("embed_server: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "tcp" => {
            let bound = std::net::TcpListener::bind(&addr).and_then(|l| Ok((l.local_addr()?, l)));
            let (local, listener) = match bound {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("embed_server: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("embed_server: listening on {local}");
            match serve_tcp(model, listener, cfg) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("embed_server: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => unreachable!(),
    }
}
