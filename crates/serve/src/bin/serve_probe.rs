//! CI probe for the serving stack (see `ci.sh`).
//!
//! ```text
//! serve_probe prepare <dir>   # deterministic fixture: model export,
//!                             # request frames, tape-path golden outputs
//! serve_probe check <dir>     # compiled path: allocs/request + bitwise
//!                             # golden compare, plus a byte-compare of
//!                             # the real server's response.bin if present
//! ```
//!
//! `check` prints `allocs_per_request=N` for the gate and exits nonzero
//! on any mismatch. Run it with `TIMEDRL_THREADS=1`, so the count does
//! not depend on how many pool workers the host spawns.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use testkit::alloc::count_allocations;
use timedrl::{Precision, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_nn::Ctx;
use timedrl_serve::{protocol, CompiledModel, ServeError};
use timedrl_tensor::{NdArray, Prng};

/// Fixture batch size; `check` warms and measures at exactly this size.
const BATCH: usize = 3;

fn fixture_model() -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(16);
    cfg.patch = PatchConfig::non_overlapping(4);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 2;
    cfg.seed = 7;
    TimeDrl::new(cfg)
}

fn fixture_windows() -> NdArray {
    Prng::new(5).randn(&[BATCH, 16, 1])
}

fn f32s_to_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn prepare(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let model = fixture_model();
    model.export(dir.join("model.tdrl"))?;

    let windows = fixture_windows();
    // Two identical request frames: the second exercises the server's
    // embedding cache, and must come back byte-identical to the first.
    let payload = protocol::encode_request(&windows);
    let mut request = Vec::new();
    for _ in 0..2 {
        protocol::write_frame(&mut request, &payload).expect("vec write");
    }
    std::fs::write(dir.join("request.bin"), &request)?;

    // Golden outputs from the tape path in eval mode.
    let enc = model.encode(&windows, &mut Ctx::eval());
    let z_i = enc.instance(model.config().pooling).to_array();
    let z_t = enc.timestamps().to_array();
    std::fs::write(dir.join("expected_zi.bin"), f32s_to_bytes(z_i.data()))?;
    std::fs::write(dir.join("expected_zt.bin"), f32s_to_bytes(z_t.data()))?;
    println!("serve_probe: fixture written to {}", dir.display());
    Ok(())
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("serve_probe: FAIL: {msg}");
    ExitCode::FAILURE
}

fn check(dir: &Path) -> ExitCode {
    let model = match CompiledModel::load(dir.join("model.tdrl")) {
        Ok(m) => m,
        Err(e) => return fail(format_args!("cannot load fixture model: {e}")),
    };
    // The goldens are exact-tier bytes; byte-comparing a relaxed model
    // against them would be a meaningless gate, so refuse with the typed
    // error instead of reporting a spurious mismatch.
    if model.precision() != Precision::Exact {
        return fail(ServeError::PrecisionMismatch {
            expected: "exact",
            actual: "relaxed",
        });
    }
    let windows = fixture_windows();

    // Warm the arena at the measured batch size, then require the steady
    // state to be allocation-free.
    model.warm(BATCH);
    model.warm(BATCH);
    let (result, allocs) = count_allocations(|| model.embed(&windows));
    let emb = match result {
        Ok(e) => e,
        Err(e) => return fail(format_args!("compiled embed failed: {e}")),
    };
    println!("allocs_per_request={allocs}");

    let expected_zi = match std::fs::read(dir.join("expected_zi.bin")) {
        Ok(b) => b,
        Err(e) => return fail(format_args!("missing expected_zi.bin: {e}")),
    };
    let expected_zt = match std::fs::read(dir.join("expected_zt.bin")) {
        Ok(b) => b,
        Err(e) => return fail(format_args!("missing expected_zt.bin: {e}")),
    };
    if f32s_to_bytes(emb.z_i.data()) != expected_zi {
        return fail("compiled z_i differs from tape-path golden bytes");
    }
    if f32s_to_bytes(emb.z_t.data()) != expected_zt {
        return fail("compiled z_t differs from tape-path golden bytes");
    }
    println!("serve_probe: compiled output bitwise-matches the tape path");

    // When ci.sh has piped request.bin through the real embed_server,
    // every response frame must carry the same golden bytes.
    let response_path = dir.join("response.bin");
    if response_path.exists() {
        let raw = match std::fs::read(&response_path) {
            Ok(b) => b,
            Err(e) => return fail(format_args!("cannot read response.bin: {e}")),
        };
        let mut reader = raw.as_slice();
        let mut frame = Vec::new();
        let mut count = 0;
        loop {
            match protocol::read_frame_into(&mut reader, &mut frame, 64 << 20) {
                Ok(false) => break,
                Ok(true) => {}
                Err(e) => return fail(format_args!("response frame {count}: {e}")),
            }
            let (resp, precision) = match protocol::decode_response(&frame) {
                Ok(r) => r,
                Err(e) => return fail(format_args!("response frame {count}: {e}")),
            };
            if precision != Precision::Exact {
                // A relaxed-tier response is only ε-comparable; the byte
                // gate below would reject it for the wrong reason.
                return fail(ServeError::PrecisionMismatch {
                    expected: "exact",
                    actual: "relaxed",
                });
            }
            if f32s_to_bytes(resp.z_i.data()) != expected_zi {
                return fail(format_args!("server response {count}: z_i bytes differ"));
            }
            if f32s_to_bytes(resp.z_t.data()) != expected_zt {
                return fail(format_args!("server response {count}: z_t bytes differ"));
            }
            count += 1;
        }
        if count != 2 {
            return fail(format_args!("expected 2 response frames, got {count}"));
        }
        println!("serve_probe: {count} server responses bitwise-match the golden bytes");
    }
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, dir] if cmd == "prepare" => match prepare(Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(format_args!("prepare: {e}")),
        },
        [cmd, dir] if cmd == "check" => check(Path::new(dir)),
        _ => {
            eprintln!("usage: serve_probe (prepare|check) <dir>");
            ExitCode::from(2)
        }
    }
}
