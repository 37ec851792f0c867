//! Exit codes of the `probe` CI binary. `ci.sh` decides every probe gate by
//! exit code alone, so a probe that printed a failure but exited 0 would
//! pass its gate silently; these pin the codes down.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};
use timedrl::Precision;
use timedrl_serve::{protocol, Embeddings};
use timedrl_tensor::NdArray;

fn probe(args: &[&str]) -> ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .env("TIMEDRL_THREADS", "1")
        .output()
        .expect("run probe")
        .status
}

/// A fresh `probe serve prepare` fixture in its own temp directory.
fn serve_fixture(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("timedrl_probe_exit_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status = probe(&["serve", "prepare", dir.to_str().unwrap()]);
    assert!(status.success(), "serve prepare failed: {status}");
    dir
}

fn check(dir: &Path) -> Option<i32> {
    probe(&["serve", "check", dir.to_str().unwrap()]).code()
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    assert_eq!(probe(&["no_such_probe"]).code(), Some(2));
    assert_eq!(probe(&[]).code(), Some(2));
    assert_eq!(probe(&["serve", "inspect", "/nonexistent"]).code(), Some(2));
}

#[test]
fn serve_check_passes_on_its_own_fixture() {
    let dir = serve_fixture("pass");
    assert_eq!(check(&dir), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_check_refuses_a_relaxed_response_with_its_own_code() {
    let dir = serve_fixture("relaxed");
    // Two relaxed-tier response frames where the exact server's would be.
    let emb = Embeddings { z_i: NdArray::zeros(&[3, 8]), z_t: NdArray::zeros(&[3, 4, 8]) };
    let (mut payload, mut response) = (Vec::new(), Vec::new());
    protocol::encode_response(&mut payload, &emb, Precision::Relaxed);
    for _ in 0..2 {
        protocol::write_frame(&mut response, &payload).unwrap();
    }
    std::fs::write(dir.join("response.bin"), response).unwrap();
    assert_eq!(check(&dir), Some(3), "the typed refusal, not the generic failure");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_check_fails_on_a_corrupted_golden() {
    let dir = serve_fixture("corrupt");
    let path = dir.join("expected_zi.bin");
    let mut golden = std::fs::read(&path).unwrap();
    golden[0] ^= 1;
    std::fs::write(&path, golden).unwrap();
    assert_eq!(check(&dir), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}
