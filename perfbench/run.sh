#!/usr/bin/env bash
# Builds the benchmark and the embed_server binary from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); per-run scratch files go to .bench_work and are
# removed when the run ends. Build messages go to stderr, so the last line
# of stdout is the result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target
cargo build --release --offline -q --manifest-path "$root/perfbench/Cargo.toml" >&2
cargo build --release --offline -q --manifest-path "$root/Cargo.toml" -p timedrl-serve --bin embed_server >&2
exec "$target/release/timedrl-perfbench" \
    --server "$target/release/embed_server" --work-dir "$root/.bench_work" "$@"
