#!/usr/bin/env bash
# Tier-1 CI: offline build + full test suite + zero-dependency policy check.
#
# The workspace must build and test with NO network and NO crates.io
# registry: every dependency in every crate manifest is a `path`
# dependency inside this repository. This script is the enforcement
# point — it fails if any manifest acquires a registry dependency.
set -euo pipefail
cd "$(dirname "$0")"

echo "== zero-dependency policy =="
# Inspect every [dependencies]/[dev-dependencies]/[build-dependencies]
# section; each entry must carry `path =` or `workspace = true` (the
# workspace table itself is path-only, checked below).
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml; do
    deps=$(awk '
        /^\[(workspace\.)?(dependencies|dev-dependencies|build-dependencies)\]/ { on=1; next }
        /^\[/ { on=0 }
        on && NF && $0 !~ /^#/ { print FILENAME ": " $0 }
    ' "$manifest")
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        if ! echo "$line" | grep -Eq 'path *=|workspace *= *true'; then
            echo "registry dependency found -> $line"
            bad=1
        fi
    done <<< "$deps"
done
if [ "$bad" -ne 0 ]; then
    echo "FAIL: non-path dependencies detected (zero-dependency policy, README.md)"
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== benches: compile only =="
# `cargo test` builds no bench target, so a library API the benches use
# could disappear without any other step noticing. This runs nothing.
cargo build --release --offline --benches

echo "== rustdoc: no warnings =="
# Deleting or renaming an item leaves doc links that name it dangling, and
# no build or test step reads doc comments. This fails on any rustdoc
# warning, broken or ambiguous intra-doc links included.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== tests (TIMEDRL_THREADS=1) =="
TIMEDRL_THREADS=1 cargo test --offline -q

echo "== tests (TIMEDRL_THREADS=4) =="
TIMEDRL_THREADS=4 cargo test --offline -q

echo "== benchmark package: build + tests =="
# perfbench is a package of its own (not a workspace member), so the
# workspace build above never compiles it; it pins public trainer APIs
# (run_shard_worker_with, ShardTrainPlan, gather_rows, the pretext losses).
# Its build output goes under target/, never under perfbench/.
CARGO_TARGET_DIR=target/perfbench cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== CI probes: build =="
# One binary, one subcommand per gate (crates/bench/src/bin/probe.rs). Each
# subcommand checks its own budgets and reports through its exit code:
# 0 pass, 1 a failed check, 2 a usage error, 3 the typed precision-mismatch
# refusal. No gate below reads a probe's stdout.
cargo build --release --offline -p timedrl-bench --bin probe
cargo build --release --offline -p timedrl-serve --bin embed_server
probe=./target/release/probe
probe_dir=$(mktemp -d)
server_pid=
# Every exit path, a signal included, stops a background server and removes
# the scratch directory.
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$probe_dir"' EXIT
trap 'exit 130' INT TERM HUP

echo "== determinism probe: checkpoint byte-equality across thread counts =="
# A tiny data-parallel pretrain must serialize identically no matter how
# many pool workers ran it (see DESIGN.md, deterministic parallelism).
TIMEDRL_THREADS=1 $probe pretrain_checkpoint "$probe_dir/ckpt_t1.bin"
TIMEDRL_THREADS=4 $probe pretrain_checkpoint "$probe_dir/ckpt_t4.bin"
if ! cmp "$probe_dir/ckpt_t1.bin" "$probe_dir/ckpt_t4.bin"; then
    echo "FAIL: pretrain checkpoint differs between TIMEDRL_THREADS=1 and 4"
    exit 1
fi
echo "ok: checkpoints byte-identical"

echo "== training-bits digest: checkpoint bytes match the committed value =="
# The other probes compare runs with each other (threads 1 vs 4, resumed vs
# straight), so a kernel change that moves training bits the same way in
# every run passes them. This pins the bytes themselves. Re-record
# CKPT_CKSUM only in a change that alters training bits on purpose, and say
# so in that change's CHANGES.md line.
CKPT_CKSUM="2352549846 20580"
ckpt_cksum=$(cksum < "$probe_dir/ckpt_t1.bin")
echo "TIMEDRL_THREADS=1 pretrain_checkpoint cksum: $ckpt_cksum (committed $CKPT_CKSUM)"
if [ "$ckpt_cksum" != "$CKPT_CKSUM" ]; then
    echo "FAIL: training bits moved: checkpoint cksum differs from the committed value"
    exit 1
fi
echo "ok: training bits match the committed digest"

echo "== kill-and-resume gate: checkpoint resume is bit-exact =="
# Crash-safe checkpointing (DESIGN.md §11): 4 epochs straight vs 2 epochs +
# training-state snapshot + resume for 2 in a *separate process* must yield
# byte-identical final model checkpoints, at any thread count.
for threads in 1 4; do
    export TIMEDRL_THREADS=$threads
    $probe resume straight "$probe_dir/straight_t$threads.bin"
    $probe resume phase1 "$probe_dir/state_t$threads.tdrl"
    $probe resume phase2 "$probe_dir/state_t$threads.tdrl" "$probe_dir/resumed_t$threads.bin"
    if ! cmp "$probe_dir/straight_t$threads.bin" "$probe_dir/resumed_t$threads.bin"; then
        echo "FAIL: resumed checkpoint differs from straight run at TIMEDRL_THREADS=$threads"
        exit 1
    fi
done
unset TIMEDRL_THREADS
echo "ok: resumed runs byte-identical to uninterrupted runs (threads 1 and 4)"

echo "== allocation budget: steady-state training step =="
# The tensor buffer pool and the inline autograd tape keep a steady-state
# whole-batch training step near-allocation-free (DESIGN.md §10); the probe
# holds it to ALLOC_BUDGET (seed baseline 8944). It measures the step on 1
# pool thread and on 2 with every kernel forced to fan out, and fails if the
# 2-thread step allocates more than the 1-thread one: persistent pool
# workers must keep their buffer pools warm between calls.
TIMEDRL_THREADS=1 $probe step_alloc
echo "ok: allocation budget held"

echo "== fused-attention gate: bitwise parity + speedup over materialized path =="
# The fused tiled attention kernel (DESIGN.md §17) replaced the composed
# matmul_t -> scale -> mask -> softmax -> matmul chain on every hot path.
# The probe proves forward AND backward bit-identical to that chain at
# pool thread counts 1 and 4, then requires a >=1.5x median speedup over
# the materialized [B*H, T, T] path at T=256.
TIMEDRL_THREADS=1 $probe attn
echo "ok: fused attention bit-exact and fast enough"

echo "== fused-node gate: LayerNorm and GELU nodes bitwise equal to their composed chains =="
# The fused LayerNorm and GELU tape nodes (DESIGN.md §18) replaced composed
# chains on every path: tape, compiled plan and stream. The probe proves the
# value and every gradient bit-identical to those chains on rank 1-3,
# width-1, odd-width and Fig. 4 shapes, serially and fanned out.
for threads in 1 4; do
    TIMEDRL_THREADS=$threads $probe fused
done
echo "ok: fused LayerNorm and GELU nodes bit-exact"

echo "== serving gate: compiled inference parity + zero allocs/request =="
# The tape-free serving path (DESIGN.md §13): export a fixture model, run
# the real embed_server binary over its stdin/stdout frame protocol, then
# verify (a) the compiled forward is byte-identical to the tape-path
# golden outputs, (b) every server response carries those same bytes,
# (c) a warmed request performs zero heap allocations, and (d) the server
# answers the same requests over TCP with the same bytes.
serve_dir="$probe_dir/serve"
TIMEDRL_THREADS=1 $probe serve prepare "$serve_dir"
TIMEDRL_THREADS=1 ./target/release/embed_server --stdio "$serve_dir/model.tdrl" \
    < "$serve_dir/request.bin" > "$serve_dir/response.bin"
TIMEDRL_THREADS=1 $probe serve check "$serve_dir"
# The same fixture over TCP: both request frames, pipelined on one
# connection, must come back as exactly the stdio response bytes.
TIMEDRL_THREADS=1 ./target/release/embed_server --tcp 127.0.0.1:0 "$serve_dir/model.tdrl" \
    2> "$serve_dir/tcp.log" &
server_pid=$!
port=
for _ in $(seq 300); do
    port=$(sed -n 's/^embed_server: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$serve_dir/tcp.log")
    if [ -n "$port" ] || ! kill -0 "$server_pid" 2>/dev/null; then break; fi
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "FAIL: embed_server --tcp never reported the address it bound"
    cat "$serve_dir/tcp.log"
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$port"
cat "$serve_dir/request.bin" >&3
timeout 30 head -c "$(wc -c < "$serve_dir/response.bin")" <&3 > "$serve_dir/response_tcp.bin"
exec 3<&-
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=
if ! cmp "$serve_dir/response.bin" "$serve_dir/response_tcp.bin"; then
    echo "FAIL: embed_server --tcp answers differ from --stdio on the same requests"
    exit 1
fi
# Re-run the strict bitwise parity suite (tape parity at every batch and
# thread count, and an artifact tagged relaxed serving exact bits).
TIMEDRL_THREADS=1 cargo test --offline -q -p timedrl-serve --test parity
echo "ok: serving path bit-exact and allocation-free"

echo "== streaming gate: tick-by-tick equivalence + zero allocs/tick =="
# The streaming engine (DESIGN.md §14): the equivalence property suite
# must prove the incremental path matches the batch path — bitwise on
# exact-stats hops, within ε between — at multiple thread counts, and a
# warmed steady-state tick must perform zero heap allocations.
for threads in 1 4; do
    echo "-- equivalence suite (TIMEDRL_THREADS=$threads) --"
    TIMEDRL_THREADS=$threads cargo test --offline -q -p timedrl-stream --test equivalence
done
TIMEDRL_THREADS=1 $probe stream
echo "ok: streaming path matches the batch path and is allocation-free"

echo "== sharded-pretraining gate: multi-process determinism + crash recovery =="
# Out-of-core sharded pretraining (DESIGN.md §16): N worker *processes*
# exchanging gradients through atomic checkpoint files must produce a
# final checkpoint byte-identical to the single-process run at workers
# {1, 2, 4}, and killing a worker mid-run (follower AND coordinator) then
# respawning it must recover to the same bytes.
shard_dir="$probe_dir/shards"
$probe shard prepare "$shard_dir"
for n in 1 2 4; do
    $probe shard run "$shard_dir" "$probe_dir/shard_run$n" "$n" "$probe_dir/shard_final$n.tdrl"
done
for n in 2 4; do
    if ! cmp "$probe_dir/shard_final1.tdrl" "$probe_dir/shard_final$n.tdrl"; then
        echo "FAIL: $n-worker sharded checkpoint differs from the single-process run"
        exit 1
    fi
done
echo "ok: sharded checkpoints byte-identical at workers 1, 2, 4"
# Kill-and-resume across real process boundaries: a follower (worker 1),
# then the coordinator (worker 0), each killed at optimizer step 2.
for victim in 1 0; do
    $probe shard crash "$shard_dir" "$probe_dir/shard_crash$victim" 2 "$victim" "$probe_dir/shard_crash_final$victim.tdrl"
    if ! cmp "$probe_dir/shard_final1.tdrl" "$probe_dir/shard_crash_final$victim.tdrl"; then
        echo "FAIL: kill-and-resume of worker $victim diverged from the uninterrupted run"
        exit 1
    fi
done
echo "ok: sharded runs recover bit-exactly from a killed follower and a killed coordinator"

echo "== CI green =="
