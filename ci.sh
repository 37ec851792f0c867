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

echo "== determinism probe: checkpoint byte-equality across thread counts =="
# A tiny data-parallel pretrain must serialize identically no matter how
# many pool workers ran it (see DESIGN.md, deterministic parallelism).
cargo build --release --offline -p timedrl-bench --bin pretrain_checkpoint
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
TIMEDRL_THREADS=1 ./target/release/pretrain_checkpoint "$probe_dir/ckpt_t1.bin"
TIMEDRL_THREADS=4 ./target/release/pretrain_checkpoint "$probe_dir/ckpt_t4.bin"
if ! cmp "$probe_dir/ckpt_t1.bin" "$probe_dir/ckpt_t4.bin"; then
    echo "FAIL: pretrain checkpoint differs between TIMEDRL_THREADS=1 and 4"
    exit 1
fi
echo "ok: checkpoints byte-identical"

echo "== kill-and-resume gate: checkpoint resume is bit-exact =="
# Crash-safe checkpointing (DESIGN.md §11): 4 epochs straight vs 2 epochs +
# training-state snapshot + resume for 2 in a *separate process* must yield
# byte-identical final model checkpoints, at any thread count.
cargo build --release --offline -p timedrl-bench --bin resume_probe
for threads in 1 4; do
    export TIMEDRL_THREADS=$threads
    ./target/release/resume_probe straight "$probe_dir/straight_t$threads.bin"
    ./target/release/resume_probe phase1 "$probe_dir/state_t$threads.tdrl"
    ./target/release/resume_probe phase2 "$probe_dir/state_t$threads.tdrl" "$probe_dir/resumed_t$threads.bin"
    if ! cmp "$probe_dir/straight_t$threads.bin" "$probe_dir/resumed_t$threads.bin"; then
        echo "FAIL: resumed checkpoint differs from straight run at TIMEDRL_THREADS=$threads"
        exit 1
    fi
done
unset TIMEDRL_THREADS
echo "ok: resumed runs byte-identical to uninterrupted runs (threads 1 and 4)"

echo "== allocation budget: steady-state training step =="
# The tensor buffer pool and the inline autograd tape keep a steady-state
# whole-batch training step near-allocation-free (DESIGN.md §10). The seed
# code performed 8944 heap allocations per step; the transpose-aware
# backward (DESIGN.md §12) brought the steady state down to 416, fused
# attention (DESIGN.md §17) to 376, and the budget below is that
# measurement plus ~10% headroom. Measured at TIMEDRL_THREADS=1 so the
# count does not depend on how many pool workers the host spawns.
ALLOC_BUDGET=415
cargo build --release --offline -p timedrl-bench --bin step_alloc_probe
alloc_line=$(TIMEDRL_THREADS=1 ./target/release/step_alloc_probe)
allocs=${alloc_line#allocs_per_step=}
echo "steady-state allocations/step: $allocs (budget $ALLOC_BUDGET, seed baseline 8944)"
if [ "$allocs" -gt "$ALLOC_BUDGET" ]; then
    echo "FAIL: training step allocates $allocs blocks/step, budget is $ALLOC_BUDGET"
    exit 1
fi
echo "ok: allocation budget held"

echo "== fused-attention gate: bitwise parity + speedup over materialized path =="
# The fused tiled attention kernel (DESIGN.md §17) replaced the composed
# matmul_t -> scale -> mask -> softmax -> matmul chain on every hot path.
# The probe proves forward AND backward bit-identical to that chain at
# pool thread counts 1 and 4, then requires a >=1.5x median speedup over
# the materialized [B*H, T, T] path at T=256.
cargo build --release --offline -p timedrl-bench --bin attn_probe
attn_out=$(TIMEDRL_THREADS=1 ./target/release/attn_probe)
echo "$attn_out"
if ! echo "$attn_out" | grep -q '^parity=ok$'; then
    echo "FAIL: fused attention diverged bitwise from the materialized path"
    exit 1
fi
echo "ok: fused attention bit-exact and fast enough"

echo "== serving gate: compiled inference parity + zero allocs/request =="
# The tape-free serving path (DESIGN.md §13): export a fixture model, run
# the real embed_server binary over its stdin/stdout frame protocol, then
# verify (a) the compiled forward is byte-identical to the tape-path
# golden outputs, (b) every server response carries those same bytes, and
# (c) a warmed request performs zero heap allocations. TIMEDRL_THREADS=1
# so the count does not depend on how many pool workers the host spawns.
cargo build --release --offline -p timedrl-serve --bin embed_server --bin serve_probe
serve_dir="$probe_dir/serve"
TIMEDRL_THREADS=1 ./target/release/serve_probe prepare "$serve_dir"
TIMEDRL_THREADS=1 ./target/release/embed_server --stdio "$serve_dir/model.tdrl" \
    < "$serve_dir/request.bin" > "$serve_dir/response.bin"
check_out=$(TIMEDRL_THREADS=1 ./target/release/serve_probe check "$serve_dir")
echo "$check_out"
allocs=$(echo "$check_out" | sed -n 's/^allocs_per_request=//p')
if [ "$allocs" != "0" ]; then
    echo "FAIL: warmed embedding request allocates $allocs blocks, budget is 0"
    exit 1
fi
echo "ok: serving path bit-exact and allocation-free"

echo "== quantized-serving gate: relaxed tier quality + typed refusal =="
# The relaxed exactness tier (DESIGN.md §15): int8 quantized serving must
# not change downstream answers. The probe fits the paper's linear
# readouts on exact- and relaxed-tier embeddings of one dataset and
# requires classification accuracy and forecast MSE to agree within ε,
# plus the zero-allocation steady state on the relaxed path.
cargo build --release --offline -p timedrl-bench --bin quant_probe
quant_out=$(TIMEDRL_THREADS=1 ./target/release/quant_probe)
echo "$quant_out"
if ! echo "$quant_out" | grep -q '^quality=ok$'; then
    echo "FAIL: relaxed tier drifted beyond the quality budget"
    exit 1
fi
# A relaxed server's responses are only ε-comparable: the byte-exact
# golden gate must *refuse* them with the typed precision-mismatch error
# rather than report a spurious byte diff.
cp "$serve_dir/response.bin" "$serve_dir/response_exact.bin"
TIMEDRL_THREADS=1 ./target/release/embed_server --stdio --precision relaxed \
    "$serve_dir/model.tdrl" < "$serve_dir/request.bin" > "$serve_dir/response.bin"
if refusal=$(TIMEDRL_THREADS=1 ./target/release/serve_probe check "$serve_dir" 2>&1); then
    echo "FAIL: serve_probe byte-compared a relaxed response against exact goldens"
    exit 1
fi
if ! echo "$refusal" | grep -q "precision mismatch"; then
    echo "FAIL: relaxed refusal was not the typed precision-mismatch error:"
    echo "$refusal"
    exit 1
fi
cp "$serve_dir/response_exact.bin" "$serve_dir/response.bin"
# The exact tier must be untouched by the quantized kernels landing:
# re-run the strict bitwise parity suite as part of this gate.
TIMEDRL_THREADS=1 cargo test --offline -q -p timedrl-serve --test parity
echo "ok: relaxed tier within quality budget, exact tier still bitwise, refusal typed"

echo "== streaming gate: tick-by-tick equivalence + zero allocs/tick =="
# The streaming engine (DESIGN.md §14): the equivalence property suite
# must prove the incremental path matches the batch path — bitwise on
# exact-stats hops, within ε between — at multiple thread counts, and a
# warmed steady-state tick must perform zero heap allocations (measured
# at TIMEDRL_THREADS=1, so no pool-worker spawns are counted).
for threads in 1 4; do
    echo "-- equivalence suite (TIMEDRL_THREADS=$threads) --"
    TIMEDRL_THREADS=$threads cargo test --offline -q -p timedrl-stream --test equivalence
done
cargo build --release --offline -p timedrl-stream --bin stream_probe
stream_out=$(TIMEDRL_THREADS=1 ./target/release/stream_probe)
echo "$stream_out"
allocs=$(echo "$stream_out" | sed -n 's/^allocs_per_tick=//p')
if [ "$allocs" != "0" ]; then
    echo "FAIL: warmed streaming tick allocates $allocs blocks, budget is 0"
    exit 1
fi
if ! echo "$stream_out" | grep -q '^equivalence=ok$'; then
    echo "FAIL: stream_probe did not confirm batch equivalence"
    exit 1
fi
echo "ok: streaming path matches the batch path and is allocation-free"

echo "== sharded-pretraining gate: multi-process determinism + crash recovery =="
# Out-of-core sharded pretraining (DESIGN.md §16): N worker *processes*
# exchanging gradients through atomic checkpoint files must produce a
# final checkpoint byte-identical to the single-process run at workers
# {1, 2, 4}, and killing a worker mid-run (follower AND coordinator) then
# respawning it must recover to the same bytes.
cargo build --release --offline -p timedrl-bench --bin shard_probe
shard_dir="$probe_dir/shards"
./target/release/shard_probe prepare "$shard_dir"
for n in 1 2 4; do
    ./target/release/shard_probe run "$shard_dir" "$probe_dir/shard_run$n" "$n" "$probe_dir/shard_final$n.tdrl"
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
    ./target/release/shard_probe crash "$shard_dir" "$probe_dir/shard_crash$victim" 2 "$victim" "$probe_dir/shard_crash_final$victim.tdrl"
    if ! cmp "$probe_dir/shard_final1.tdrl" "$probe_dir/shard_crash_final$victim.tdrl"; then
        echo "FAIL: kill-and-resume of worker $victim diverged from the uninterrupted run"
        exit 1
    fi
done
echo "ok: sharded runs recover bit-exactly from a killed follower and a killed coordinator"

echo "== CI green =="
