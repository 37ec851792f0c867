//! Allocation-regression probe for CI: prints the steady-state heap
//! allocation count of one whole-batch pre-training step.
//!
//! `ci.sh` runs this with `TIMEDRL_THREADS=1` (so the count does not
//! depend on how many pool workers the host spawns) and fails if the
//! number exceeds the committed budget. The seed code allocated on the
//! order of tens of thousands of blocks per step; with the tensor buffer
//! pool the steady state must stay near-allocation-free (DESIGN.md §10).
//!
//! Output: a single line `allocs_per_step=<N>` for the gate to parse.

use timedrl_bench::StepHarness;

fn main() {
    let mut harness = StepHarness::new();
    // Two warm-up steps fill the pool buckets; average over several
    // measured steps so a one-off bucket growth doesn't dominate.
    let per_step = harness.allocations_per_step(2, 8);
    println!("allocs_per_step={per_step}");
}
