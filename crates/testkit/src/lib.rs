//! # testkit — the workspace's zero-dependency build & test substrate
//!
//! Everything that used to come from crates.io lives here, implemented on
//! pure `std` so the whole workspace builds and tests with an empty cargo
//! registry and no network:
//!
//! - [`rng`] — a seeded SplitMix64/xoshiro256++ PRNG with uniform, normal,
//!   integer, and permutation sampling (replaces `rand`). This is the
//!   *production* randomness source: `timedrl_tensor::Prng` wraps it, so
//!   every experiment in the repo is bit-reproducible given its seed.
//! - [`mod@prop`] + the [`prop!`] macro — a minimal property-testing harness
//!   (replaces `proptest`): generator combinators, a fixed default seed
//!   derived per test, and seeded shrinking-free replay via the
//!   `TESTKIT_SEED` environment variable.
//! - [`json`] — a small JSON value type with writer and parser (replaces
//!   `serde`/`serde_json`), plus the [`impl_to_json!`] macro standing in
//!   for `#[derive(Serialize)]` on result-record structs.
//! - [`mod@bench`] — a wall-clock benchmark runner (warmup + N samples +
//!   min/median/p95 report) that replaces the `criterion` benches.
//! - [`mod@crc32`] — CRC-32 (IEEE) checksums guarding the checkpoint container
//!   format in `timedrl-tensor::serialize` against torn writes and bit rot.
//! - [`pool`] — a scoped thread pool with deterministic chunked fan-out
//!   (replaces `rayon`): fixed, index-ordered chunks writing to disjoint
//!   output slices, so parallel results are bit-identical to serial ones
//!   (`TIMEDRL_THREADS=1` ≡ `TIMEDRL_THREADS=N`). The tensor, nn, and
//!   trainer hot paths all fan out through it.
//!
//! The zero-dependency policy is deliberate: the tier-1 verify
//! (`cargo build --release && cargo test -q`) must pass on an offline
//! machine, so the substrate that generates randomness and checks
//! properties has to live in-repo. See DESIGN.md §7.

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod crc32;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;

pub use bench::{paired, Bench, BenchConfig, PairedReport};
pub use crc32::{crc32, Crc32};
pub use json::{Json, ToJson};
pub use rng::{SplitMix64, TestRng};

/// Workspace-wide counting allocator: every binary that links `testkit`
/// (all of them) can measure heap-allocation counts via [`alloc`]. See
/// DESIGN.md §10 — the steady-state training step is gated on this number.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
