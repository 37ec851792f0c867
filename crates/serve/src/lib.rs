//! Tape-free compiled inference and a zero-dependency embedding service
//! for frozen TimeDRL encoders (DESIGN.md §13).
//!
//! The training stack runs every forward through the `Var` autograd tape;
//! this crate serves embeddings without one. [`CompiledModel`] loads a
//! `KIND_MODEL` checkpoint container (written by `TimeDrl::export`),
//! resolves all shapes once, and runs the encoder as one straight-line
//! forward with the same packed kernels the tape calls — making its
//! `z_i`/`z_t` bitwise-identical to the eval-mode tape forward while
//! performing **zero heap allocations per request** once the
//! tensor-pool arena is warm.
//!
//! Around that core:
//!
//! - [`protocol`] — a CRC-guarded, length-prefixed frame protocol usable
//!   over any byte stream (stdin/stdout, TCP);
//! - [`EmbedCache`] — an LRU cache of per-window embeddings, keyed by
//!   window hash with exact bit-level confirmation;
//! - [`Batcher`] — adaptive micro-batch coalescing of queued requests;
//! - [`serve_stream`] / [`serve_tcp`] — the two transports behind the
//!   `embed_server` binary. Both run one frame loop; over TCP, each
//!   connection thread hands its decoded windows to the one compute
//!   thread, which warms its own arena and coalesces what is queued.
//!
//! Cache and coalescer are *semantically invisible*: a served byte stream
//! is identical with them on or off (`tests/invisibility.rs`), and every
//! malformed checkpoint or wire frame surfaces as a typed [`ServeError`]
//! rather than a panic (`tests/corruption.rs`).

pub mod batcher;
pub mod cache;
pub mod compiled;
pub mod error;
pub mod protocol;
pub mod server;

pub use batcher::Batcher;
pub use cache::{window_hash, EmbedCache};
pub use compiled::{CompiledModel, Embeddings};
pub use error::{Result, ServeError};
pub use server::{serve_stream, serve_tcp, ServeConfig, ServeStats};
