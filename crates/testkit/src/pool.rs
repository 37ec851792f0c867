//! A from-scratch, zero-dependency scoped thread pool with *deterministic
//! chunked fan-out* — the workspace's parallel compute runtime.
//!
//! # The determinism contract
//!
//! Every parallel entry point in this repository must produce results that
//! are **bit-identical** to a single-threaded run (`TIMEDRL_THREADS=1` ≡
//! `TIMEDRL_THREADS=N`). The pool guarantees this structurally:
//!
//! 1. **Fixed decomposition.** Work is split into consecutive, index-ordered
//!    chunks whose boundaries depend only on the input size and a chunk
//!    length chosen by the caller — never on the thread count. The thread
//!    count decides only *which OS thread* executes a chunk.
//! 2. **Disjoint outputs.** Each chunk owns an exclusive `&mut` slice of the
//!    output; no two workers ever write the same element, so no
//!    synchronization (and no nondeterministic interleaving) touches data.
//! 3. **No cross-chunk reductions inside the pool.** When a caller needs to
//!    combine chunk results (e.g. gradient accumulation), it collects them
//!    via [`map_indexed`] — which preserves chunk order — and reduces on the
//!    calling thread in ascending chunk index. The floating-point reduction
//!    order is therefore a pure function of the input, not of scheduling.
//!
//! Kernels keep their *per-element* accumulation order identical to the
//! serial kernel (chunking by output rows/batch entries never reorders the
//! additions that produce any single element), so serial ≡ parallel holds
//! bit-for-bit, not just approximately.
//!
//! # Scheduling
//!
//! Workers are `std::thread::scope` threads spawned per call: chunks are
//! dealt round-robin to `min(num_threads, n_chunks)` workers at spawn time
//! (static assignment — uniform chunks need no work stealing). A thread
//! spawn costs tens of microseconds, so kernels gate the parallel path on a
//! work estimate via [`should_parallelize`]; below the cutoff they pass a
//! chunk length covering the whole slice and the pool runs inline on the
//! calling thread. Workers that panic propagate the panic to the caller
//! when the scope joins.
//!
//! Nested use from inside a worker never deadlocks: a worker thread that
//! calls back into the pool runs the nested work inline (see
//! [`in_worker`]).
//!
//! # Knobs
//!
//! - `TIMEDRL_THREADS` (environment, read once) — worker count; defaults to
//!   the machine's available parallelism.
//! - [`with_threads`] — scoped, thread-local override (tests and benches
//!   compare thread counts inside one process).
//! - [`with_grain`] — scoped override of the work-per-chunk target so tests
//!   can force fine-grained fan-out on inputs far below the production
//!   cutoff.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Hard upper bound on worker threads (a safety clamp for absurd
/// `TIMEDRL_THREADS` values, not a tuning parameter).
pub const MAX_THREADS: usize = 256;

/// A kernel fans out only when its total work covers at least this many
/// grains; fewer would leave spawned threads idle or dominated by spawn
/// cost.
pub const MIN_PAR_CHUNKS: usize = 4;

thread_local! {
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static GRAIN_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// The worker-thread count in effect on this thread: the innermost
/// [`with_threads`] override, else `TIMEDRL_THREADS`, else the machine's
/// available parallelism. Always at least 1.
pub fn num_threads() -> usize {
    if let Some(n) = THREADS_OVERRIDE.with(Cell::get) {
        return n.clamp(1, MAX_THREADS);
    }
    *ENV_THREADS.get_or_init(|| {
        let from_env = std::env::var("TIMEDRL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        let n = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        });
        n.clamp(1, MAX_THREADS)
    })
}

/// True while executing inside a pool worker. Nested pool calls check this
/// and run inline, so a kernel that itself uses the pool can be called from
/// a parallel region without deadlock or thread explosion.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

struct CellRestore {
    cell: &'static std::thread::LocalKey<Cell<Option<usize>>>,
    prev: Option<usize>,
}

impl Drop for CellRestore {
    fn drop(&mut self) {
        let prev = self.prev;
        self.cell.with(|c| c.set(prev));
    }
}

/// Runs `f` with the worker-thread count pinned to `n` on this thread
/// (nestable; restored on exit, including by panic). Parallel regions
/// entered by `f` use exactly `n` workers regardless of `TIMEDRL_THREADS`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREADS_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = CellRestore { cell: &THREADS_OVERRIDE, prev };
    f()
}

/// Runs `f` with the work-per-chunk target pinned to `grain` work units
/// (nestable; restored on exit). Shrinking the grain forces kernels to
/// fan out — and to split into many chunks — on inputs far below their
/// production cutoffs, which is how the determinism suite exercises the
/// multi-chunk code paths on test-sized data.
pub fn with_grain<R>(grain: usize, f: impl FnOnce() -> R) -> R {
    let prev = GRAIN_OVERRIDE.with(|c| c.replace(Some(grain.max(1))));
    let _restore = CellRestore { cell: &GRAIN_OVERRIDE, prev };
    f()
}

/// The work-per-chunk target in effect: the innermost [`with_grain`]
/// override, else the caller's `default`. Units are caller-defined (the
/// kernels use multiply-adds or elements); the same value scales both the
/// fan-out cutoff and the per-chunk work.
pub fn grain(default: usize) -> usize {
    GRAIN_OVERRIDE.with(Cell::get).unwrap_or(default).max(1)
}

/// Decides whether a kernel with `cost` total work units (against a
/// `default_grain` per-chunk target) should take its parallel path.
///
/// False when this thread is already a pool worker, when only one thread is
/// configured, or when the work would not fill [`MIN_PAR_CHUNKS`] chunks.
/// The decision gates *scheduling only* — both paths compute bit-identical
/// results — so it may consult the thread count without breaking the
/// determinism contract.
pub fn should_parallelize(cost: usize, default_grain: usize) -> bool {
    !in_worker()
        && num_threads() > 1
        && cost >= grain(default_grain).saturating_mul(MIN_PAR_CHUNKS)
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// chunk may be shorter) and calls `f(start_offset, chunk)` for each, where
/// `start_offset` is the chunk's position in `data`.
///
/// Chunks are executed in index order on the calling thread when a single
/// worker suffices (one chunk, one configured thread, or a nested call from
/// a worker), otherwise dealt round-robin to scoped worker threads. Every
/// chunk is an exclusive sub-slice, so workers never alias. A panic in any
/// worker propagates to the caller after all workers have joined.
pub fn for_each_chunk<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "for_each_chunk: chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = num_threads().min(n_chunks);
    if workers <= 1 || in_worker() {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci * chunk_len, chunk);
        }
        return;
    }
    // Static round-robin assignment: chunk i goes to worker i % workers.
    // Deterministic results do not depend on this choice (chunks are
    // independent); it only balances load.
    let mut lanes: Vec<Vec<(usize, &mut [T])>> = Vec::with_capacity(workers);
    lanes.resize_with(workers, Vec::new);
    for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
        lanes[ci % workers].push((ci * chunk_len, chunk));
    }
    let f = &f;
    // Each worker is a fresh thread: its whole allocation count belongs to
    // this call, and is credited to the calling thread once all have joined.
    let worker_allocs = &AtomicU64::new(0);
    std::thread::scope(|scope| {
        for lane in lanes {
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for (offset, chunk) in lane {
                    f(offset, chunk);
                }
                let own = crate::alloc::thread_allocation_count();
                worker_allocs.fetch_add(own, Ordering::Relaxed);
            });
        }
    });
    crate::alloc::credit(worker_allocs.load(Ordering::Relaxed));
}

/// Applies `f(index, &item)` to every item, in parallel, returning results
/// in item order. The coarse-grained companion to [`for_each_chunk`]: each
/// item is one chunk of work (e.g. one micro-batch of a training step), and
/// the returned `Vec` preserves index order so the caller can reduce it
/// deterministically.
pub fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for_each_chunk(&mut out, 1, |i, slot| {
        slot[0] = Some(f(i, &items[i]));
    });
    out.into_iter().map(|r| r.expect("pool worker filled every slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_input_is_a_no_op() {
        let mut data: Vec<u32> = Vec::new();
        // Must not panic, spawn, or call f — even with chunk_len 0 the
        // empty check wins.
        for_each_chunk(&mut data, 0, |_, _| panic!("called on empty input"));
        let out: Vec<u32> = map_indexed(&data, |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_on_nonempty_input_panics() {
        let mut data = vec![1u8];
        for_each_chunk(&mut data, 0, |_, _| {});
    }

    #[test]
    fn chunk_len_larger_than_input_runs_one_chunk() {
        let mut data = vec![0u32; 5];
        let calls = std::sync::atomic::AtomicUsize::new(0);
        for_each_chunk(&mut data, 100, |offset, chunk| {
            assert_eq!(offset, 0);
            assert_eq!(chunk.len(), 5);
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            for v in chunk.iter_mut() {
                *v = 7;
            }
        });
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(data, vec![7; 5]);
    }

    #[test]
    fn offsets_and_boundaries_are_index_ordered() {
        for threads in [1usize, 2, 4] {
            let mut data = vec![0usize; 10];
            with_threads(threads, || {
                for_each_chunk(&mut data, 3, |offset, chunk| {
                    assert!(matches!(offset, 0 | 3 | 6 | 9));
                    assert_eq!(chunk.len(), if offset == 9 { 1 } else { 3 });
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = offset + i;
                    }
                });
            });
            let expect: Vec<usize> = (0..10).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        let compute = |threads: usize| -> Vec<f32> {
            let mut out = vec![0.0f32; 1000];
            with_threads(threads, || {
                for_each_chunk(&mut out, 17, |offset, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        let x = (offset + i) as f32;
                        *v = (x * 0.37).sin() * (x * 0.11).cos() + x.sqrt();
                    }
                });
            });
            out
        };
        let serial = compute(1);
        for threads in [2usize, 3, 4, 8] {
            assert_eq!(serial, compute(threads), "threads={threads}");
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        let out = with_threads(4, || map_indexed(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        }));
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_pool_use_runs_inline_without_deadlock() {
        let mut outer = vec![0usize; 8];
        with_threads(4, || {
            for_each_chunk(&mut outer, 2, |offset, chunk| {
                assert!(in_worker(), "outer closure must run on a worker");
                // Nested call from a worker: must complete inline.
                let inner = map_indexed(&[10usize, 20, 30], |i, &v| v + i);
                assert_eq!(inner, vec![10, 21, 32]);
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = offset + i + inner[0];
                }
            });
        });
        let expect: Vec<usize> = (0..8).map(|i| i + 10).collect();
        assert_eq!(outer, expect);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u32; 8];
            with_threads(2, || {
                for_each_chunk(&mut data, 2, |offset, _| {
                    if offset == 4 {
                        panic!("boom in worker");
                    }
                });
            });
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn overrides_nest_and_restore() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(5, || assert_eq!(num_threads(), 5));
            assert_eq!(num_threads(), 3);
            with_grain(64, || {
                assert_eq!(grain(1 << 18), 64);
                assert!(should_parallelize(64 * MIN_PAR_CHUNKS, 1 << 18));
                assert!(!should_parallelize(64 * MIN_PAR_CHUNKS - 1, 1 << 18));
            });
            assert_eq!(grain(1 << 18), 1 << 18);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn override_restored_after_panic() {
        let before = num_threads();
        let _ = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("unwind through override"));
        });
        assert_eq!(num_threads(), before);
    }

    #[test]
    fn should_parallelize_is_false_inside_workers() {
        with_threads(2, || {
            let mut data = vec![0u8; 4];
            for_each_chunk(&mut data, 1, |_, _| {
                assert!(!should_parallelize(usize::MAX / 8, 1));
            });
        });
    }
}
