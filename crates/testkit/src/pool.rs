//! A from-scratch, zero-dependency persistent thread pool with *deterministic
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
//! The pool is persistent. Its workers are OS threads created on first
//! need, one per lane beyond the first, up to `num_threads() - 1` of the
//! largest thread count any call has asked for (clamped by
//! [`MAX_THREADS`]), and parked on a `Mutex` + `Condvar` between calls. A
//! parallel call runs `min(num_threads, n_chunks)` lanes: the calling
//! thread runs one itself and wakes one parked worker per other lane, so a
//! 2-thread call wakes one worker and spawns nothing. Each lane claims the
//! next unclaimed chunk index from a shared counter until none is left, so
//! a worker that wakes late (the host's other tenants hold its core) costs
//! no more than the chunks it actually runs. Once its own lane runs dry,
//! the caller withdraws the job from workers that have not picked it up
//! yet and waits only for those that have. A wake-up costs microseconds
//! rather than a thread spawn, but kernels still gate the parallel path on
//! a work estimate via [`should_parallelize`]; below the cutoff they pass a
//! chunk length covering the whole slice and the pool runs inline on the
//! calling thread.
//!
//! One caller owns the workers at a time. A thread that calls in while
//! another owns them (tests running in parallel, in-process shard workers)
//! runs all of its chunks inline instead: the same bits, and it never
//! blocks on the other region.
//!
//! A panicking chunk is caught on the thread that ran it; once every lane
//! has returned, the panic is re-raised on the caller with its original
//! payload. The worker survives and serves the next call.
//!
//! Nested use from inside a lane never deadlocks: a thread running a lane
//! (worker or caller) runs nested pool calls inline (see [`in_worker`]).
//!
//! # Knobs
//!
//! - `TIMEDRL_THREADS` (environment, read once) — thread count, the caller
//!   included; defaults to the machine's available parallelism.
//! - [`with_threads`] — scoped, thread-local override (tests and benches
//!   compare thread counts inside one process).
//! - [`with_grain`] — scoped override of the work-per-chunk target so tests
//!   can force fine-grained fan-out on inputs far below the production
//!   cutoff.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard upper bound on the thread count (a safety clamp for absurd
/// `TIMEDRL_THREADS` values, not a tuning parameter).
pub const MAX_THREADS: usize = 256;

/// A kernel fans out only when its total work covers at least this many
/// grains; below that, waking a worker and waiting for it costs more than
/// the second lane saves.
pub const MIN_PAR_CHUNKS: usize = 4;

thread_local! {
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static GRAIN_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// The thread count (caller included) in effect on this thread: the innermost
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

/// True while this thread runs a lane of a parallel region: always on a
/// pool worker, and on a caller while it runs its own lane. Nested pool
/// calls check this and run inline, so a kernel that itself uses the pool
/// can be called from a parallel region without deadlock or thread
/// explosion.
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

/// Runs `f` with the thread count pinned to `n` on this thread (nestable;
/// restored on exit, including by panic). Parallel regions entered by `f`
/// use up to `n` lanes regardless of `TIMEDRL_THREADS`.
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
/// False when this thread is already running a lane, when only one thread is
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
/// lane suffices (one chunk, one configured thread, or a nested call from
/// a lane), or when another thread owns the workers. Otherwise the caller
/// and up to `num_threads() - 1` parked workers claim chunk indices from a
/// shared counter until all are taken. Every chunk is an exclusive
/// sub-slice, so lanes never alias. A panic in any chunk propagates to the
/// caller after all lanes have returned.
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
    let lanes = num_threads().min(n_chunks);
    if lanes <= 1 || in_worker() {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci * chunk_len, chunk);
        }
        return;
    }
    let Some(owner) = Owner::acquire() else {
        // Another region holds the workers: run every chunk here, as a lane,
        // so nested calls stay inline exactly as they would on a worker.
        let _lane = LaneFlag::set();
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci * chunk_len, chunk);
        }
        return;
    };
    let len = data.len();
    // An `AtomicPtr` only because raw pointers are not `Sync`; it is never
    // stored to, and the job reaches workers through the `STATE` mutex,
    // which orders everything before the post before every lane.
    let base = AtomicPtr::new(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    // The lane runner is defined inside the one `unsafe` block because it
    // both cuts raw sub-slices and is handed to workers with its borrows
    // erased; `lane` itself lives out here, in the caller's frame.
    let lane;
    // SAFETY: workers accept only `'static` jobs, so the erasure below
    // hides the lane runner's borrows of `lane`, `f`, `next` and `data`.
    // That is sound because `owner.run` neither returns nor unwinds while a
    // worker can still call the job: the caller runs its own lane under
    // `catch_unwind`, then withdraws the job under the lock, so no worker
    // picks it up afterwards, and waits for every worker that did pick it
    // up to return. Meanwhile `data` is reached only through the
    // sub-slices the lanes cut from `base`: chunk `ci` lies inside `data`
    // (`start < len`, and its length is at most `len - start`), and
    // `fetch_add` hands each index to exactly one lane, so no two live
    // sub-slices overlap. `T: Send` lets them cross threads, and `F: Sync`
    // lets lanes share `f`.
    let job = unsafe {
        lane = move || {
            let base = base.load(Ordering::Relaxed);
            loop {
                // `Relaxed`: the counter publishes no data, and `fetch_add`
                // alone makes every index unique.
                let ci = next.fetch_add(1, Ordering::Relaxed);
                if ci >= n_chunks {
                    break;
                }
                let start = ci * chunk_len;
                let chunk_len = chunk_len.min(len - start);
                f(start, std::slice::from_raw_parts_mut(base.add(start), chunk_len));
            }
        };
        std::mem::transmute::<&(dyn Fn() + Sync), Job>(&lane)
    };
    owner.run(job, lanes);
}

/// A region's lane runner with its borrows erased: `job()` runs unclaimed
/// chunks until none is left.
type Job = &'static (dyn Fn() + Sync);

/// The workers' shared state; one region at a time owns it (see [`Owner`]).
struct State {
    /// Bumped once per region, so a parked worker can tell a new job from
    /// one it has already run.
    epoch: u64,
    /// The current region's lane runner; `None` once the caller's own lane
    /// has run dry, so no worker picks it up after that.
    job: Option<Job>,
    /// Lanes of the current region, the caller's included: workers `1..lanes`
    /// may pick up the job.
    lanes: usize,
    /// Workers that picked up the current job and have not returned yet.
    pending: usize,
    /// Allocation events the current region's workers performed.
    allocs: u64,
    /// The first panic payload a worker raised in the current region.
    panic: Option<Box<dyn Any + Send>>,
    /// Workers spawned so far; worker `i` (from 1) runs lane `i`.
    workers: usize,
}

static STATE: Mutex<State> = Mutex::new(State {
    epoch: 0,
    job: None,
    lanes: 0,
    pending: 0,
    allocs: 0,
    panic: None,
    workers: 0,
});
/// Parked workers wait here for a new epoch.
static WORK: Condvar = Condvar::new();
/// The owning caller waits here for `pending` to reach zero.
static DONE: Condvar = Condvar::new();
/// Set while some caller owns the workers.
static OWNED: AtomicBool = AtomicBool::new(false);

/// Every critical section runs only field updates that leave `State` valid
/// at each step, never a lane, so even a poisoned lock guards valid data.
fn lock() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Marks the current thread as running a lane, restoring the previous
/// mark on drop (also when the lane unwinds).
struct LaneFlag(bool);

impl LaneFlag {
    fn set() -> Self {
        LaneFlag(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for LaneFlag {
    fn drop(&mut self) {
        let prev = self.0;
        IN_WORKER.with(|w| w.set(prev));
    }
}

/// Exclusive use of the workers for one region.
struct Owner(());

impl Owner {
    /// `Acquire` pairs with the `Release` in `drop`, so a new owner sees
    /// everything the previous one did while it held the workers.
    fn acquire() -> Option<Owner> {
        OWNED
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then(|| Owner(()))
    }

    /// Runs `job` on up to `lanes` lanes: one here, the others on parked
    /// workers (spawning the missing ones once). Returns only after every
    /// worker that picked up the job has returned, then credits the
    /// workers' allocations to this thread and re-raises the first panic.
    fn run(self, job: Job, lanes: usize) {
        let mut st = lock();
        while st.workers + 1 < lanes {
            let lane = st.workers + 1;
            let seen = st.epoch;
            let spawned = std::thread::Builder::new()
                .name(format!("timedrl-pool-{lane}"))
                .spawn(move || worker(lane, seen));
            if spawned.is_err() {
                break;
            }
            st.workers = lane;
        }
        // If the OS refused a thread, fewer lanes claim the same chunks.
        st.epoch += 1;
        st.job = Some(job);
        st.lanes = lanes.min(st.workers + 1);
        st.pending = 0;
        st.allocs = 0;
        st.panic = None;
        drop(st);
        WORK.notify_all();

        let own = {
            let _lane = LaneFlag::set();
            catch_unwind(AssertUnwindSafe(job))
        };

        let mut st = lock();
        st.job = None;
        while st.pending > 0 {
            st = DONE.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let allocs = st.allocs;
        let worker_panic = st.panic.take();
        drop(st);
        drop(self);
        crate::alloc::credit(allocs);
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for Owner {
    fn drop(&mut self) {
        OWNED.store(false, Ordering::Release);
    }
}

/// A worker's life: park until a region with a lane for it is posted, pick
/// up its job unless the caller has withdrawn it, run it, report back, park
/// again. It runs for the life of the process,
/// so nothing joins it; a panic in a lane is caught here and re-raised on
/// the region's caller, so none goes unseen.
fn worker(lane: usize, mut seen: u64) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut st = lock();
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if let (true, Some(job)) = (lane < st.lanes, st.job) {
                        st.pending += 1;
                        break job;
                    }
                }
                st = WORK.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let before = crate::alloc::thread_allocation_count();
        let outcome = catch_unwind(AssertUnwindSafe(job));
        let allocs = crate::alloc::thread_allocation_count() - before;
        let mut st = lock();
        st.allocs += allocs;
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.pending -= 1;
        if st.pending == 0 {
            DONE.notify_one();
        }
    }
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
    fn workers_persist_across_regions() {
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        for _ in 0..200 {
            let ids: Vec<std::thread::ThreadId> = with_threads(2, || {
                map_indexed(&[0u8; 4], |_, _| std::thread::current().id())
            });
            for id in ids {
                if id != caller && !seen.contains(&id) {
                    seen.push(id);
                }
            }
        }
        assert!(seen.len() <= 1, "200 regions ran chunks on {} worker threads", seen.len());
    }

    #[test]
    fn workers_survive_a_panicking_chunk() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let caller = std::thread::current().id();
        let (worker_ran, held) = (AtomicBool::new(false), AtomicBool::new(false));
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                for_each_chunk(&mut [0u32; 8], 1, |_, _| {
                    if std::thread::current().id() != caller {
                        worker_ran.store(true, Ordering::SeqCst);
                        panic!("boom on a worker");
                    }
                    // Hold the caller's first chunk until the worker has
                    // claimed one; bounded, because under contention the
                    // whole region runs inline on this thread.
                    let (first, start) = (!held.swap(true, Ordering::SeqCst), Instant::now());
                    while first
                        && !worker_ran.load(Ordering::SeqCst)
                        && start.elapsed() < Duration::from_millis(500)
                    {
                        std::thread::yield_now();
                    }
                });
            });
        });
        assert_eq!(result.is_err(), worker_ran.load(Ordering::SeqCst));
        let mut data = vec![0usize; 64];
        with_threads(2, || {
            for_each_chunk(&mut data, 3, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (offset + i) * 3;
                }
            });
        });
        assert_eq!(data, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_match_serial() {
        // Each caller's first region waits in its chunk 0 until the other
        // caller's first region reaches its own chunk 0, so the two regions
        // are certain to overlap: one owns the workers, the other runs
        // inline.
        let meet = std::sync::Barrier::new(2);
        let compute = |threads: usize, salt: u32, meet: Option<&std::sync::Barrier>| {
            let mut out = vec![0.0f32; 2048];
            with_threads(threads, || {
                for_each_chunk(&mut out, 31, |offset, chunk| {
                    if let (0, Some(meet)) = (offset, meet) {
                        meet.wait();
                    }
                    for (i, v) in chunk.iter_mut().enumerate() {
                        let x = (offset + i) as f32 + salt as f32;
                        *v = (x * 0.13).sin() * x.sqrt();
                    }
                });
            });
            out
        };
        let serial: Vec<Vec<f32>> = (0..2).map(|salt| compute(1, salt, None)).collect();
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..2u32)
                .map(|salt| {
                    let (compute, meet) = (&compute, &meet);
                    s.spawn(move || {
                        let mut outs = vec![compute(2, salt, Some(meet))];
                        outs.extend((0..50).map(|_| compute(2, salt, None)));
                        outs
                    })
                })
                .collect();
            for (salt, run) in runs.into_iter().enumerate() {
                for got in run.join().expect("caller thread panicked") {
                    assert_eq!(got, serial[salt], "caller {salt}");
                }
            }
        });
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
