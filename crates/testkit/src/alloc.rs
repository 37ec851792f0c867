//! Counting global allocator: `std::alloc::System` plus relaxed atomic
//! tallies of every allocation.
//!
//! The workspace registers [`CountingAlloc`] as the `#[global_allocator]`
//! (see this crate's `lib.rs`), so every binary that links `testkit` —
//! which is all of them — can ask "how many heap allocations did this
//! region of code perform?". That number is the metric behind the
//! buffer-pool work in `timedrl-tensor`: a steady-state training step is
//! supposed to be near-allocation-free, and `ci.sh` gates on the count
//! (see DESIGN.md §10).
//!
//! Counting costs one relaxed `fetch_add` and one thread-local add per
//! allocation — far below the cost of the allocation itself — so leaving
//! the shim enabled everywhere does not distort the wall-clock benches.
//!
//! Besides the process-wide totals, each thread keeps its own count, to
//! which `testkit::pool` credits the allocations of the workers it joins.
//! [`count_allocations`] reads that count, so a region is charged for
//! exactly the work it ran, at any thread count, and not for whatever
//! other threads (a test harness running tests in parallel) did meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`, `Copy` and without `Drop`: reading it never allocates and
    // stays valid while the thread is torn down, as an allocator needs.
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
}

fn count_event(bytes: u64) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    credit(1);
}

/// A [`GlobalAlloc`] that forwards to [`System`] and counts calls.
///
/// `realloc` counts as one allocation event (it may move the block);
/// `dealloc` is not counted — the pool metric of interest is how many
/// *new* blocks a region requests, not its net balance.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters have no effect on
// the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}


/// Total allocation events since process start (monotonic).
pub fn allocation_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Total bytes requested since process start (monotonic; not reduced by
/// frees).
pub fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Allocation events charged to the calling thread: its own, plus those of
/// every pool worker it has joined (monotonic).
pub(crate) fn thread_allocation_count() -> u64 {
    THREAD_COUNT.with(Cell::get)
}

/// Charges `n` allocation events to the calling thread. `testkit::pool`
/// uses it to hand a joined worker's count to the thread that scheduled it.
pub(crate) fn credit(n: u64) {
    // `try_with` cannot fail for this `const`, drop-free key; it is used
    // so the allocator never risks a panic.
    let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + n));
}

/// Runs `f` and returns its result together with the number of allocation
/// events it performed: on this thread and on the pool workers it
/// scheduled. Allocations by unrelated threads are not counted.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocation_count();
    let out = f();
    (out, thread_allocation_count() - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn counts_a_vec_allocation() {
        let (_, n) = count_allocations(|| std::hint::black_box(Vec::<u64>::with_capacity(32)));
        assert!(n >= 1, "expected at least one allocation, saw {n}");
    }

    #[test]
    fn counts_nothing_for_pure_arithmetic() {
        // Warm any lazily-allocated test machinery first.
        let _ = count_allocations(|| ());
        let (sum, n) = count_allocations(|| (0u64..100).sum::<u64>());
        assert_eq!(sum, 4950);
        assert_eq!(n, 0, "pure arithmetic must not allocate");
    }

    #[test]
    fn other_threads_are_not_charged() {
        let stop = AtomicBool::new(false);
        let rounds = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(Vec::<u64>::with_capacity(8));
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
            // Measure while the other thread is known to be allocating.
            let (_, n) = count_allocations(|| {
                let start = rounds.load(Ordering::Relaxed);
                while rounds.load(Ordering::Relaxed) < start + 100 {
                    std::hint::spin_loop();
                }
            });
            stop.store(true, Ordering::Relaxed);
            assert_eq!(n, 0, "another thread's allocations were charged here");
        });
    }

    #[test]
    fn pool_workers_are_credited_to_the_scheduling_thread() {
        // 8 items × 100 allocations: far more than spawning the workers
        // costs the scheduling thread itself.
        let items = [0u8; 8];
        for threads in [1, 4] {
            let (_, n) = crate::pool::with_threads(threads, || {
                count_allocations(|| {
                    crate::pool::map_indexed(&items, |_, _| {
                        for _ in 0..100 {
                            std::hint::black_box(Vec::<u64>::with_capacity(8));
                        }
                    })
                })
            });
            assert!(n >= 800, "{threads} threads: counted {n}");
        }
    }

    #[test]
    fn bytes_grow_with_allocation_size() {
        let before = allocated_bytes();
        let v = std::hint::black_box(vec![0u8; 1 << 12]);
        assert!(allocated_bytes() - before >= v.len() as u64);
    }
}
