//! Size-bucketed buffer pool for `f32` tensor storage.
//!
//! Every [`NdArray`](crate::NdArray) owns its data through a `Buffer`: a
//! `Vec<f32>` that, when dropped, returns to a thread-local free-list
//! instead of the heap. Steady-state training steps therefore recycle the
//! same handful of blocks over and over and perform near-zero new heap
//! allocations (measured by `testkit::alloc`, gated by `ci.sh`; see
//! DESIGN.md §10).
//!
//! Determinism contract: a checked-out buffer is indistinguishable from a
//! fresh `vec![0.0; len]` — `Buffer::zeroed` re-zeroes recycled storage,
//! and `Buffer::with_capacity` hands back a cleared `Vec` for push-style
//! construction.
//! No stale data is ever observable, so warm-pool and cold-pool runs are
//! bit-identical (property-tested in the determinism suite).
//!
//! The pool is thread-local. Worker threads spawned by `testkit::pool`
//! recycle into their own (short-lived) pools; that only affects reuse
//! efficiency, never values. Buffers freed during thread teardown, when
//! the thread-local may already be gone, fall back to a plain heap free.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Buckets are powers of two: bucket `i` stores vectors with
/// `capacity == 1 << i`. 2^27 floats = 512 MiB of f32 — anything larger
/// is not pooled.
const MAX_BUCKET: usize = 27;

/// Per-bucket retention limit. A live autograd graph holds one value and
/// one gradient block per node, and most nodes in a transformer step share
/// a single size class — so the simultaneous-live count per bucket reaches
/// several hundred before the graph drops. The cap must exceed that peak,
/// or the overflow is freed at graph teardown and re-allocated every step.
const MAX_PER_BUCKET: usize = 2048;

/// One size class: its free blocks, and how many blocks the pool has
/// allocated for it. That count is the class's demand high-water mark and
/// caps how many blocks it keeps: blocks that were never the pool's own
/// (wrapped with [`Buffer::from_vec`]) refill the class up to it, but
/// cannot grow it — otherwise a loop that wraps a fresh `Vec` every step
/// would bank one more block per step until the cap above.
#[derive(Default)]
struct Bucket {
    free: Vec<Vec<f32>>,
    allocated: usize,
}

struct Pool {
    buckets: Vec<Bucket>,
    recycled: u64,
    misses: u64,
}

impl Pool {
    fn new() -> Self {
        Self { buckets: Vec::new(), recycled: 0, misses: 0 }
    }

    fn bucket_index(len: usize) -> usize {
        // Smallest power-of-two capacity holding `len` elements.
        len.max(1).next_power_of_two().trailing_zeros() as usize
    }

    fn bucket(&mut self, idx: usize) -> &mut Bucket {
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, Bucket::default);
        }
        &mut self.buckets[idx]
    }

    /// Pops a recycled vector with capacity >= len, or allocates one with
    /// the bucket's power-of-two capacity.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let idx = Self::bucket_index(len);
        if idx > MAX_BUCKET {
            self.misses += 1;
            return Vec::with_capacity(len);
        }
        let bucket = self.bucket(idx);
        match bucket.free.pop() {
            Some(v) => {
                self.recycled += 1;
                v
            }
            None => {
                bucket.allocated += 1;
                self.misses += 1;
                Vec::with_capacity(1usize << idx)
            }
        }
    }

    fn recycle(&mut self, v: Vec<f32>) {
        let cap = v.capacity();
        // Only pool exact power-of-two capacities so `take` can rely on
        // bucket i ⇒ capacity >= 1 << i.
        if cap == 0 || !cap.is_power_of_two() {
            return;
        }
        let idx = cap.trailing_zeros() as usize;
        if idx > MAX_BUCKET {
            return;
        }
        let bucket = self.bucket(idx);
        if bucket.free.len() < bucket.allocated.min(MAX_PER_BUCKET) {
            bucket.free.push(v);
        }
    }

    fn clear(&mut self) {
        self.buckets.clear();
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

fn with_pool<R>(f: impl FnOnce(&mut Pool) -> R) -> Option<R> {
    // `try_with` so drops during thread teardown degrade to plain frees.
    POOL.try_with(|p| f(&mut p.borrow_mut())).ok()
}

/// An `f32` storage block that returns to the thread-local pool on drop.
///
/// Dereferences to `Vec<f32>`, so existing `Vec` code (push, resize,
/// slicing) works unchanged. Cloning copies the data into another pooled
/// block.
#[derive(Default)]
pub(crate) struct Buffer {
    vec: Vec<f32>,
}

impl Buffer {
    /// A pooled buffer of `len` zeros — indistinguishable from
    /// `vec![0.0; len]`.
    pub fn zeroed(len: usize) -> Self {
        Self::filled(len, 0.0)
    }

    /// A pooled buffer of `len` copies of `value` — indistinguishable from
    /// `vec![value; len]`.
    pub fn filled(len: usize, value: f32) -> Self {
        let mut vec = with_pool(|p| p.take(len)).unwrap_or_else(|| Vec::with_capacity(len));
        vec.clear();
        vec.resize(len, value);
        Self { vec }
    }

    /// A pooled, empty buffer with capacity for at least `len` elements,
    /// for push-style construction.
    pub fn with_capacity(len: usize) -> Self {
        let mut vec = with_pool(|p| p.take(len)).unwrap_or_else(|| Vec::with_capacity(len));
        vec.clear();
        Self { vec }
    }

    /// A pooled copy of `src`.
    pub fn copied_from(src: &[f32]) -> Self {
        let mut b = Self::with_capacity(src.len());
        b.vec.extend_from_slice(src);
        b
    }

    /// Wraps an existing `Vec` (e.g. caller-provided data). Its capacity
    /// joins the pool when the buffer drops, if it fits a bucket.
    pub fn from_vec(vec: Vec<f32>) -> Self {
        Self { vec }
    }

    /// Detaches the underlying `Vec` (nothing returns to the pool).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.vec)
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.vec);
        if v.capacity() > 0 {
            with_pool(|p| p.recycle(v));
        }
    }
}

impl Deref for Buffer {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        &self.vec
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.vec
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        Self::copied_from(&self.vec)
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.vec.fmt(f)
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}

/// Drops every buffer retained by this thread's pool (memory-pressure
/// relief and test isolation).
pub fn clear() {
    with_pool(Pool::clear);
}

/// Pre-sizes this thread's pool: deposits `count` blocks able to hold
/// `len` elements each into the matching size bucket. An inference arena
/// built on the pool calls this (or runs one warm-up pass) so that the
/// first real request is already allocation-free; buffers are `Buffer`
/// round-trips, so they behave exactly like recycled storage.
pub fn reserve(len: usize, count: usize) {
    if len == 0 {
        return;
    }
    // Hold all blocks live at once, then drop: each drop routes through
    // `recycle`, so the bucket ends up `count` deep (taking and dropping
    // one at a time would recycle the same block repeatedly).
    let held: Vec<Buffer> = (0..count).map(|_| Buffer::with_capacity(len)).collect();
    drop(held);
}

/// `(recycled, misses)` counters for this thread's pool: checkouts served
/// from the free-list vs. fresh heap allocations.
pub fn stats() -> (u64, u64) {
    with_pool(|p| (p.recycled, p.misses)).unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_storage() {
        clear();
        let b = Buffer::zeroed(100);
        let ptr = b.as_ptr();
        drop(b);
        let b2 = Buffer::zeroed(100);
        assert_eq!(b2.as_ptr(), ptr, "second checkout must reuse the block");
        assert!(b2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recycled_buffers_are_rezeroed() {
        clear();
        let mut b = Buffer::zeroed(16);
        b.iter_mut().for_each(|v| *v = 7.0);
        drop(b);
        let b2 = Buffer::zeroed(16);
        assert!(b2.iter().all(|&v| v == 0.0), "stale data leaked through the pool");
    }

    #[test]
    fn with_capacity_starts_empty() {
        clear();
        let mut b = Buffer::zeroed(8);
        b.iter_mut().for_each(|v| *v = 3.0);
        drop(b);
        let b2 = Buffer::with_capacity(8);
        assert!(b2.is_empty());
        assert!(b2.capacity() >= 8);
    }

    #[test]
    fn bucket_serves_smaller_requests() {
        clear();
        drop(Buffer::zeroed(100)); // capacity 128 -> bucket 7
        let (r0, _) = stats();
        let b = Buffer::zeroed(70); // also bucket 7
        assert!(b.capacity() >= 70);
        let (r1, _) = stats();
        assert_eq!(r1, r0 + 1, "70-element request should hit the 128 bucket");
    }

    #[test]
    fn steady_state_is_allocation_free() {
        clear();
        // Warm the bucket, then check that checkout/return cycles do not
        // touch the heap at all.
        drop(Buffer::zeroed(1000));
        let (_, n) = testkit::alloc::count_allocations(|| {
            for _ in 0..100 {
                let mut b = Buffer::zeroed(1000);
                b[0] = 1.0;
            }
        });
        assert_eq!(n, 0, "warm pool cycles must not allocate, saw {n}");
    }

    #[test]
    fn reserve_makes_subsequent_checkouts_allocation_free() {
        clear();
        reserve(500, 3);
        let (_, n) = testkit::alloc::count_allocations(|| {
            let a = Buffer::zeroed(500);
            let b = Buffer::zeroed(500);
            let c = Buffer::zeroed(400); // same bucket (512)
            (a[0], b[0], c[0])
        });
        assert_eq!(n, 0, "reserved buckets must serve checkouts without the heap, saw {n}");
    }

    #[test]
    fn into_vec_detaches_without_pool_interaction() {
        clear();
        let mut b = Buffer::zeroed(4);
        b[2] = 9.0;
        let v = b.into_vec();
        assert_eq!(v, vec![0.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn foreign_blocks_refill_but_never_grow_a_bucket() {
        clear();
        drop(Buffer::zeroed(64)); // the pool's own block: bucket 6 keeps 1
        for _ in 0..10 {
            drop(Buffer::from_vec(Vec::with_capacity(64)));
        }
        let (r0, m0) = stats();
        let a = Buffer::zeroed(64);
        let b = Buffer::zeroed(64);
        let (r1, m1) = stats();
        assert_eq!((r1 - r0, m1 - m0), (1, 1), "bucket held more than its own demand");
        // Foreign blocks do stand in for own blocks that went missing.
        drop(a.into_vec());
        drop(b);
        drop(Buffer::from_vec(Vec::with_capacity(64)));
        let (r2, m2) = stats();
        let _held = (Buffer::zeroed(64), Buffer::zeroed(64));
        let (r3, m3) = stats();
        assert_eq!((r3 - r2, m3 - m2), (2, 0));
    }

    #[test]
    fn oversized_and_odd_capacities_are_not_pooled() {
        clear();
        // Odd capacity: wrap a Vec whose capacity is not a power of two.
        let mut v = Vec::with_capacity(100);
        v.push(1.0f32);
        drop(Buffer::from_vec(v));
        let (_, m0) = stats();
        let _ = Buffer::zeroed(100); // must miss (bucket 7 is empty)
        let (_, m1) = stats();
        assert_eq!(m1, m0 + 1);
    }
}
