//! [`NdArray`]: a contiguous, row-major, f32 n-dimensional array.
//!
//! This is the numeric workhorse underneath the autograd layer. It favours
//! simplicity and predictability over generality: storage is always
//! contiguous C-order `Vec<f32>`, so every view-producing operation
//! (`transpose`, `slice`, `broadcast_to`, ...) materializes a fresh array,
//! which eliminates the entire class of stride-aliasing bugs. The cost
//! is not free: at the Fig. 4 geometry (33 tokens, d32, batch 32) bias
//! adds, LayerNorm and their gradients are a large share of a training
//! step, so the broadcasting kernels (`zip_map`, `broadcast_to`,
//! `reduce_to_shape`) walk whole innermost-axis runs through a private
//! row walker instead of raveling coordinates per element.

use crate::bufpool::Buffer;
use crate::math;
use crate::error::{Result, TensorError};
use crate::shape::{
    broadcast_shape, broadcast_strides, broadcastable_to, check_axis, numel, ravel,
    row_major_strides, unravel, Dims,
};
use testkit::pool;

/// Work-per-chunk target for parallel elementwise kernels, in elements.
/// Elementwise work is cheap per element, so the grain is large: fanning
/// out below it would be dominated by handing chunks to a pool worker and
/// waiting for it. Chunk boundaries
/// never change per-element results, so the gate affects scheduling only.
pub(crate) const ELEMWISE_GRAIN: usize = 1 << 17;

/// Work-per-chunk target for row-fused kernels (softmax family), in
/// elements; lower than [`ELEMWISE_GRAIN`] because each element costs an
/// `exp`.
pub(crate) const ROWWISE_GRAIN: usize = 1 << 15;

/// A dense, row-major, f32 n-dimensional array.
///
/// The empty shape `[]` denotes a scalar holding exactly one element.
/// Storage draws from the thread-local buffer pool ([`crate::bufpool`]):
/// temporaries created and dropped inside a training step recycle the same
/// blocks instead of hitting the heap, and the shape itself is an inline
/// [`Dims`] (no allocation at rank <= 6). See DESIGN.md §10.
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray {
    shape: Dims,
    data: Buffer,
}

impl NdArray {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates an array from a shape and backing data.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        if numel(shape) != data.len() {
            return Err(TensorError::ShapeDataMismatch { shape: shape.to_vec(), data_len: data.len() });
        }
        Ok(Self { shape: Dims::from(shape), data: Buffer::from_vec(data) })
    }

    /// Creates an array filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self { shape: Dims::from(shape), data: Buffer::filled(numel(shape), value) }
    }

    /// Creates a zero-filled array.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a one-filled array.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        Self { shape: Dims::new(), data: Buffer::filled(1, value) }
    }

    /// Creates a 1-D array from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Self { shape: Dims::from([values.len()]), data: Buffer::copied_from(values) }
    }

    /// Creates an array by evaluating `f` at every flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = numel(shape);
        let mut data = Buffer::with_capacity(n);
        data.extend((0..n).map(&mut f));
        Self { shape: Dims::from(shape), data }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut out = Self::zeros(&[n, n]);
        for i in 0..n {
            out.data[i * n + i] = 1.0;
        }
        out
    }

    /// 1-D array of `n` evenly spaced values from `start` to `end` inclusive.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n >= 2, "linspace needs at least two points");
        let step = (end - start) / (n as f32 - 1.0);
        Self::from_fn(&[n], |i| start + step * i as f32)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The array's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the array, returning its backing data (detached from the
    /// buffer pool).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Reads the element at multi-dimensional coordinates `idx`.
    ///
    /// # Panics
    /// Panics if `idx.len() != self.rank()` or any coordinate is out of range.
    pub fn at(&self, idx: &[usize]) -> f32 {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        for (i, (&c, &d)) in idx.iter().zip(self.shape.iter()).enumerate() {
            assert!(c < d, "index {c} out of bounds for axis {i} of size {d}");
        }
        self.data[ravel(idx, &row_major_strides(&self.shape))]
    }

    /// Writes the element at multi-dimensional coordinates `idx`.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let flat = ravel(idx, &row_major_strides(&self.shape));
        self.data[flat] = value;
    }

    /// Returns the single element of a rank-0 or single-element array.
    ///
    /// # Panics
    /// Panics if the array holds more than one element.
    pub fn to_scalar(&self) -> f32 {
        assert_eq!(self.numel(), 1, "to_scalar on array with {} elements", self.numel());
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a copy with a new shape holding the same elements.
    ///
    /// # Errors
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        if numel(shape) != self.numel() {
            return Err(TensorError::ReshapeMismatch { from: self.shape.to_vec(), to: shape.to_vec() });
        }
        Ok(Self { shape: Dims::from(shape), data: self.data.clone() })
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Self {
        Self { shape: Dims::from([self.numel()]), data: self.data.clone() }
    }

    /// Generalized axis permutation; `axes` must be a permutation of
    /// `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Self {
        assert_eq!(axes.len(), self.rank(), "permutation rank mismatch");
        // Bitmask duplicate check (rank is always < 32): keeps the hot
        // serving path free of a per-call heap allocation.
        let mut seen = 0u32;
        for &a in axes {
            assert!(a < self.rank() && seen & (1 << a) == 0, "axes must be a permutation");
            seen |= 1 << a;
        }
        let new_shape: Dims = axes.iter().map(|&a| self.shape[a]).collect();
        let src_strides = row_major_strides(&self.shape);
        let perm_strides: Dims = axes.iter().map(|&a| src_strides[a]).collect();
        let data = self.gather(&new_shape, &perm_strides);
        Self { shape: new_shape, data }
    }

    /// Swaps the last two axes (matrix transpose for rank >= 2).
    ///
    /// # Panics
    /// Panics on rank < 2.
    pub fn transpose(&self) -> Self {
        assert!(self.rank() >= 2, "transpose requires rank >= 2");
        let mut axes: Vec<usize> = (0..self.rank()).collect();
        let r = self.rank();
        axes.swap(r - 1, r - 2);
        self.permute(&axes)
    }

    /// Inserts a size-1 axis at `axis`.
    pub fn unsqueeze(&self, axis: usize) -> Self {
        assert!(axis <= self.rank(), "unsqueeze axis out of range");
        let mut shape = self.shape.clone();
        shape.insert(axis, 1);
        Self { shape, data: self.data.clone() }
    }

    /// Removes a size-1 axis at `axis`.
    ///
    /// # Panics
    /// Panics if the axis does not have size 1.
    pub fn squeeze(&self, axis: usize) -> Self {
        assert!(axis < self.rank() && self.shape[axis] == 1, "squeeze needs a size-1 axis");
        let mut shape = self.shape.clone();
        shape.remove(axis);
        Self { shape, data: self.data.clone() }
    }

    /// Materializes a broadcast of `self` to `target` shape.
    ///
    /// # Errors
    /// Returns [`TensorError::BroadcastMismatch`] if not broadcastable.
    pub fn broadcast_to(&self, target: &[usize]) -> Result<Self> {
        if !broadcastable_to(&self.shape, target) {
            return Err(TensorError::BroadcastMismatch { lhs: self.shape.to_vec(), rhs: target.to_vec() });
        }
        if self.shape == target {
            return Ok(self.clone());
        }
        let data = self.gather(target, &broadcast_strides(&self.shape, target));
        Ok(Self { shape: Dims::from(target), data })
    }

    /// Materializes `self` read through `strides` over `shape`, row-major:
    /// the data movement behind [`NdArray::permute`] and
    /// [`NdArray::broadcast_to`].
    fn gather(&self, shape: &[usize], strides: &[usize]) -> Buffer {
        let n = numel(shape);
        let walk = RowWalk::new(shape, strides, &row_major_strides(shape));
        let (stride, _) = walk.inner_strides();
        let src = &self.data;
        let mut data = Buffer::with_capacity(n);
        walk.for_each_run(0, n, |_, len, s0, _| match stride {
            1 => data.extend_from_slice(&src[s0..s0 + len]),
            0 => data.extend(std::iter::repeat(src[s0]).take(len)),
            _ => data.extend((0..len).map(|i| src[s0 + i * stride])),
        });
        data
    }

    /// Sums `self` down to `target` shape (the adjoint of `broadcast_to`).
    ///
    /// Used to push gradients of broadcast operands back to their original
    /// shapes.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Self {
        if self.shape == target {
            return self.clone();
        }
        assert!(
            broadcastable_to(target, &self.shape),
            "reduce_to_shape: {target:?} is not broadcastable to {:?}",
            self.shape
        );
        let mut out = NdArray::zeros(target);
        let (dst_strides, src_strides) = (broadcast_strides(target, &self.shape), row_major_strides(&self.shape));
        let walk = RowWalk::new(&self.shape, &dst_strides, &src_strides);
        let (stride, _) = walk.inner_strides();
        let (src, dst) = (&self.data, &mut out.data);
        // Serial, in source order: each output element sums its addends in
        // the order they appear in `self`, whatever the run shapes.
        walk.for_each_run(0, src.len(), |pos, len, d0, _| {
            let src = &src[pos..pos + len];
            match stride {
                1 => {
                    for (o, &v) in dst[d0..d0 + len].iter_mut().zip(src) {
                        *o += v;
                    }
                }
                0 => {
                    let mut acc = dst[d0];
                    for &v in src {
                        acc += v;
                    }
                    dst[d0] = acc;
                }
                _ => {
                    for (i, &v) in src.iter().enumerate() {
                        dst[d0 + i * stride] += v;
                    }
                }
            }
        });
        out
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new array. Large arrays
    /// fan out over the pool in fixed element chunks (bit-exact vs serial).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let n = self.data.len();
        let mut data = Buffer::zeroed(n);
        let chunk_len = if pool::should_parallelize(n, ELEMWISE_GRAIN) {
            pool::grain(ELEMWISE_GRAIN)
        } else {
            n.max(1)
        };
        let src = &self.data;
        pool::for_each_chunk(&mut data, chunk_len, |offset, chunk| {
            let len = chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&src[offset..offset + len]) {
                *o = f(v);
            }
        });
        Self { shape: self.shape.clone(), data }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let n = self.data.len();
        let chunk_len = if pool::should_parallelize(n, ELEMWISE_GRAIN) {
            pool::grain(ELEMWISE_GRAIN)
        } else {
            n.max(1)
        };
        pool::for_each_chunk(&mut self.data, chunk_len, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = f(*v);
            }
        });
    }

    /// Broadcasting binary map: `f(self, other)` elementwise over the
    /// broadcast shape. Large outputs fan out over the pool in fixed
    /// element chunks; each chunk walks its own range of rows (starting
    /// mid-row if the chunk boundary falls there), so the parallel result
    /// is bit-identical to the serial one.
    ///
    /// # Errors
    /// Returns [`TensorError::BroadcastMismatch`] if shapes are incompatible.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Self> {
        let chunk_for = |n: usize| {
            if pool::should_parallelize(n, ELEMWISE_GRAIN) {
                pool::grain(ELEMWISE_GRAIN)
            } else {
                n.max(1)
            }
        };
        if self.shape == other.shape {
            // fast path: identical shapes
            let n = self.data.len();
            let mut data = Buffer::zeroed(n);
            let (lhs, rhs) = (&self.data, &other.data);
            pool::for_each_chunk(&mut data, chunk_for(n), |offset, chunk| {
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = f(lhs[offset + i], rhs[offset + i]);
                }
            });
            return Ok(Self { shape: self.shape.clone(), data });
        }
        let out_shape = broadcast_shape(&self.shape, &other.shape)?;
        let walk = RowWalk::new(
            &out_shape,
            &broadcast_strides(&self.shape, &out_shape),
            &broadcast_strides(&other.shape, &out_shape),
        );
        let (sa, sb) = walk.inner_strides();
        let n = numel(&out_shape);
        let mut data = Buffer::zeroed(n);
        let (lhs, rhs) = (&self.data, &other.data);
        pool::for_each_chunk(&mut data, chunk_for(n), |offset, chunk| {
            walk.for_each_run(offset, chunk.len(), |pos, len, a0, b0| {
                let out = &mut chunk[pos - offset..pos - offset + len];
                match (sa, sb) {
                    (1, 1) => {
                        for ((o, &x), &y) in out.iter_mut().zip(&lhs[a0..a0 + len]).zip(&rhs[b0..b0 + len]) {
                            *o = f(x, y);
                        }
                    }
                    (1, 0) => {
                        let y = rhs[b0];
                        for (o, &x) in out.iter_mut().zip(&lhs[a0..a0 + len]) {
                            *o = f(x, y);
                        }
                    }
                    (0, 1) => {
                        let x = lhs[a0];
                        for (o, &y) in out.iter_mut().zip(&rhs[b0..b0 + len]) {
                            *o = f(x, y);
                        }
                    }
                    _ => {
                        for (i, o) in out.iter_mut().enumerate() {
                            *o = f(lhs[a0 + i * sa], rhs[b0 + i * sb]);
                        }
                    }
                }
            });
        });
        Ok(Self { shape: out_shape, data })
    }

    /// Broadcasting addition. Panics on incompatible shapes.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b).expect("add: incompatible shapes")
    }

    /// Broadcasting subtraction. Panics on incompatible shapes.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b).expect("sub: incompatible shapes")
    }

    /// Broadcasting multiplication. Panics on incompatible shapes.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b).expect("mul: incompatible shapes")
    }

    /// Broadcasting division. Panics on incompatible shapes.
    pub fn div(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a / b).expect("div: incompatible shapes")
    }

    /// Adds `other` into `self` in place (shapes must match exactly).
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|v| -v)
    }

    /// Elementwise exponential ([`math::exp`]).
    pub fn exp(&self) -> Self {
        self.map(math::exp)
    }

    /// Elementwise natural log ([`math::ln`]).
    pub fn ln(&self) -> Self {
        self.map(math::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Self {
        self.map(f32::sqrt)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Self {
        self.map(|v| v.powf(p))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty arrays).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    /// Panics on an empty array.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty array");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty array");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sums along `axis`. When `keepdim` the reduced axis stays with size 1,
    /// otherwise it is removed.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Self {
        check_axis(axis, self.rank()).expect("sum_axis: axis out of range");
        let mut out_shape = self.shape.clone();
        out_shape[axis] = 1;
        let outer: usize = self.shape[..axis].iter().product();
        let dim = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = Buffer::zeroed(outer * inner);
        for o in 0..outer {
            for d in 0..dim {
                let base = (o * dim + d) * inner;
                let out_base = o * inner;
                for i in 0..inner {
                    data[out_base + i] += self.data[base + i];
                }
            }
        }
        let mut out = Self { shape: out_shape, data };
        if !keepdim {
            out = out.squeeze(axis);
        }
        out
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Self {
        let dim = self.shape[axis] as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / dim)
    }

    /// Maximum along `axis`.
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Self {
        self.fold_axis(axis, keepdim, f32::NEG_INFINITY, f32::max)
    }

    /// Minimum along `axis`.
    pub fn min_axis(&self, axis: usize, keepdim: bool) -> Self {
        self.fold_axis(axis, keepdim, f32::INFINITY, f32::min)
    }

    fn fold_axis(&self, axis: usize, keepdim: bool, init: f32, f: impl Fn(f32, f32) -> f32) -> Self {
        check_axis(axis, self.rank()).expect("fold_axis: axis out of range");
        let mut out_shape = self.shape.clone();
        out_shape[axis] = 1;
        let outer: usize = self.shape[..axis].iter().product();
        let dim = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = Buffer::filled(outer * inner, init);
        for o in 0..outer {
            for d in 0..dim {
                let base = (o * dim + d) * inner;
                let out_base = o * inner;
                for i in 0..inner {
                    data[out_base + i] = f(data[out_base + i], self.data[base + i]);
                }
            }
        }
        let mut out = Self { shape: out_shape, data };
        if !keepdim {
            out = out.squeeze(axis);
        }
        out
    }

    /// Index of the maximum along the last axis; result drops that axis.
    pub fn argmax_lastdim(&self) -> Vec<usize> {
        assert!(self.rank() >= 1, "argmax on scalar");
        let dim = *self.shape.last().unwrap();
        assert!(dim > 0, "argmax along empty axis");
        self.data
            .chunks(dim)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Population variance along `axis`.
    pub fn var_axis(&self, axis: usize, keepdim: bool) -> Self {
        let mean = self.mean_axis(axis, true);
        let centered = self.sub(&mean);
        let sq = centered.mul(&centered);
        sq.mean_axis(axis, keepdim)
    }

    // ------------------------------------------------------------------
    // Slicing / joining
    // ------------------------------------------------------------------

    /// Extracts the half-open range `[start, start+len)` along `axis`.
    ///
    /// # Errors
    /// Returns [`TensorError::SliceOutOfBounds`] on out-of-range slices.
    pub fn slice(&self, axis: usize, start: usize, len: usize) -> Result<Self> {
        check_axis(axis, self.rank())?;
        let dim = self.shape[axis];
        if start + len > dim {
            return Err(TensorError::SliceOutOfBounds { axis, start, len, dim });
        }
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = len;
        let mut data = Buffer::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * dim + start) * inner;
            data.extend_from_slice(&self.data[base..base + len * inner]);
        }
        Ok(Self { shape: out_shape, data })
    }

    /// Materializes `len` cyclically-consecutive rows of a rank-2 array:
    /// rows `start, start+1, …` taken modulo the row count, wrapping past
    /// the end at most once. This is the sub-window view a ring buffer
    /// needs — the streaming engine stores samples (and patch tokens) in
    /// rotation and reads logical windows out of them without ever
    /// rotating storage. At most two contiguous copies, into a pooled
    /// buffer.
    ///
    /// # Errors
    /// [`TensorError::AxisOutOfRange`] for non-rank-2 input,
    /// [`TensorError::SliceOutOfBounds`] when `start` is not a valid row
    /// or `len` exceeds the row count.
    pub fn cyclic_rows(&self, start: usize, len: usize) -> Result<Self> {
        let cols = self.check_cyclic_rows(start, len)?;
        let mut data = Buffer::with_capacity(len * cols);
        let rows = self.shape[0];
        let first = (rows - start).min(len);
        data.extend_from_slice(&self.data[start * cols..(start + first) * cols]);
        data.extend_from_slice(&self.data[..(len - first) * cols]);
        Ok(Self { shape: Dims::from([len, cols]), data })
    }

    /// The into-slice form of [`NdArray::cyclic_rows`]: copies the same
    /// `len × cols` window into `out` without creating an array — the
    /// zero-allocation path for per-tick ring reads.
    ///
    /// # Errors
    /// As [`NdArray::cyclic_rows`], plus [`TensorError::ShapeDataMismatch`]
    /// when `out` is not exactly `len * cols` long.
    pub fn copy_cyclic_rows_into(&self, start: usize, len: usize, out: &mut [f32]) -> Result<()> {
        let cols = self.check_cyclic_rows(start, len)?;
        if out.len() != len * cols {
            return Err(TensorError::ShapeDataMismatch {
                shape: vec![len, cols],
                data_len: out.len(),
            });
        }
        let rows = self.shape[0];
        let first = (rows - start).min(len);
        out[..first * cols].copy_from_slice(&self.data[start * cols..(start + first) * cols]);
        out[first * cols..].copy_from_slice(&self.data[..(len - first) * cols]);
        Ok(())
    }

    fn check_cyclic_rows(&self, start: usize, len: usize) -> Result<usize> {
        if self.rank() != 2 {
            return Err(TensorError::AxisOutOfRange { axis: 2, rank: self.rank() });
        }
        let rows = self.shape[0];
        if start >= rows || len > rows {
            return Err(TensorError::SliceOutOfBounds { axis: 0, start, len, dim: rows });
        }
        Ok(self.shape[1])
    }

    /// Concatenates arrays along `axis`. All other dimensions must agree.
    ///
    /// # Panics
    /// Panics on empty input or mismatched shapes.
    pub fn concat(parts: &[&Self], axis: usize) -> Self {
        assert!(!parts.is_empty(), "concat of zero arrays");
        let rank = parts[0].rank();
        assert!(axis < rank, "concat axis out of range");
        for p in parts {
            assert_eq!(p.rank(), rank, "concat rank mismatch");
            for a in 0..rank {
                if a != axis {
                    assert_eq!(p.shape[a], parts[0].shape[a], "concat shape mismatch on axis {a}");
                }
            }
        }
        let mut out_shape = parts[0].shape.clone();
        out_shape[axis] = parts.iter().map(|p| p.shape[axis]).sum();
        let outer: usize = out_shape[..axis].iter().product();
        let inner: usize = out_shape[axis + 1..].iter().product();
        let mut data = Buffer::with_capacity(numel(&out_shape));
        for o in 0..outer {
            for p in parts {
                let d = p.shape[axis];
                let base = o * d * inner;
                data.extend_from_slice(&p.data[base..base + d * inner]);
            }
        }
        Self { shape: out_shape, data }
    }

    /// Stacks arrays of identical shape along a new leading axis.
    pub fn stack(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "stack of zero arrays");
        let unsqueezed: Vec<Self> = parts.iter().map(|p| p.unsqueeze(0)).collect();
        let refs: Vec<&Self> = unsqueezed.iter().collect();
        Self::concat(&refs, 0)
    }

    /// Row `i` of a rank >= 1 array (drops the leading axis).
    pub fn index_axis0(&self, i: usize) -> Self {
        self.slice(0, i, 1).expect("index_axis0 out of bounds").squeeze(0)
    }

    // ------------------------------------------------------------------
    // Fused numeric kernels (used by autograd ops with bespoke gradients)
    // ------------------------------------------------------------------

    /// Row-chunked fan-out shared by the softmax family: each output row is
    /// a pure function of the matching input row, so chunking along row
    /// boundaries leaves every per-row reduction order untouched.
    fn rowwise_lastdim(&self, per_row: impl Fn(&[f32], &mut [f32]) + Sync) -> Self {
        assert!(self.rank() >= 1, "rowwise op on scalar");
        let dim = (*self.shape.last().unwrap()).max(1);
        let n = self.data.len();
        let mut data = Buffer::zeroed(n);
        let rows_per_chunk = if pool::should_parallelize(n, ROWWISE_GRAIN) {
            (pool::grain(ROWWISE_GRAIN) / dim).max(1)
        } else {
            (n / dim).max(1)
        };
        let src = &self.data;
        pool::for_each_chunk(&mut data, rows_per_chunk * dim, |offset, chunk| {
            for (li, orow) in chunk.chunks_mut(dim).enumerate() {
                let base = offset + li * dim;
                per_row(&src[base..base + dim], orow);
            }
        });
        Self { shape: self.shape.clone(), data }
    }

    /// Numerically stable softmax over the last axis.
    pub fn softmax_lastdim(&self) -> Self {
        self.rowwise_lastdim(|row, out| {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o = math::exp(v - m);
            }
            let s: f32 = out.iter().sum();
            for o in out.iter_mut() {
                *o /= s;
            }
        })
    }

    /// Numerically stable log-softmax over the last axis.
    pub fn log_softmax_lastdim(&self) -> Self {
        self.rowwise_lastdim(|row, out| {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + math::ln(row.iter().map(|&v| math::exp(v - m)).sum::<f32>());
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o = v - lse;
            }
        })
    }

    /// Frobenius / L2 norm of all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute difference against `other` (shapes must match).
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// A broadcast walk over a row-major shape, one innermost-axis run at a
/// time, for two operands read through their own strides (0 on a
/// broadcast axis).
///
/// Size-1 axes are dropped and neighbouring axes that both operands step
/// through contiguously are fused, so `[32, 33, 32] + [32]` walks as 1056
/// runs of 32 and `[B, T, 1] + []` as one run of `B·T`. The outer
/// coordinates advance once per run instead of being re-raveled per
/// element. The walk only decides *where* each element is read: callers
/// still visit the walked shape in row-major order, which is what keeps
/// them bit-identical to a per-element coordinate walk (DESIGN.md §10).
struct RowWalk {
    shape: Dims,
    a: Dims,
    b: Dims,
}

impl RowWalk {
    fn new(shape: &[usize], a: &[usize], b: &[usize]) -> Self {
        let mut walk = RowWalk { shape: Dims::new(), a: Dims::new(), b: Dims::new() };
        for ((&dim, &sa), &sb) in shape.iter().zip(a).zip(b) {
            if dim == 1 {
                continue;
            }
            let r = walk.shape.len();
            if r > 0 && walk.a[r - 1] == sa * dim && walk.b[r - 1] == sb * dim {
                walk.shape[r - 1] *= dim;
                walk.a[r - 1] = sa;
                walk.b[r - 1] = sb;
            } else {
                walk.shape.push(dim);
                walk.a.push(sa);
                walk.b.push(sb);
            }
        }
        if walk.shape.is_empty() {
            // A single element: one run of length 1.
            walk.shape.push(1);
            walk.a.push(0);
            walk.b.push(0);
        }
        walk
    }

    /// The two operands' strides along the innermost (run) axis.
    fn inner_strides(&self) -> (usize, usize) {
        let last = self.shape.len() - 1;
        (self.a[last], self.b[last])
    }

    /// Calls `run(pos, len, a0, b0)` for every run covering the flat
    /// row-major range `[start, start + len)`, in order: `pos` is the run's
    /// flat position, `a0`/`b0` the operands' offsets of its first element.
    /// The first run may start, and the last end, mid-row.
    fn for_each_run(&self, start: usize, len: usize, mut run: impl FnMut(usize, usize, usize, usize)) {
        if len == 0 {
            return;
        }
        let last = self.shape.len() - 1;
        let mut coords = unravel(start, &self.shape);
        let mut a0 = ravel(&coords, &self.a);
        let mut b0 = ravel(&coords, &self.b);
        let (mut pos, end) = (start, start + len);
        loop {
            let n = (self.shape[last] - coords[last]).min(end - pos);
            run(pos, n, a0, b0);
            pos += n;
            if pos == end {
                return;
            }
            // The row is finished: rewind to its start, then increment the
            // outer coordinates, keeping `a0`/`b0` equal to their raveled
            // offsets. Elements remain, so some outer axis can advance.
            a0 -= coords[last] * self.a[last];
            b0 -= coords[last] * self.b[last];
            coords[last] = 0;
            let mut ax = last;
            loop {
                ax -= 1;
                coords[ax] += 1;
                a0 += self.a[ax];
                b0 += self.b[ax];
                if coords[ax] < self.shape[ax] {
                    break;
                }
                a0 -= coords[ax] * self.a[ax];
                b0 -= coords[ax] * self.b[ax];
                coords[ax] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{prop, prop_assert_eq, TestRng};

    fn arr2(rows: &[&[f32]]) -> NdArray {
        let r = rows.len();
        let c = rows[0].len();
        let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        NdArray::from_vec(&[r, c], data).unwrap()
    }

    #[test]
    fn constructors() {
        assert_eq!(NdArray::zeros(&[2, 3]).numel(), 6);
        assert_eq!(NdArray::scalar(5.0).to_scalar(), 5.0);
        assert!(NdArray::from_vec(&[2, 2], vec![1.0; 3]).is_err());
        let e = NdArray::eye(3);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
    }

    #[test]
    fn cyclic_rows_wraps_once() {
        let x = arr2(&[&[0.0, 1.0], &[10.0, 11.0], &[20.0, 21.0], &[30.0, 31.0]]);
        // No wrap: plain sub-window.
        let w = x.cyclic_rows(1, 2).unwrap();
        assert_eq!(w.data(), &[10.0, 11.0, 20.0, 21.0]);
        // Wrap: rows 3, 0, 1.
        let w = x.cyclic_rows(3, 3).unwrap();
        assert_eq!(w.shape(), &[3, 2]);
        assert_eq!(w.data(), &[30.0, 31.0, 0.0, 1.0, 10.0, 11.0]);
        // Full rotation from every start reproduces a rolled copy.
        let full = x.cyclic_rows(2, 4).unwrap();
        assert_eq!(full.data(), &[20.0, 21.0, 30.0, 31.0, 0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn copy_cyclic_rows_into_matches_materialized() {
        let x = arr2(&[&[1.0], &[2.0], &[3.0]]);
        let mut out = [0.0f32; 3];
        x.copy_cyclic_rows_into(2, 3, &mut out).unwrap();
        assert_eq!(out, [3.0, 1.0, 2.0]);
        assert!(x.copy_cyclic_rows_into(0, 2, &mut out).is_err(), "length mismatch");
    }

    #[test]
    fn cyclic_rows_rejects_bad_shapes() {
        let x = NdArray::zeros(&[4]);
        assert!(x.cyclic_rows(0, 1).is_err(), "rank-1 rejected");
        let x = NdArray::zeros(&[4, 2]);
        assert!(x.cyclic_rows(4, 1).is_err(), "start past the end");
        assert!(x.cyclic_rows(0, 5).is_err(), "len beyond the row count");
        // Capacity-1 ring: the degenerate window is still well-formed.
        let one = NdArray::from_vec(&[1, 2], vec![7.0, 8.0]).unwrap();
        assert_eq!(one.cyclic_rows(0, 1).unwrap().data(), &[7.0, 8.0]);
    }

    #[test]
    fn linspace_endpoints() {
        let l = NdArray::linspace(0.0, 1.0, 5);
        assert_eq!(l.data(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn broadcasting_add() {
        let a = arr2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = NdArray::from_slice(&[10.0, 20.0]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcast_to_and_reduce_roundtrip() {
        let a = NdArray::from_slice(&[1.0, 2.0]);
        let b = a.broadcast_to(&[3, 2]).unwrap();
        assert_eq!(b.shape(), &[3, 2]);
        let r = b.reduce_to_shape(&[2]);
        assert_eq!(r.data(), &[3.0, 6.0]);
    }

    #[test]
    fn transpose_2d() {
        let a = arr2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[0, 1]), 4.0);
        assert_eq!(t.at(&[2, 0]), 3.0);
    }

    #[test]
    fn permute_3d() {
        let a = NdArray::from_fn(&[2, 3, 4], |i| i as f32);
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
    }

    #[test]
    fn sum_axis_middle() {
        let a = NdArray::from_fn(&[2, 3, 2], |i| i as f32);
        let s = a.sum_axis(1, false);
        assert_eq!(s.shape(), &[2, 2]);
        // a[0,:,0] = 0,2,4 -> 6 ; a[0,:,1] = 1,3,5 -> 9
        assert_eq!(s.data()[0], 6.0);
        assert_eq!(s.data()[1], 9.0);
    }

    #[test]
    fn mean_and_var() {
        let a = arr2(&[&[1.0, 3.0], &[2.0, 4.0]]);
        let m = a.mean_axis(0, false);
        assert_eq!(m.data(), &[1.5, 3.5]);
        let v = a.var_axis(0, false);
        assert_eq!(v.data(), &[0.25, 0.25]);
    }

    #[test]
    fn slicing_and_concat() {
        let a = NdArray::from_fn(&[4, 2], |i| i as f32);
        let s = a.slice(0, 1, 2).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[2.0, 3.0, 4.0, 5.0]);
        let c = NdArray::concat(&[&s, &s], 1);
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.data(), &[2.0, 3.0, 2.0, 3.0, 4.0, 5.0, 4.0, 5.0]);
        assert!(a.slice(0, 3, 2).is_err());
    }

    #[test]
    fn stack_adds_axis() {
        let a = NdArray::from_slice(&[1.0, 2.0]);
        let s = NdArray::stack(&[&a, &a, &a]);
        assert_eq!(s.shape(), &[3, 2]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = arr2(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = a.softmax_lastdim();
        for row in s.data().chunks(3) {
            let total: f32 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let a = arr2(&[&[0.5, -1.0, 2.0]]);
        let ls = a.log_softmax_lastdim();
        let s = a.softmax_lastdim();
        assert!(ls.exp().max_abs_diff(&s) < 1e-6);
    }

    #[test]
    fn argmax_lastdim_picks_largest() {
        let a = arr2(&[&[0.1, 0.9, 0.2], &[5.0, 1.0, 2.0]]);
        assert_eq!(a.argmax_lastdim(), vec![1, 0]);
    }

    #[test]
    fn softmax_extreme_values_stable() {
        let a = NdArray::from_slice(&[1000.0, 1000.0, -1000.0]).reshape(&[1, 3]).unwrap();
        let s = a.softmax_lastdim();
        assert!(!s.has_non_finite());
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn parallel_elementwise_ops_are_bit_exact() {
        let a = NdArray::from_fn(&[7, 11, 5], |i| (i as f32 * 0.37).sin());
        let b = NdArray::from_fn(&[7, 11, 5], |i| (i as f32 * 0.53).cos());
        let bias = NdArray::from_fn(&[5], |i| i as f32 * 0.11 - 0.2);
        let run = || {
            let mapped = a.map(|v| (v * 1.7).tanh());
            let zipped = a.zip_map(&b, |x, y| x * y + 0.25).unwrap();
            let broad = a.zip_map(&bias, |x, y| x + y).unwrap();
            let soft = a.softmax_lastdim();
            let logsoft = a.log_softmax_lastdim();
            let mut inplace = a.clone();
            inplace.map_inplace(|v| v.exp() - 1.0);
            (mapped, zipped, broad, soft, logsoft, inplace)
        };
        let serial = pool::with_threads(1, run);
        for threads in [2usize, 4] {
            let par = pool::with_threads(threads, || pool::with_grain(16, run));
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    // ------------------------------------------------------------------
    // Row walker vs the per-element coordinate walk it replaced
    // ------------------------------------------------------------------

    /// Oracle for [`NdArray::zip_map`]: unravels every output index and
    /// ravels it through each operand's broadcast strides.
    fn oracle_zip_map(a: &NdArray, b: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
        let shape = broadcast_shape(a.shape(), b.shape()).unwrap();
        let (ls, rs) = (broadcast_strides(a.shape(), &shape), broadcast_strides(b.shape(), &shape));
        let data = (0..numel(&shape))
            .map(|i| {
                let c = unravel(i, &shape);
                f(a.data()[ravel(&c, &ls)], b.data()[ravel(&c, &rs)])
            })
            .collect();
        NdArray::from_vec(&shape, data).unwrap()
    }

    /// Oracle for [`NdArray::broadcast_to`].
    fn oracle_broadcast_to(a: &NdArray, target: &[usize]) -> NdArray {
        if a.shape() == target {
            return a.clone();
        }
        let strides = broadcast_strides(a.shape(), target);
        let data = (0..numel(target)).map(|i| a.data()[ravel(&unravel(i, target), &strides)]).collect();
        NdArray::from_vec(target, data).unwrap()
    }

    /// Oracle for [`NdArray::reduce_to_shape`]: adds every source element
    /// into its output slot in source order (same-shape input is returned
    /// as is, so `-0.0` stays `-0.0`).
    fn oracle_reduce_to_shape(a: &NdArray, target: &[usize]) -> NdArray {
        if a.shape() == target {
            return a.clone();
        }
        let strides = broadcast_strides(target, a.shape());
        let mut out = NdArray::zeros(target);
        for (i, &v) in a.data().iter().enumerate() {
            out.data_mut()[ravel(&unravel(i, a.shape()), &strides)] += v;
        }
        out
    }

    /// Bitwise equality, except that any NaN matches any NaN: IEEE 754
    /// leaves the sign and payload of a NaN result unspecified, and the
    /// compiler may commute the operands of a vectorized add, which picks
    /// a different one of two NaN inputs.
    /// Oracle for [`NdArray::permute`]: output coordinate `k` reads source
    /// axis `axes[k]`.
    fn oracle_permute(a: &NdArray, axes: &[usize]) -> NdArray {
        let shape: Vec<usize> = axes.iter().map(|&k| a.shape()[k]).collect();
        let src = row_major_strides(a.shape());
        let strides: Vec<usize> = axes.iter().map(|&k| src[k]).collect();
        let data = (0..numel(&shape)).map(|i| a.data()[ravel(&unravel(i, &shape), &strides)]).collect();
        NdArray::from_vec(&shape, data).unwrap()
    }

    fn assert_bits_eq(got: &NdArray, want: &NdArray, ctx: &str) {
        assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            if !(x.is_nan() && y.is_nan()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i}: {x} vs {y}");
            }
        }
    }

    /// An output shape of rank 1–5 and two operand shapes that broadcast
    /// into it. Each operand drops a random number of leading axes and
    /// collapses random axes to 1, covering interior and leading size-1
    /// axes, scalars and two-sided broadcasts such as `[B,1,D] ⊕ [1,T,1]`.
    fn broadcast_case(rng: &mut TestRng) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        const DIMS: [usize; 6] = [1, 2, 3, 4, 5, 7];
        let rank = 1 + rng.below_usize(5);
        let full: Vec<usize> = (0..rank).map(|_| DIMS[rng.below_usize(DIMS.len())]).collect();
        let mut operand = || {
            let lead = rng.below_usize(rank + 1);
            full[lead..].iter().map(|&d| if rng.below_usize(3) == 0 { 1 } else { d }).collect::<Vec<_>>()
        };
        let (a, b) = (operand(), operand());
        (full, a, b)
    }

    /// Values spread over seven decades, so that summing them in another
    /// order rounds differently, mixed with signed zeros, NaN and
    /// infinities.
    fn special_array(shape: &[usize], rng: &mut TestRng) -> NdArray {
        const SPECIAL: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        NdArray::from_fn(shape, |_| match rng.below_usize(32) {
            k @ 0..=4 => SPECIAL[k],
            _ => (rng.uniform_f32() - 0.5) * 10f32.powi(rng.below_usize(7) as i32 - 3),
        })
    }

    prop! {
        #![config(cases = 96)]

        /// `zip_map`, `broadcast_to`, `reduce_to_shape` and `permute` are
        /// bit-identical to the per-element coordinate walk, at threads
        /// {1, 2, 4} with a grain small enough that pool chunks start and
        /// end mid-row.
        fn row_walker_matches_coordinate_oracle(
            case in testkit::prop::from_fn(broadcast_case),
            grain in 1usize..8,
            seed in 0u64..1_000_000
        ) {
            let (full, sa, sb) = case;
            let mut rng = TestRng::new(seed);
            let (a, b) = (special_array(&sa, &mut rng), special_array(&sb, &mut rng));
            let big = special_array(&full, &mut rng);
            let axes = rng.permutation(full.len());
            let ops: [fn(f32, f32) -> f32; 3] = [|x, y| x + y, |x, y| x - 2.0 * y, |x, y| x * y / (y - x)];
            for threads in [1usize, 2, 4] {
                pool::with_threads(threads, || pool::with_grain(grain, || {
                    let ctx = format!("{sa:?} ⊕ {sb:?} -> {full:?}, threads {threads}, grain {grain}");
                    let check = |got: NdArray, want: NdArray, what: &str| {
                        assert_bits_eq(&got, &want, &format!("{what} {ctx}"))
                    };
                    for op in ops {
                        check(a.zip_map(&b, op).unwrap(), oracle_zip_map(&a, &b, op), "zip_map");
                    }
                    check(a.broadcast_to(&full).unwrap(), oracle_broadcast_to(&a, &full), "broadcast_to");
                    check(big.reduce_to_shape(&sb), oracle_reduce_to_shape(&big, &sb), "reduce_to_shape");
                    check(big.permute(&axes), oracle_permute(&big, &axes), &format!("permute {axes:?}"));
                }));
            }
            prop_assert_eq!(a.broadcast_to(&full).unwrap().shape(), full.as_slice());
        }
    }

    #[test]
    fn row_walker_fig4_geometry_matches_oracle() {
        // The layers the walker exists for: a bias add, its gradient, and
        // LayerNorm's row-statistic broadcast, at [32, 33, 32].
        let mut rng = TestRng::new(4);
        let x = special_array(&[32, 33, 32], &mut rng);
        let bias = special_array(&[32], &mut rng);
        let stat = special_array(&[32, 33, 1], &mut rng);
        for threads in [1usize, 2, 4] {
            pool::with_threads(threads, || {
                pool::with_grain(100, || {
                    assert_bits_eq(&x.add(&bias), &oracle_zip_map(&x, &bias, |a, b| a + b), "bias add");
                    assert_bits_eq(&x.sub(&stat), &oracle_zip_map(&x, &stat, |a, b| a - b), "row stat");
                    assert_bits_eq(&x.reduce_to_shape(&[32]), &oracle_reduce_to_shape(&x, &[32]), "bias grad");
                    let row_sum = oracle_reduce_to_shape(&x, &[32, 33, 1]);
                    assert_bits_eq(&x.reduce_to_shape(&[32, 33, 1]), &row_sum, "row sum");
                })
            });
        }
    }
}
