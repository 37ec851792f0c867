//! Fused row kernels: LayerNorm over the last axis and the tanh-GELU,
//! forward and backward, shared by the tape ([`Var::layer_norm`],
//! [`Var::gelu`]), the compiled serving plan and — through that plan —
//! the streaming engine.
//!
//! # Bitwise equality with the composed chains
//!
//! The LayerNorm node replaces an eleven-node tape chain:
//!
//! ```text
//! mean = sum_axis(x) · (1/D)        c = x − mean
//! var  = sum_axis(c·c) · (1/D)      std = √(var + ε)
//! y    = (c / std) · γ + β
//! ```
//!
//! Each kernel replays that chain's per-element operations in the same
//! order, so values and gradients keep their bits (proved against the live
//! chain by `probe fused` and the tests below):
//!
//! * Row sums are serial from `+0.0` in ascending column order, as
//!   `sum_axis` computes them.
//! * The backward follows the chain's reverse topological order. `c`
//!   collects `dn/std` first, then the two `c·c` gradients, in that order;
//!   `x` collects `dc`, then the broadcast mean gradient.
//! * A gradient that `reduce_to_shape` would sum over the last axis starts
//!   from `+0.0`. When the shapes already match (`D = 1`) that reduction is
//!   a copy, so the sum starts from `-0.0`, which adds exactly nothing
//!   (`-0.0 + v == v` bitwise, for every `v`). The same holds for `dγ`/`dβ`,
//!   which sum over rows in row order and are copies for rank-1 input.
//!
//! The GELU node keeps the seed node's expressions verbatim: the forward
//! saves `t = tanh(C·(v + A·v³))` and returns `0.5·v·(1 + t)`, the
//! backward multiplies the output gradient by the closed-form derivative.
//! The fusion removes passes and temporaries, not operations.
//!
//! # Parallelism
//!
//! Kernels fan out over whole rows (LayerNorm) or element chunks (GELU);
//! no element's arithmetic depends on the chunking. The LayerNorm backward
//! computes each row's statistics once, in a row pass of its own, and the
//! `dx` pass and the `dγ`/`dβ` pass both read them. The `dγ`/`dβ` sums
//! cross rows, so that pass always runs serially in row order.

use crate::array::{NdArray, ELEMWISE_GRAIN, ROWWISE_GRAIN};
use crate::bufpool::Buffer;
use crate::math;
use testkit::pool;

#[cfg(doc)]
use crate::Var;

/// `sqrt(2/pi)`, the GELU tanh-approximation scale.
const GELU_C: f32 = 0.797_884_6;
/// The GELU tanh-approximation cubic coefficient.
const GELU_A: f32 = 0.044_715;

/// The saved GELU factor `tanh(C·(v + A·v³))`.
#[inline]
fn gelu_t(v: f32) -> f32 {
    math::tanh(GELU_C * (v + GELU_A * v * v * v))
}

/// `dGELU/dv` at `v`, given the saved factor `t`.
#[inline]
fn gelu_slope(v: f32, t: f32) -> f32 {
    0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * v * v)
}

/// Rows of `dim` elements per pool chunk for a row kernel over `n` elements.
fn rows_per_chunk(n: usize, dim: usize) -> usize {
    if pool::should_parallelize(n, ROWWISE_GRAIN) {
        (pool::grain(ROWWISE_GRAIN) / dim).max(1)
    } else {
        (n / dim).max(1)
    }
}

/// Rows whose serial sums run interleaved. Each row's sum keeps its own
/// ascending order; running several independent chains at once hides the
/// latency of each add, which is what a one-row loop waits on.
const ROW_BLOCK: usize = 4;

/// For each of `R` rows, the sum of `term(r, j)` over ascending `j < d`,
/// starting from `start`: `R` independent chains, interleaved.
#[inline(always)]
fn row_sums<const R: usize>(d: usize, start: f32, term: impl Fn(usize, usize) -> f32) -> [f32; R] {
    let mut acc = [start; R];
    for j in 0..d {
        for (r, a) in acc.iter_mut().enumerate() {
            *a += term(r, j);
        }
    }
    acc
}

/// `(mean, std)` of each of the `R` rows in `x` (`R·d` values):
/// `std = √(Σ(x−mean)²·(1/D) + ε)`, each sum serial from `+0.0`.
#[inline(always)]
fn block_stats<const R: usize>(x: &[f32], d: usize, inv_d: f32, eps: f32) -> ([f32; R], [f32; R]) {
    let mean = row_sums::<R>(d, 0.0, |r, j| x[r * d + j]).map(|s| s * inv_d);
    let q = row_sums::<R>(d, 0.0, |r, j| {
        let c = x[r * d + j] - mean[r];
        c * c
    });
    (mean, q.map(|q| (q * inv_d + eps).sqrt()))
}

/// Calls `block::<ROW_BLOCK>` on each whole block of rows, then
/// `block::<1>` on each remaining row, passing the first row's index.
macro_rules! for_row_blocks {
    ($rows:expr, |$r0:ident, $R:ident| $body:expr) => {{
        let rows = $rows;
        let mut $r0 = 0;
        while $r0 + ROW_BLOCK <= rows {
            {
                const $R: usize = ROW_BLOCK;
                $body;
            }
            $r0 += ROW_BLOCK;
        }
        while $r0 < rows {
            {
                const $R: usize = 1;
                $body;
            }
            $r0 += 1;
        }
    }};
}

/// LayerNorm forward over whole rows: `x` and `out` hold the same rows.
fn layer_norm_rows(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let d = gamma.len();
    let inv_d = 1.0 / d as f32;
    for_row_blocks!(x.len() / d, |r0, R| {
        let (xb, ob) = (&x[r0 * d..(r0 + R) * d], &mut out[r0 * d..(r0 + R) * d]);
        let (mean, std) = block_stats::<R>(xb, d, inv_d, eps);
        for (r, (xr, or)) in xb.chunks(d).zip(ob.chunks_mut(d)).enumerate() {
            for (((o, &v), &g), &b) in or.iter_mut().zip(xr).zip(gamma).zip(beta) {
                *o = (v - mean[r]) / std[r] * g + b;
            }
        }
    });
}

/// Each row's `(mean, std)` from [`block_stats`], stored as pairs: `stats`
/// holds two values per row of `x`.
fn layer_norm_row_stats(x: &[f32], d: usize, eps: f32, stats: &mut [f32]) {
    let inv_d = 1.0 / d as f32;
    for_row_blocks!(x.len() / d, |r0, R| {
        let (mean, std) = block_stats::<R>(&x[r0 * d..(r0 + R) * d], d, inv_d, eps);
        for (r, s) in stats[2 * r0..2 * (r0 + R)].chunks_exact_mut(2).enumerate() {
            s.copy_from_slice(&[mean[r], std[r]]);
        }
    });
}

/// Adds every row's `g·n` and `g` into `dγ`/`dβ`. These sums cross rows, so
/// they run serially, in row order.
fn layer_norm_affine_grads(x: &[f32], g: &[f32], stats: &[f32], dgamma: &mut [f32], dbeta: &mut [f32]) {
    let d = dgamma.len();
    for ((xr, gr), s) in x.chunks(d).zip(g.chunks(d)).zip(stats.chunks_exact(2)) {
        for (((dgm, dbt), &v), &gv) in dgamma.iter_mut().zip(dbeta.iter_mut()).zip(xr).zip(gr) {
            *dgm += gv * ((v - s[0]) / s[1]);
            *dbt += gv;
        }
    }
}

/// LayerNorm backward over whole rows: writes `dx` for the rows of `x`/`g`,
/// given their [`layer_norm_row_stats`]. `row_sum_start` begins the two
/// sums over a row (module docs).
fn layer_norm_backward_rows(
    x: &[f32],
    g: &[f32],
    gamma: &[f32],
    stats: &[f32],
    row_sum_start: f32,
    dx: &mut [f32],
) {
    let d = gamma.len();
    let inv_d = 1.0 / d as f32;
    for_row_blocks!(x.len() / d, |r0, R| {
        let span = r0 * d..(r0 + R) * d;
        let (xb, gb, db) = (&x[span.clone()], &g[span.clone()], &mut dx[span]);
        let mean: [f32; R] = std::array::from_fn(|r| stats[2 * (r0 + r)]);
        let std: [f32; R] = std::array::from_fn(|r| stats[2 * (r0 + r) + 1]);
        // d std = Σ dn·(−c / std²), dn = g·γ: the terms go through `dx`
        // first, so the divides vectorize and only the sums stay serial.
        for (r, ((xr, gr), dr)) in xb.chunks(d).zip(gb.chunks(d)).zip(db.chunks_mut(d)).enumerate() {
            let ss = std[r] * std[r];
            for (((o, &v), &gv), &gm) in dr.iter_mut().zip(xr).zip(gr).zip(gamma) {
                *o = (gv * gm) * (-(v - mean[r]) / ss);
            }
        }
        let dstd = row_sums::<R>(d, row_sum_start, |r, j| db[r * d + j]);
        // √ backward and the variance's mean scale give d(c·c); then
        // dc = dn/std + dsq·c + dsq·c in the tape's order. `dx` holds dc
        // until the mean gradient is known.
        for (r, ((xr, gr), dr)) in xb.chunks(d).zip(gb.chunks(d)).zip(db.chunks_mut(d)).enumerate() {
            let dsq = dstd[r] / (std[r] * 2.0) * inv_d;
            for (((o, &v), &gv), &gm) in dr.iter_mut().zip(xr).zip(gr).zip(gamma) {
                let q = dsq * (v - mean[r]);
                *o = (gv * gm) / std[r] + q + q;
            }
        }
        let dmean = row_sums::<R>(d, row_sum_start, |r, j| -db[r * d + j]);
        for (r, dr) in db.chunks_mut(d).enumerate() {
            let dm = dmean[r] * inv_d;
            for o in dr.iter_mut() {
                *o += dm;
            }
        }
    });
}

impl NdArray {
    /// LayerNorm over the last axis: `(x − mean)/√(var + eps) · gamma + beta`
    /// with the population variance, one pass per row. `gamma` and `beta`
    /// hold one value per column. Bit-identical to the composed
    /// `mean_axis → sub → mul → mean_axis → add_scalar → sqrt → div → mul →
    /// add` chain (see the module docs).
    ///
    /// # Panics
    /// Panics on a rank-0 array, or when `gamma`/`beta` do not hold exactly
    /// one element per column.
    pub fn layer_norm(&self, gamma: &NdArray, beta: &NdArray, eps: f32) -> NdArray {
        assert!(self.rank() >= 1, "layer_norm on a scalar");
        let dim = *self.shape().last().expect("rank >= 1");
        assert!(
            gamma.numel() == dim && beta.numel() == dim,
            "layer_norm: gamma/beta must hold {dim} values"
        );
        let mut out = NdArray::zeros(self.shape());
        let n = self.numel();
        if n == 0 {
            return out;
        }
        let (src, gm, bt) = (self.data(), gamma.data(), beta.data());
        pool::for_each_chunk(out.data_mut(), rows_per_chunk(n, dim) * dim, |offset, chunk| {
            layer_norm_rows(&src[offset..offset + chunk.len()], gm, bt, eps, chunk);
        });
        out
    }

    /// The LayerNorm backward: `(dx, dgamma, dbeta)` for output gradient
    /// `g`, recomputing the row statistics from `self` (the forward input).
    /// Bit-identical to the composed chain's backward.
    pub(crate) fn layer_norm_backward(&self, gamma: &NdArray, g: &NdArray, eps: f32) -> (NdArray, NdArray, NdArray) {
        let dim = *self.shape().last().expect("rank >= 1");
        let n = self.numel();
        let mut dx = NdArray::zeros(self.shape());
        // `reduce_to_shape` copies when its shapes already match, and
        // starting a sum from -0.0 is that copy (module docs).
        let param_start = if self.rank() == 1 { -0.0 } else { 0.0 };
        let mut dgamma = NdArray::full(&[dim], param_start);
        let mut dbeta = NdArray::full(&[dim], param_start);
        if n == 0 {
            return (dx, dgamma, dbeta);
        }
        let row_sum_start = if dim == 1 { -0.0 } else { 0.0 };
        let (xs, gs, gm) = (self.data(), g.data(), gamma.data());
        let rows_per = rows_per_chunk(n, dim);
        let mut stats = Buffer::zeroed(2 * (n / dim));
        pool::for_each_chunk(&mut stats, 2 * rows_per, |offset, chunk| {
            let rows = offset / 2 * dim..(offset + chunk.len()) / 2 * dim;
            layer_norm_row_stats(&xs[rows], dim, eps, chunk);
        });
        let stats = &stats[..];
        pool::for_each_chunk(dx.data_mut(), rows_per * dim, |offset, chunk| {
            let span = offset..offset + chunk.len();
            let row_stats = &stats[2 * span.start / dim..2 * span.end / dim];
            layer_norm_backward_rows(&xs[span.clone()], &gs[span], gm, row_stats, row_sum_start, chunk);
        });
        layer_norm_affine_grads(xs, gs, stats, dgamma.data_mut(), dbeta.data_mut());
        (dx, dgamma, dbeta)
    }

    /// The tanh-approximation GELU `0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³)))`,
    /// elementwise (as in BERT/PatchTST).
    pub fn gelu(&self) -> NdArray {
        self.map(|v| 0.5 * v * (1.0 + gelu_t(v)))
    }

    /// GELU forward for the tape: `(value, t)` with the saved factor
    /// `t = tanh(C·(v + A·v³))`. Two outputs cannot share one chunked
    /// pass, so `t` is computed first and the value reads it back.
    pub(crate) fn gelu_with_tanh(&self) -> (NdArray, NdArray) {
        let n = self.numel();
        let (mut out, mut t) = (NdArray::zeros(self.shape()), NdArray::zeros(self.shape()));
        let chunk = if pool::should_parallelize(n, ELEMWISE_GRAIN) { pool::grain(ELEMWISE_GRAIN) } else { n.max(1) };
        let src = self.data();
        pool::for_each_chunk(t.data_mut(), chunk, |offset, c| {
            for (o, &v) in c.iter_mut().zip(&src[offset..]) {
                *o = gelu_t(v);
            }
        });
        let ts = t.data();
        pool::for_each_chunk(out.data_mut(), chunk, |offset, c| {
            for ((o, &v), &tv) in c.iter_mut().zip(&src[offset..]).zip(&ts[offset..]) {
                *o = 0.5 * v * (1.0 + tv);
            }
        });
        (out, t)
    }

    /// GELU backward: `g · GELU'(v)` from the input `self` and the saved
    /// factor `t`.
    pub(crate) fn gelu_backward(&self, t: &NdArray, g: &NdArray) -> NdArray {
        let n = self.numel();
        let mut dx = NdArray::zeros(self.shape());
        let chunk = if pool::should_parallelize(n, ELEMWISE_GRAIN) { pool::grain(ELEMWISE_GRAIN) } else { n.max(1) };
        let (xs, ts, gs) = (self.data(), t.data(), g.data());
        pool::for_each_chunk(dx.data_mut(), chunk, |offset, c| {
            for (((o, &v), &tv), &gv) in c.iter_mut().zip(&xs[offset..]).zip(&ts[offset..]).zip(&gs[offset..]) {
                *o = gv * gelu_slope(v, tv);
            }
        });
        dx
    }
}
