//! Matrix multiplication kernels.
//!
//! The 2-D core is a blocked, B-panel-packed microkernel in the GEBP
//! style: `b` is packed once per call into contiguous [`NR`]-wide column
//! panels, and an [`MR`]×[`NR`] register-blocked inner kernel walks the
//! `k` axis keeping all `MR * NR` partial sums in registers. That removes
//! the per-`k` load/store traffic on the output array that bounded the
//! seed kernel and lets the compiler vectorize the `NR`-wide accumulator
//! updates.
//!
//! Bit-exactness contract (DESIGN.md §9–§10): for every output element the
//! microkernel performs *the same `f32` additions in the same ascending-`k`
//! order* as [`matmul_rows_reference`], including the reference kernel's
//! skip of `a`-entries that equal `0.0`. The packed path is therefore
//! bit-identical to the reference loop (property-tested in this module and
//! in the determinism suite), and results do not depend on whether the
//! packed or reference path ran.
//!
//! Large products fan out over `testkit::pool`: the output is split into
//! fixed, index-ordered row (or batch-entry) chunks, each computed into its
//! own disjoint slice. `b` is packed *before* the fan-out and shared
//! read-only, and chunk boundaries never touch the `k` axis, so the
//! parallel result is bit-identical to the serial one at any thread count
//! (`TIMEDRL_THREADS=1` ≡ `TIMEDRL_THREADS=N`).

use crate::array::NdArray;
use crate::bufpool::Buffer;
use crate::error::{Result, TensorError};
use testkit::pool;

/// Work-per-chunk target for the parallel path, in multiply-adds. One grain
/// is roughly a quarter millisecond of serial kernel time — large enough
/// that per-chunk dispatch cost vanishes, small enough to load-balance.
pub(crate) const MATMUL_GRAIN: usize = 1 << 18;

/// Rows per register block of the microkernel.
pub(crate) const MR: usize = 4;

/// Columns per packed panel / register block of the microkernel. Two
/// 256-bit vectors per row: wide enough that the per-row scalar load,
/// zero-test, and branch amortize over 16 columns, small enough that the
/// `MR * NR/8` accumulator vectors still fit the 16 AVX registers.
pub(crate) const NR: usize = 16;

/// Minimum `m` and `n` for the packed path. Below this the packing pass
/// and the zero-padded panel arithmetic cost more than they save, so tiny
/// products keep the reference loop (identical results either way).
const MIN_PACKED_DIM: usize = 4;

/// Reference row-range core — the seed repo's `i-k-j` loop, kept verbatim.
/// Computes `out_chunk = a[row0.., :] * b` for the `out_chunk.len() / n`
/// rows starting at `row0`. The packed microkernel is property-tested to be
/// bit-identical to this loop; it also still serves tiny products where
/// packing does not pay.
pub(crate) fn matmul_rows_reference(
    a: &[f32],
    b: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    out_chunk.fill(0.0);
    if n == 0 {
        return; // zero-width rows: nothing to compute
    }
    // i-k-j order: the inner loop walks both b and out contiguously.
    for (li, orow) in out_chunk.chunks_mut(n).enumerate() {
        let i = row0 + li;
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Number of [`NR`]-wide column panels covering `n` columns.
pub(crate) fn panel_count(n: usize) -> usize {
    n.div_ceil(NR)
}

/// Packs `b` (`k x n`, row-major) into `NR`-wide column panels: panel `p`
/// holds columns `[p*NR, p*NR+NR)` as `k` contiguous `NR`-element rows,
/// zero-padded on the right edge. Packing reorders *memory*, never values:
/// `packed[p][kk][c] == b[kk][p*NR + c]`.
pub(crate) fn pack_b_panels(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    debug_assert_eq!(packed.len(), panel_count(n) * k * NR);
    if k == 0 {
        return; // zero-size inner axis: nothing to pack, output stays 0
    }
    for (p, panel) in packed.chunks_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for (kk, dst) in panel.chunks_mut(NR).enumerate() {
            dst[..w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            dst[w..].fill(0.0);
        }
    }
}

/// One row's `NR`-wide accumulator update for a single `k` step — the
/// exact per-element operation of [`matmul_rows_reference`]: skip when the
/// `a`-entry equals `0.0`, otherwise `acc[c] += av * bp[c]`.
///
/// The skip uses an integer bit test instead of a float compare:
/// `to_bits() & 0x7FFF_FFFF == 0` holds exactly for `+0.0`/`-0.0` and for
/// no other `f32` (NaN compares unequal to zero *and* has nonzero payload
/// bits), so the condition is identical to `av == 0.0` for every input —
/// it just compiles to one predictable branch instead of a two-branch
/// NaN-aware `ucomiss`.
#[inline(always)]
fn lane_update(av: f32, bp: &[f32; NR], acc: &mut [f32; NR]) {
    if av.to_bits() & 0x7FFF_FFFF != 0 {
        for c in 0..NR {
            acc[c] += av * bp[c];
        }
    }
}

/// Register-blocked inner kernel, full `MR`-row case: accumulates the
/// `MR x NR` output block for rows starting at `a_base` against one packed
/// panel, walking `k` ascending with the exact per-element operation
/// sequence of [`matmul_rows_reference`]. Zipped iterators (rather than
/// indexed loads) keep the hot loop free of bounds checks.
#[inline(always)]
fn micro_block_main(a: &[f32], a_base: usize, k: usize, panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let row = |r: usize| &a[a_base + r * k..a_base + (r + 1) * k];
    let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
    let (bps, _) = panel.as_chunks::<NR>();
    for ((((bp, &v0), &v1), &v2), &v3) in bps.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        lane_update(v0, bp, &mut acc[0]);
        lane_update(v1, bp, &mut acc[1]);
        lane_update(v2, bp, &mut acc[2]);
        lane_update(v3, bp, &mut acc[3]);
    }
}

/// Branch-free variant of [`micro_block_main`] for row blocks proven to
/// hold no `0.0` entries (checked once per block by [`any_zero`], amortized
/// over every panel): with no zeros present the reference skip is vacuous,
/// so the four row updates run unconditionally as straight-line vector
/// code — identical operations, minus the per-`k` taken branches that
/// otherwise bound the loop.
#[inline(always)]
fn micro_block_dense(a: &[f32], a_base: usize, k: usize, panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let row = |r: usize| &a[a_base + r * k..a_base + (r + 1) * k];
    let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
    let (bps, _) = panel.as_chunks::<NR>();
    for ((((bp, &v0), &v1), &v2), &v3) in bps.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        for c in 0..NR {
            acc[0][c] += v0 * bp[c];
        }
        for c in 0..NR {
            acc[1][c] += v1 * bp[c];
        }
        for c in 0..NR {
            acc[2][c] += v2 * bp[c];
        }
        for c in 0..NR {
            acc[3][c] += v3 * bp[c];
        }
    }
}

/// Whether `row` contains an exact `0.0`/`-0.0` — the same bit-level
/// predicate as [`lane_update`]'s skip, vectorized by the compiler into a
/// cheap integer scan.
#[inline(always)]
fn any_zero(row: &[f32]) -> bool {
    row.iter().any(|v| v.to_bits() & 0x7FFF_FFFF == 0)
}

/// Single-row edge kernel: same operation sequence, partial register block.
#[inline(always)]
fn micro_block_edge(arow: &[f32], panel: &[f32], acc: &mut [f32; NR]) {
    let (bps, _) = panel.as_chunks::<NR>();
    for (bp, &av) in bps.iter().zip(arow) {
        lane_update(av, bp, acc);
    }
}

/// Packed row-range core: same contract as [`matmul_rows_reference`] but
/// reads `b` through its packed panels and blocks `m`/`n` into `MR x NR`
/// register tiles. Bit-identical to the reference loop by construction
/// (same `k` order, same zero-skip, same `mul`+`add` per element).
#[inline(always)]
fn matmul_rows_packed_impl(
    a: &[f32],
    packed: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    let m_chunk = out_chunk.len() / n.max(1);
    let panels = panel_count(n);
    let mut i = 0;
    while i < m_chunk {
        let mr = MR.min(m_chunk - i);
        let a_base = (row0 + i) * k;
        // One zero-scan per row block, reused across all its panels: picks
        // the branch-free kernel when the reference skip cannot fire.
        let dense = mr == MR
            && !(0..MR).any(|r| any_zero(&a[a_base + r * k..a_base + (r + 1) * k]));
        for p in 0..panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let mut acc = [[0.0f32; NR]; MR];
            if dense {
                micro_block_dense(a, a_base, k, panel, &mut acc);
            } else if mr == MR {
                micro_block_main(a, a_base, k, panel, &mut acc);
            } else {
                // Edge rows: same kernel, partial register block.
                for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                    let base = a_base + r * k;
                    micro_block_edge(&a[base..base + k], panel, accr);
                }
            }
            for (r, accr) in acc.iter().enumerate().take(mr) {
                let o0 = (i + r) * n + j0;
                out_chunk[o0..o0 + w].copy_from_slice(&accr[..w]);
            }
        }
        i += mr;
    }
}

/// Portable instantiation of the packed core (baseline target features).
fn matmul_rows_packed_portable(
    a: &[f32],
    packed: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    matmul_rows_packed_impl(a, packed, out_chunk, row0, k, n);
}

/// AVX2 instantiation: the same Rust body compiled with 256-bit vectors
/// enabled, so the `NR`-wide accumulator updates become one-register ops.
/// Vectorization only spans the `NR` independent output lanes — the `k`
/// sum stays sequential per element and `mul`/`add` stay separate
/// instructions (rustc never contracts them into FMA) — so this is
/// bit-identical to the portable build; the dispatch below is invisible
/// in results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_rows_packed_avx2(
    a: &[f32],
    packed: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    matmul_rows_packed_impl(a, packed, out_chunk, row0, k, n);
}

/// Runtime-dispatched packed core: picks the widest instantiation the host
/// supports. Both produce bit-identical output, so the choice never shows
/// up in results — only in speed.
pub(crate) fn matmul_rows_packed(
    a: &[f32],
    packed: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: gated on runtime AVX2 detection; the fn is a safe Rust
        // body that only needs the feature to be *legal to execute*.
        unsafe {
            return matmul_rows_packed_avx2(a, packed, out_chunk, row0, k, n);
        }
    }
    matmul_rows_packed_portable(a, packed, out_chunk, row0, k, n);
}

/// Whether the packed microkernel pays for `m x k * n`: both output
/// dimensions must be big enough to amortize packing and panel padding.
pub(crate) fn use_packed(m: usize, n: usize) -> bool {
    m >= MIN_PACKED_DIM && n >= MIN_PACKED_DIM
}

/// Which operand a GEMM reads transposed — in place, with strides, never
/// materialized (see the transpose-aware section below).
#[derive(Clone, Copy)]
enum Layout {
    /// `a · b`.
    NN,
    /// `a · bᵀ`, with `b` given untransposed as `n x k`.
    NT,
    /// `aᵀ · b`, with each `a` entry given untransposed as `k x m`.
    TN,
}

/// The one 2-D GEMM driver: `out[rows x n] = op(a) · op(b)`, all slices
/// row-major. `op(a)` stacks `rows / m` entries of `m x k`; only the `TN`
/// row addressing reads `m`, because the rows of an `NN`/`NT` left operand
/// are contiguous across entries anyway.
///
/// Tiny products run the layout's reference row core. Otherwise `b` is
/// packed once, before the fan-out, and every row chunk reads the same
/// shared panels, so chunking cannot perturb packed values. Called from a
/// pool worker (one batch entry), it runs as one serial chunk.
fn gemm2d(layout: Layout, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(b.len(), k * n);
    let rows_per_chunk = if pool::should_parallelize(rows * k * n, MATMUL_GRAIN) {
        // Whole `MR`-row blocks: a chunk's leftover rows take the packed
        // core's edge path, which reads every B panel once per row rather
        // than once per block. Weight gradients (`TN`, k = batch rows) would
        // otherwise split into 3- or 7-row chunks and run slower on 2 threads
        // than on 1.
        (pool::grain(MATMUL_GRAIN) / (k * n).max(1)).next_multiple_of(MR).clamp(1, rows)
    } else {
        rows
    };
    if !use_packed(rows, n) {
        pool::for_each_chunk(out, rows_per_chunk * n, |offset, chunk| {
            let row0 = offset / n;
            match layout {
                Layout::NN => matmul_rows_reference(a, b, chunk, row0, k, n),
                Layout::NT => matmul_nt_rows_reference(a, b, chunk, row0, k, n),
                Layout::TN => matmul_tn_rows_reference(a, b, chunk, row0, k, m, n),
            }
        });
        return;
    }
    let mut packed = Buffer::zeroed(panel_count(n) * k * NR);
    match layout {
        Layout::NT => pack_bt_panels(b, k, n, &mut packed),
        Layout::NN | Layout::TN => pack_b_panels(b, k, n, &mut packed),
    }
    let packed = &packed[..];
    pool::for_each_chunk(out, rows_per_chunk * n, |offset, chunk| {
        let row0 = offset / n;
        match layout {
            Layout::NN | Layout::NT => matmul_rows_packed(a, packed, chunk, row0, k, n),
            Layout::TN => matmul_tn_rows_packed(a, k, m, packed, chunk, row0, n),
        }
    });
}

/// The one rank dispatch behind [`matmul`], [`matmul_nt`] and
/// [`matmul_tn`]. Shapes are read in product orientation, `op(a)` as
/// `(m, k)` and `op(b)` as `(k', n)`, so every layout accepts the same rank
/// pairs and its error names the same effective dims the equivalent
/// [`matmul`] on materialized transposes would report:
///
/// * `(2,2)`: one GEMM;
/// * `(3,2)`: the shared right operand folds the batch into rows, one GEMM;
/// * `(3,3)`: batch entries fan out across the pool, one GEMM each.
fn gemm(layout: Layout, a: &NdArray, b: &NdArray) -> Result<NdArray> {
    let (ta, tb) = (matches!(layout, Layout::TN), matches!(layout, Layout::NT));
    let err = || {
        let dims = |sh: &[usize], t: bool| if t { transposed_dims(sh) } else { sh.to_vec() };
        TensorError::MatmulMismatch { lhs: dims(a.shape(), ta), rhs: dims(b.shape(), tb) }
    };
    let (ra, rb) = (a.rank(), b.rank());
    if !matches!((ra, rb), (2, 2) | (3, 2) | (3, 3)) {
        return Err(err());
    }
    // The last two axes, swapped for the operand read transposed.
    let mat = |sh: &[usize], t: bool| {
        let (r, c) = (sh[sh.len() - 2], sh[sh.len() - 1]);
        if t {
            (c, r)
        } else {
            (r, c)
        }
    };
    let (m, k) = mat(a.shape(), ta);
    let (k2, n) = mat(b.shape(), tb);
    let bs = if ra == 3 { a.shape()[0] } else { 1 };
    if k != k2 || (rb == 3 && b.shape()[0] != bs) {
        return Err(err());
    }
    let mut out = if ra == 3 { NdArray::zeros(&[bs, m, n]) } else { NdArray::zeros(&[m, n]) };
    let (ad, bd) = (a.data(), b.data());
    if rb == 2 {
        // One GEMM sharing one packed `b`. For `TN` the row addressing in
        // pack_at_block crosses entry boundaries exactly like the
        // materialized batch fold.
        gemm2d(layout, ad, bd, out.data_mut(), m, k, n);
        return Ok(out);
    }
    // An empty output (`m * n == 0`) makes for_each_chunk a no-op.
    let per = m * n;
    let entries_per_chunk = if pool::should_parallelize(bs * m * k * n, MATMUL_GRAIN) {
        (pool::grain(MATMUL_GRAIN) / (m * k * n).max(1)).clamp(1, bs)
    } else {
        bs
    };
    pool::for_each_chunk(out.data_mut(), entries_per_chunk * per, |offset, chunk| {
        for (j, o_sl) in chunk.chunks_mut(per).enumerate() {
            let i = offset / per + j;
            let (ai, bi) = (&ad[i * m * k..(i + 1) * m * k], &bd[i * k * n..(i + 1) * k * n]);
            gemm2d(layout, ai, bi, o_sl, m, k, n);
        }
    });
    Ok(out)
}

/// Matrix product with rank dispatch:
///
/// * `[m,k] x [k,n] -> [m,n]`
/// * `[b,m,k] x [b,k,n] -> [b,m,n]` (batched, parallel across batch entries)
/// * `[b,m,k] x [k,n] -> [b,m,n]` (shared right operand)
///
/// # Errors
/// Returns [`TensorError::MatmulMismatch`] for any other rank combination or
/// inner-dimension disagreement; the error message names the offending
/// `(m,k) x (k',n)` dimensions.
pub fn matmul(a: &NdArray, b: &NdArray) -> Result<NdArray> {
    gemm(Layout::NN, a, b)
}

/// Reference matrix product: the same rank dispatch as [`matmul`] but
/// always through the seed `i-k-j` loop, serially. The packed microkernel
/// is property-tested to be bit-identical to this (here and in the
/// determinism suite); it also anchors perf comparisons in the benches.
pub fn matmul_reference(a: &NdArray, b: &NdArray) -> Result<NdArray> {
    let err = || TensorError::MatmulMismatch { lhs: a.shape().to_vec(), rhs: b.shape().to_vec() };
    match (a.rank(), b.rank()) {
        (2, 2) => {
            let (m, k) = (a.shape()[0], a.shape()[1]);
            let (k2, n) = (b.shape()[0], b.shape()[1]);
            if k != k2 {
                return Err(err());
            }
            let mut out = NdArray::zeros(&[m, n]);
            matmul_rows_reference(a.data(), b.data(), out.data_mut(), 0, k, n);
            Ok(out)
        }
        (3, 3) => {
            let (bs, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
            let (bs2, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
            if k != k2 || bs != bs2 {
                return Err(err());
            }
            let mut out = NdArray::zeros(&[bs, m, n]);
            let per = m * n;
            if per > 0 {
                let (ad, bd) = (a.data(), b.data());
                for (i, o_sl) in out.data_mut().chunks_mut(per).enumerate() {
                    matmul_rows_reference(
                        &ad[i * m * k..(i + 1) * m * k],
                        &bd[i * k * n..(i + 1) * k * n],
                        o_sl,
                        0,
                        k,
                        n,
                    );
                }
            }
            Ok(out)
        }
        (3, 2) => {
            let (bs, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
            let (k2, n) = (b.shape()[0], b.shape()[1]);
            if k != k2 {
                return Err(err());
            }
            let mut out = NdArray::zeros(&[bs, m, n]);
            matmul_rows_reference(a.data(), b.data(), out.data_mut(), 0, k, n);
            Ok(out)
        }
        _ => Err(err()),
    }
}

// ---------------------------------------------------------------------------
// Transpose-aware variants (DESIGN.md §12).
//
// Every forward matmul spawns two backward products that read a *transposed*
// operand (`dA = G·Bᵀ`, `dB = Aᵀ·G`). Because `NdArray` is strictly
// contiguous row-major, computing those through [`matmul`] first materializes
// the transposed copy and then packs it again — two redundant passes over
// memory per matmul node. The packing stage already reorders memory, so it
// can just as well read the *untransposed* operand with strides:
//
// * `Bᵀ` panels are packed by walking `B`'s rows ([`pack_bt_panels`]),
// * `Aᵀ` row blocks are packed by walking `A`'s columns ([`pack_at_block`]),
//
// producing byte-identical packed buffers to the materialize-then-pack path.
// From there the unchanged microkernel runs, so the §10 bit-exactness
// contract (same f32 additions, ascending-k order, ±0.0 skip, thread-count
// invariance) carries over verbatim: `matmul_nt(a, b)` is bit-equal to
// `matmul(a, &b.transpose())` and `matmul_tn(a, b)` to
// `matmul(&a.transpose(), b)` — property-tested below.
// ---------------------------------------------------------------------------

/// `shape` with its last two axes swapped — the shape the operand *would*
/// have after `transpose()`, used so `matmul_nt`/`matmul_tn` errors name the
/// same effective `(m,k) x (k',n)` dimensions as the equivalent [`matmul`].
fn transposed_dims(shape: &[usize]) -> Vec<usize> {
    let mut v = shape.to_vec();
    let r = v.len();
    if r >= 2 {
        v.swap(r - 2, r - 1);
    }
    v
}

/// Packs `Bᵀ` into `NR`-wide column panels **directly from the untransposed**
/// `b` (`n x k`, row-major): column `j0 + c` of `Bᵀ` is row `j0 + c` of `B`,
/// so the packer walks `B`'s rows with contiguous reads and stride-`NR`
/// writes. Writes the exact bytes [`pack_b_panels`] would produce from a
/// materialized `b.transpose()`:
/// `packed[p][kk][c] == Bᵀ[kk][p*NR + c] == b[(p*NR + c) * k + kk]`.
pub(crate) fn pack_bt_panels(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(packed.len(), panel_count(n) * k * NR);
    if k == 0 {
        return; // zero-size inner axis: nothing to pack, output stays 0
    }
    for (p, panel) in packed.chunks_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for c in 0..w {
            let brow = &b[(j0 + c) * k..(j0 + c + 1) * k];
            for (kk, &v) in brow.iter().enumerate() {
                panel[kk * NR + c] = v;
            }
        }
        // Right-edge panel: zero-pad the missing columns, as pack_b_panels
        // does for a materialized transpose.
        for c in w..NR {
            for kk in 0..k {
                panel[kk * NR + c] = 0.0;
            }
        }
    }
}

/// Reference row-range core for `out = a · bᵀ` with `b` given untransposed
/// (`n x k`, row-major): the exact operation sequence of
/// [`matmul_rows_reference`] on a materialized `b.transpose()`, reading
/// `bᵀ[kk][j]` as `b[j*k + kk]`. Serves tiny products and anchors the
/// bitwise property tests for the packed `nt` path.
pub(crate) fn matmul_nt_rows_reference(
    a: &[f32],
    b: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    out_chunk.fill(0.0);
    if n == 0 {
        return; // zero-width rows: nothing to compute
    }
    for (li, orow) in out_chunk.chunks_mut(n).enumerate() {
        let i = row0 + li;
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (j, o) in orow.iter_mut().enumerate() {
                *o += av * b[j * k + kk];
            }
        }
    }
}

/// Reference row-range core for the transposed-left product: computes rows
/// `[row0, row0 + out_chunk.len()/n)` of the effective `[rows, kdim]` left
/// matrix formed by stacking each batch entry's `aᵀ` (`a` is
/// `[bs, kdim, m]` flattened; `bs == 1` gives the plain 2-D `aᵀ · b`). Row
/// `i`'s element `kk` is read in place as `a[(i/m)·kdim·m + kk·m + i%m]` —
/// the same value, consumed in the same ascending-`k` order with the same
/// `0.0` skip, as [`matmul_rows_reference`] sees on a materialized
/// transpose.
pub(crate) fn matmul_tn_rows_reference(
    a: &[f32],
    b: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    kdim: usize,
    m: usize,
    n: usize,
) {
    out_chunk.fill(0.0);
    if n == 0 {
        return; // zero-width rows: nothing to compute
    }
    for (li, orow) in out_chunk.chunks_mut(n).enumerate() {
        let i = row0 + li;
        let base = (i / m) * kdim * m + (i % m);
        for kk in 0..kdim {
            let av = a[base + kk * m];
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Packs `mr` rows of the effective transposed-left matrix (row addressing
/// as in [`matmul_tn_rows_reference`]) into a contiguous `mr x kdim` block
/// by walking `a`'s columns. The strided column reads happen *once per row
/// block* and amortize over every packed panel the block is multiplied
/// against; the block holds the exact bytes of the materialized `aᵀ` rows.
fn pack_at_block(a: &[f32], kdim: usize, m: usize, i0: usize, mr: usize, dst: &mut [f32]) {
    for r in 0..mr {
        let i = i0 + r;
        let base = (i / m) * kdim * m + (i % m);
        for (kk, o) in dst[r * kdim..(r + 1) * kdim].iter_mut().enumerate() {
            *o = a[base + kk * m];
        }
    }
}

/// Packed row-range core for the transposed-left product: packs each
/// `MR`-row block of `aᵀ` from `a`'s columns (pooled scratch, reused across
/// blocks) and hands it to the unchanged [`matmul_rows_packed`] microkernel.
/// Because the block holds byte-identical values to the materialized `aᵀ`
/// rows and block boundaries fall at the same offsets (both paths restart
/// `MR`-blocking at each chunk start), the dense-block dispatch and every
/// f32 operation match the materialized path bit for bit.
fn matmul_tn_rows_packed(
    a: &[f32],
    kdim: usize,
    m: usize,
    packed: &[f32],
    out_chunk: &mut [f32],
    row0: usize,
    n: usize,
) {
    let m_chunk = out_chunk.len() / n.max(1);
    let mut ablock = Buffer::zeroed(MR * kdim);
    let mut i = 0;
    while i < m_chunk {
        let mr = MR.min(m_chunk - i);
        pack_at_block(a, kdim, m, row0 + i, mr, &mut ablock[..mr * kdim]);
        matmul_rows_packed(
            &ablock[..mr * kdim],
            packed,
            &mut out_chunk[i * n..(i + mr) * n],
            0,
            kdim,
            n,
        );
        i += mr;
    }
}

/// `a · bᵀ` with `b` passed **untransposed** — no transposed copy is ever
/// materialized; the `Bᵀ` panels are packed straight from `B`'s rows.
///
/// Rank dispatch (shapes of the operands *as given*):
///
/// * `[m,k] x [n,k] -> [m,n]`
/// * `[bs,m,k] x [bs,n,k] -> [bs,m,n]` (batched, parallel across entries)
/// * `[bs,m,k] x [n,k] -> [bs,m,n]` (shared right operand, folded GEMM)
///
/// Bit-identical to `matmul(a, &b.transpose())` for every input, including
/// signed zeros and non-finite values (property-tested).
///
/// # Errors
/// Returns [`TensorError::MatmulMismatch`] for any other rank combination or
/// inner-dimension disagreement. The error names the *effective* transposed
/// right-operand shape, matching what the equivalent [`matmul`] would
/// report.
pub fn matmul_nt(a: &NdArray, b: &NdArray) -> Result<NdArray> {
    gemm(Layout::NT, a, b)
}

/// `aᵀ · b` with `a` passed **untransposed** — no transposed copy is ever
/// materialized; `MR`-row blocks of `Aᵀ` are packed straight from `A`'s
/// columns.
///
/// Rank dispatch (shapes of the operands *as given*):
///
/// * `[k,m] x [k,n] -> [m,n]`
/// * `[bs,k,m] x [bs,k,n] -> [bs,m,n]` (batched, parallel across entries)
/// * `[bs,k,m] x [k,n] -> [bs,m,n]` (shared right operand, one packed `b`)
///
/// Bit-identical to `matmul(&a.transpose(), b)` for every input
/// (property-tested).
///
/// # Errors
/// Returns [`TensorError::MatmulMismatch`] for any other rank combination or
/// inner-dimension disagreement. The error names the *effective* transposed
/// left-operand shape, matching what the equivalent [`matmul`] would report.
pub fn matmul_tn(a: &NdArray, b: &NdArray) -> Result<NdArray> {
    gemm(Layout::TN, a, b)
}

/// Batch-folded `Aᵀ·G` for the rank-3 × rank-2 backward of
/// `[bs,m,k] x [k,n]`: `a` is `[bs,m,k]`, `g` is `[bs,m,n]`, result is
/// `[k,n]`. Both folds are *already contiguous* `[bs*m, ·]` matrices, so
/// this runs one 2-D transposed-left GEMM over the raw data — no reshape
/// copies, no transpose. Bit-identical to
/// `matmul(&a.reshape([bs*m,k]).transpose(), &g.reshape([bs*m,n]))`.
pub(crate) fn matmul_tn_fold(a: &NdArray, g: &NdArray) -> Result<NdArray> {
    debug_assert_eq!(a.rank(), 3);
    debug_assert_eq!(g.rank(), 3);
    let (bs, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let n = g.shape()[2];
    if g.shape()[0] != bs || g.shape()[1] != m {
        return Err(TensorError::MatmulMismatch {
            lhs: vec![k, bs * m],
            rhs: vec![g.shape()[0] * g.shape()[1], n],
        });
    }
    let mut out = NdArray::zeros(&[k, n]);
    gemm2d(Layout::TN, a.data(), g.data(), out.data_mut(), k, bs * m, n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{prop, prop_assert, prop_assert_eq};

    #[test]
    fn matmul_2d_known_values() {
        let a = NdArray::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = NdArray::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = NdArray::from_fn(&[4, 4], |i| i as f32);
        let c = matmul(&a, &NdArray::eye(4)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_batched() {
        let a = NdArray::from_fn(&[2, 2, 3], |i| i as f32);
        let b = NdArray::from_fn(&[2, 3, 2], |i| (i % 5) as f32);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        // Verify batch 1, element [0,0] by hand.
        // a[1,0,:] = [6,7,8]; b[1,:,0] = b flat idx 6,8,10 -> values 1,3,0
        let expected = 6.0 * 1.0 + 7.0 * 3.0 + 8.0 * 0.0;
        assert_eq!(c.at(&[1, 0, 0]), expected);
    }

    #[test]
    fn matmul_broadcast_rhs() {
        let a = NdArray::from_fn(&[2, 3, 4], |i| i as f32);
        let b = NdArray::eye(4);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 3, 4]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = NdArray::zeros(&[2, 3]);
        let b = NdArray::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        let v = NdArray::zeros(&[3]);
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn mismatch_error_names_offending_dims() {
        let a = NdArray::zeros(&[2, 3]);
        let b = NdArray::zeros(&[4, 5]);
        let msg = matmul(&a, &b).unwrap_err().to_string();
        assert!(msg.contains("(2,3) x (4,5)"), "message: {msg}");
        assert!(msg.contains("inner dimensions 3 vs 4"), "message: {msg}");
        // Batched mismatch: inner dims agree but batch sizes differ.
        let a3 = NdArray::zeros(&[2, 3, 4]);
        let b3 = NdArray::zeros(&[5, 4, 6]);
        let msg = matmul(&a3, &b3).unwrap_err().to_string();
        assert!(msg.contains("(3,4) x (4,6)"), "message: {msg}");
        assert!(msg.contains("batch dimensions 2 vs 5"), "message: {msg}");
    }

    #[test]
    fn matmul_matches_naive_reference() {
        let a = NdArray::from_fn(&[5, 7], |i| (i as f32 * 0.37).sin());
        let b = NdArray::from_fn(&[7, 4], |i| (i as f32 * 0.21).cos());
        let c = matmul(&a, &b).unwrap();
        for i in 0..5 {
            for j in 0..4 {
                let mut acc = 0.0f32;
                for k in 0..7 {
                    acc += a.at(&[i, k]) * b.at(&[k, j]);
                }
                assert!((c.at(&[i, j]) - acc).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn parallel_matmul_is_bit_exact() {
        // Force multi-chunk fan-out on small inputs and compare against the
        // single-thread result elementwise with exact equality.
        let a = NdArray::from_fn(&[17, 23], |i| (i as f32 * 0.71).sin());
        let b = NdArray::from_fn(&[23, 13], |i| (i as f32 * 0.29).cos());
        let serial = pool::with_threads(1, || matmul(&a, &b).unwrap());
        for threads in [2usize, 4] {
            let par = pool::with_threads(threads, || {
                pool::with_grain(32, || matmul(&a, &b).unwrap())
            });
            assert_eq!(serial, par, "threads={threads}");
        }
        // Batched dispatch too.
        let a3 = NdArray::from_fn(&[6, 5, 7], |i| (i as f32 * 0.13).sin());
        let b3 = NdArray::from_fn(&[6, 7, 4], |i| (i as f32 * 0.41).cos());
        let serial = pool::with_threads(1, || matmul(&a3, &b3).unwrap());
        let par = pool::with_threads(4, || pool::with_grain(16, || matmul(&a3, &b3).unwrap()));
        assert_eq!(serial, par);
    }

    /// The ISSUE's shape grid: odd, power-of-two, and just-past-block
    /// sizes, plus the zero-size edges.
    const DIMS: [usize; 7] = [0, 1, 3, 7, 17, 64, 129];

    /// Inputs with exact zeros sprinkled in (so the `av == 0.0` skip path
    /// is exercised), plus negative zero and denormal-ish values.
    fn grid_array(shape: &[usize], salt: u64) -> NdArray {
        NdArray::from_fn(shape, |i| {
            let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
            match x % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => (x % 1000) as f32 / 61.0 - 8.0,
            }
        })
    }

    prop! {
        #![config(cases = 48)]

        fn packed_matches_reference_bitwise(
            mi in 0usize..7,
            ki in 0usize..7,
            ni in 0usize..7,
            salt in 0u64..1000
        ) {
            let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
            let a = grid_array(&[m, k], salt);
            let b = grid_array(&[k, n], salt ^ 0xdead);
            let fast = matmul(&a, &b).unwrap();
            let reference = matmul_reference(&a, &b).unwrap();
            // Bitwise comparison: identical f32 sequences, not just close.
            let fb: Vec<u32> = fast.data().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(fb, rb);
        }

        fn packed_matches_reference_batched(
            bs in 1usize..5,
            mi in 0usize..7,
            ki in 0usize..7,
            ni in 0usize..7
        ) {
            let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
            let a = grid_array(&[bs, m, k], bs as u64);
            let b3 = grid_array(&[bs, k, n], 17);
            let fast = matmul(&a, &b3).unwrap();
            let reference = matmul_reference(&a, &b3).unwrap();
            prop_assert_eq!(fast.data(), reference.data());
            prop_assert!(fast.data().iter().zip(reference.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            // Shared-rhs dispatch.
            let b2 = grid_array(&[k, n], 23);
            let fast = matmul(&a, &b2).unwrap();
            let reference = matmul_reference(&a, &b2).unwrap();
            prop_assert!(fast.data().iter().zip(reference.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    /// Shape grid for the transpose-aware variants: the ISSUE grid plus
    /// both sides of the `MIN_PACKED_DIM` (= 4) packed/reference boundary.
    const TDIMS: [usize; 9] = [0, 1, 3, 4, 5, 7, 17, 64, 129];

    /// Bitwise equality helper for the nt/tn contract tests.
    fn assert_bits_eq(fast: &NdArray, reference: &NdArray, ctx: &str) {
        assert_eq!(fast.shape(), reference.shape(), "{ctx}: shapes differ");
        for (i, (x, y)) in fast.data().iter().zip(reference.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i}: {x} vs {y}");
        }
    }

    prop! {
        #![config(cases = 48)]

        /// Tentpole contract: `matmul_nt(a, b)` is byte-identical to
        /// `matmul(a, b.transpose())` across shapes spanning zero-size,
        /// `MIN_PACKED_DIM` boundaries, and multi-chunk sizes, at thread
        /// counts 1/2/4 (with a tiny grain so small shapes still fan out).
        fn nt_matches_materialized_bitwise(
            mi in 0usize..9,
            ki in 0usize..9,
            ni in 0usize..9,
            salt in 0u64..1000
        ) {
            let (m, k, n) = (TDIMS[mi], TDIMS[ki], TDIMS[ni]);
            let a = grid_array(&[m, k], salt);
            let b = grid_array(&[n, k], salt ^ 0xbeef);
            let want = matmul(&a, &b.transpose()).unwrap();
            for threads in [1usize, 2, 4] {
                let got = pool::with_threads(threads, || {
                    pool::with_grain(64, || matmul_nt(&a, &b).unwrap())
                });
                assert_bits_eq(&got, &want, &format!("nt {m}x{k}x{n} t{threads}"));
            }
        }

        /// Tentpole contract: `matmul_tn(a, b)` is byte-identical to
        /// `matmul(a.transpose(), b)` under the same shape/thread sweep.
        fn tn_matches_materialized_bitwise(
            mi in 0usize..9,
            ki in 0usize..9,
            ni in 0usize..9,
            salt in 0u64..1000
        ) {
            let (m, k, n) = (TDIMS[mi], TDIMS[ki], TDIMS[ni]);
            let a = grid_array(&[k, m], salt);
            let b = grid_array(&[k, n], salt ^ 0xfeed);
            let want = matmul(&a.transpose(), &b).unwrap();
            for threads in [1usize, 2, 4] {
                let got = pool::with_threads(threads, || {
                    pool::with_grain(64, || matmul_tn(&a, &b).unwrap())
                });
                assert_bits_eq(&got, &want, &format!("tn {m}x{k}x{n} t{threads}"));
            }
        }

        /// Batched (3,3) and shared-rhs (3,2) dispatch for both variants.
        fn nt_tn_batched_match_materialized(
            bs in 1usize..5,
            mi in 0usize..9,
            ki in 0usize..9,
            ni in 0usize..9
        ) {
            let (m, k, n) = (TDIMS[mi], TDIMS[ki], TDIMS[ni]);
            let a_nt = grid_array(&[bs, m, k], bs as u64);
            let b_nt3 = grid_array(&[bs, n, k], 31);
            let want = matmul(&a_nt, &b_nt3.transpose()).unwrap();
            let got = pool::with_threads(2, || {
                pool::with_grain(64, || matmul_nt(&a_nt, &b_nt3).unwrap())
            });
            assert_bits_eq(&got, &want, "nt (3,3)");
            let b_nt2 = grid_array(&[n, k], 37);
            let want = matmul(&a_nt, &b_nt2.transpose()).unwrap();
            let got = matmul_nt(&a_nt, &b_nt2).unwrap();
            assert_bits_eq(&got, &want, "nt (3,2)");

            let a_tn = grid_array(&[bs, k, m], bs as u64 ^ 0x55);
            let b_tn3 = grid_array(&[bs, k, n], 41);
            let want = matmul(&a_tn.transpose(), &b_tn3).unwrap();
            let got = pool::with_threads(2, || {
                pool::with_grain(64, || matmul_tn(&a_tn, &b_tn3).unwrap())
            });
            assert_bits_eq(&got, &want, "tn (3,3)");
            let b_tn2 = grid_array(&[k, n], 43);
            let want = matmul(&a_tn.transpose(), &b_tn2).unwrap();
            let got = matmul_tn(&a_tn, &b_tn2).unwrap();
            assert_bits_eq(&got, &want, "tn (3,2)");

            // The backward batch fold (rank-3 a, rank-3 g, shared-rhs grad).
            let g = grid_array(&[bs, m, n], 47);
            let a_f = grid_array(&[bs, m, k], 53);
            if let (Ok(a2), Ok(g2)) = (a_f.reshape(&[bs * m, k]), g.reshape(&[bs * m, n])) {
                let want = matmul(&a2.transpose(), &g2).unwrap();
                let got = matmul_tn_fold(&a_f, &g).unwrap();
                assert_bits_eq(&got, &want, "tn fold");
            }
        }
    }

    #[test]
    fn nt_tn_reject_mismatch_with_effective_dims() {
        // matmul_nt([2,3], [5,4]): effective product (2,3) x (4,5).
        let a = NdArray::zeros(&[2, 3]);
        let b = NdArray::zeros(&[5, 4]);
        let msg = matmul_nt(&a, &b).unwrap_err().to_string();
        assert!(msg.contains("(2,3) x (4,5)"), "message: {msg}");
        // matmul_tn([3,2], [4,5]): effective product (2,3) x (4,5).
        let a = NdArray::zeros(&[3, 2]);
        let b = NdArray::zeros(&[4, 5]);
        let msg = matmul_tn(&a, &b).unwrap_err().to_string();
        assert!(msg.contains("(2,3) x (4,5)"), "message: {msg}");
        // Batch mismatch: effective product (3,4) x (4,6) for both layouts.
        let msg = matmul_nt(&NdArray::zeros(&[2, 3, 4]), &NdArray::zeros(&[5, 6, 4]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("(3,4) x (4,6)"), "message: {msg}");
        assert!(msg.contains("batch dimensions 2 vs 5"), "message: {msg}");
        let msg = matmul_tn(&NdArray::zeros(&[2, 4, 3]), &NdArray::zeros(&[5, 4, 6]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("(3,4) x (4,6)"), "message: {msg}");
        assert!(msg.contains("batch dimensions 2 vs 5"), "message: {msg}");
        // Rank mismatches are rejected, not panicked on.
        let v = NdArray::zeros(&[3]);
        assert!(matmul_nt(&a, &v).is_err());
        assert!(matmul_tn(&v, &b).is_err());
        // A rank-2 left operand never pairs with a rank-3 right one, even
        // when the inner dims agree.
        let (a2, b3) = (NdArray::zeros(&[3, 3]), NdArray::zeros(&[2, 3, 3]));
        for result in [matmul(&a2, &b3), matmul_nt(&a2, &b3), matmul_tn(&a2, &b3)] {
            assert!(matches!(result, Err(TensorError::MatmulMismatch { .. })));
        }
    }

    #[test]
    fn nt_tn_handle_nonfinite_like_materialized() {
        // The ±0.0 skip is what makes inf/NaN inputs order-sensitive; pin
        // the strided paths to the materialized behavior on those too.
        let vals = vec![
            0.0,
            f32::INFINITY,
            -0.0,
            f32::NAN,
            2.0,
            f32::NEG_INFINITY,
            1.0,
            3.0,
            -1.0,
            0.0,
            4.0,
            -2.0,
        ];
        let a = NdArray::from_vec(&[4, 3], vals.clone()).unwrap();
        let b = NdArray::from_vec(&[4, 3], vals.into_iter().rev().collect()).unwrap();
        let want = matmul(&a, &b.transpose()).unwrap();
        let got = matmul_nt(&a, &b).unwrap();
        assert_bits_eq(&got, &want, "nt nonfinite");
        let want = matmul(&a.transpose(), &b).unwrap();
        let got = matmul_tn(&a, &b).unwrap();
        assert_bits_eq(&got, &want, "tn nonfinite");
    }

    #[test]
    fn packed_handles_nonfinite_b_like_reference() {
        // The zero-skip changes results when b holds inf/NaN: 0 * inf = NaN
        // would poison the sum if the skip were dropped. Pin the packed
        // kernel to the reference behavior.
        let a = NdArray::from_vec(&[4, 2], vec![0.0, 1.0, 2.0, 0.0, -0.0, 3.0, 1.0, 1.0]).unwrap();
        let b = NdArray::from_vec(
            &[2, 4],
            vec![f32::INFINITY, 1.0, f32::NAN, 2.0, 3.0, f32::NEG_INFINITY, 4.0, 5.0],
        )
        .unwrap();
        let fast = matmul(&a, &b).unwrap();
        let reference = matmul_reference(&a, &b).unwrap();
        for (x, y) in fast.data().iter().zip(reference.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "fast {x} vs reference {y}");
        }
    }
}
