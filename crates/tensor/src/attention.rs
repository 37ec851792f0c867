//! Fused tiled attention (DESIGN.md §17).
//!
//! Computes `softmax(Q·Kᵀ·s + mask)·V` without ever materializing the
//! `[B·H, T, T]` score tensor. The composed path (the seed code, kept as
//! the test oracle [`attention_reference`]) allocates five to six
//! `T²`-sized intermediates per attention call — raw scores, scaled scores,
//! masked scores, probabilities, dropped probabilities — and streams each
//! of them through main memory twice. The fused kernel instead walks the
//! output in [`MR`]-row blocks: each block's scores live in one pooled
//! `[MR, T]` scratch strip that stays cache-hot through scale → mask →
//! softmax → dropout → `·V`, so peak attention scratch is
//! `O(MR·T + T·Dh)` (the packed panels) — linear in `T`, not quadratic.
//!
//! # Bitwise equality with the composed path
//!
//! Every `f32` a fused call produces is bit-identical to the
//! composed chain `matmul_nt → scale → add mask → softmax_lastdim →
//! mul mask → matmul` (property-tested below and in the determinism
//! suite). The argument is per output element, the same shape as the
//! packed-GEMM proof in `matmul.rs`:
//!
//! * **Scores.** The composed `matmul_nt` dispatches per batch entry to the
//!   packed microkernel when `use_packed(t, t)`, else to the reference
//!   loop. The fused kernel packs the same `Kᵀ` panels with the same
//!   [`pack_bt_panels`] and runs the same [`matmul_rows_packed`] core (or
//!   the same reference loop) — packing reorders memory, never values, and
//!   the microkernel's per-element operation sequence is independent of
//!   row-block and chunk boundaries.
//! * **Scale / mask.** `row[j] * scale` then `row[j] + mask[i][j]` in
//!   ascending `j` — exactly the composed `map`/`zip_map` per-element ops.
//!   When `causal` the add happens for every element including the `0.0`
//!   mask entries (`-0.0 + 0.0 == +0.0`, so skipping the add would flip
//!   signed zeros); when not causal the composed graph has *no* add node,
//!   so the fused kernel adds nothing either.
//! * **Softmax.** The per-row schedule of `softmax_lastdim` verbatim:
//!   left-to-right `f32::max` fold from `NEG_INFINITY`, `exp` in ascending
//!   `j`, left-to-right sum from `0.0`, divide in ascending `j`. Rows never
//!   split across chunks, so the reduction order is blocking-invariant.
//!   A causal row skips its masked tail's max, `exp` and sum steps when
//!   every tail score sits more than 120 below the row maximum: each skipped
//!   step would leave the bits unchanged (see `finish_rows_exact`).
//! * **Output.** The composed `matmul` packs each entry's `V` with
//!   [`pack_b_panels`] and runs the identical microkernel over the
//!   probability rows; the fused kernel feeds it the same probability bits
//!   from scratch instead of from a materialized array.
//!
//! The backward pass recomputes tile statistics instead of reading saved
//! probabilities and replays the composed backward chain per element:
//! `dAttn = G·Vᵀ` (packed `nt` kernel), the softmax Jacobian row schedule
//! `gs[j] = gp[j]·p[j]`, `dot = Σ_j gs[j]` (ascending from `0.0`),
//! `gn1[j] = (p[j]·(gp[j]−dot))·scale`, then `dQ = gn1·K` (packed kernel)
//! and streaming ascending-`i` rank-1 updates for `dK`/`dV` that perform,
//! per element, the same skip-zero multiply-adds as
//! `matmul_tn_rows_reference` — which the packed `tn` path is itself
//! property-tested bit-identical to. Parallelism in the backward fans out
//! across batch-head entries only; the `dK`/`dV` accumulators for one
//! entry are owned by one closure, so no cross-chunk reduction ever
//! reorders their sums.

use crate::array::NdArray;
use crate::bufpool::Buffer;
use crate::error::{Result, TensorError};
use crate::math::{self, EXP_UNDERFLOW};
use crate::matmul::{
    matmul_nt_rows_reference, matmul_rows_packed, matmul_rows_reference, pack_b_panels,
    pack_bt_panels, panel_count, use_packed, MATMUL_GRAIN, MR, NR,
};
use testkit::pool;

/// The additive mask value for disallowed (future) positions, added to
/// scores above the diagonal exactly as the composed graph's materialized
/// mask ([`attention_reference`]) adds it.
const MASK_NEG: f32 = -1e9;

/// Validates that `q`, `k`, `v` are rank-3 `[bh, t, dh]` with identical
/// shapes and returns `(bh, t, dh)`.
fn validate(q: &NdArray, k: &NdArray, v: &NdArray) -> Result<(usize, usize, usize)> {
    let qs = q.shape();
    if q.rank() != 3 || k.shape() != qs || v.shape() != qs {
        let rhs = if k.shape() != qs { k.shape() } else { v.shape() };
        return Err(TensorError::MatmulMismatch { lhs: qs.to_vec(), rhs: rhs.to_vec() });
    }
    Ok((qs[0], qs[1], qs[2]))
}

/// Validates an optional `[bh, t, t]` dropout mask against the q/k/v batch
/// geometry.
fn validate_mask(mask: Option<&NdArray>, bh: usize, t: usize) -> Result<()> {
    if let Some(m) = mask {
        if m.shape() != [bh, t, t] {
            return Err(TensorError::BroadcastMismatch {
                lhs: m.shape().to_vec(),
                rhs: vec![bh, t, t],
            });
        }
    }
    Ok(())
}

/// Finishes a strip of at most [`MR`] raw score rows in place, in the
/// composed path's exact per-element order: `* scale`, `+ mask` (causal
/// only — the non-causal composed graph has no add node, and adding `0.0`
/// would turn `-0.0` into `+0.0`), the seed softmax row schedule, then the
/// optional dropout-mask multiply. `row0` is the entry-local index of the
/// first row; `drop` is the entry's `[t, t]` mask slice.
///
/// Runs the widest instantiation the host supports. Every step is a plain
/// IEEE op per element, or a per-row chain kept in order, and rustc never
/// contracts a `mul` and an `add` into an FMA, so both give the same bits.
fn finish_rows_exact(
    strip: &mut [f32],
    t: usize,
    row0: usize,
    scale: f32,
    causal: bool,
    drop: Option<&[f32]>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: gated on runtime AVX2 detection; the fn is a safe Rust
        // body that only needs the feature to be legal to execute.
        unsafe {
            return finish_rows_avx2(strip, t, row0, scale, causal, drop);
        }
    }
    finish_rows(strip, t, row0, scale, causal, drop);
}

/// [`finish_rows`] compiled with 256-bit vectors enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn finish_rows_avx2(
    strip: &mut [f32],
    t: usize,
    row0: usize,
    scale: f32,
    causal: bool,
    drop: Option<&[f32]>,
) {
    finish_rows(strip, t, row0, scale, causal, drop);
}

/// The body of [`finish_rows_exact`].
#[inline(always)]
fn finish_rows(
    strip: &mut [f32],
    t: usize,
    row0: usize,
    scale: f32,
    causal: bool,
    drop: Option<&[f32]>,
) {
    debug_assert!(strip.len() <= MR * t);
    // How many leading elements of each row enter its softmax sum.
    let mut lens = [t; MR];
    for (r, row) in strip.chunks_mut(t).enumerate() {
        let i = row0 + r;
        for x in row.iter_mut() {
            *x = *x * scale;
        }
        if causal {
            for (j, x) in row.iter_mut().enumerate() {
                *x = *x + if j > i { MASK_NEG } else { 0.0 };
            }
        }
        // softmax_lastdim's row body, except that a causal row's masked
        // tail skips its work when every tail `exp` provably returns +0.0.
        // If each tail `x` has `x - m < EXP_UNDERFLOW` for the head's
        // maximum `m`, each is below `m` (NaN fails the test), so the
        // full-row fold still ends at `m`; each tail `exp(x - m)` is +0.0;
        // and adding +0.0 leaves the head's sum unchanged (it holds
        // `exp(m - m) = 1`, or NaN when `m` is infinite).
        let (head, tail) = row.split_at_mut(if causal { (i + 1).min(t) } else { t });
        let m = max_lanes(head, f32::NEG_INFINITY);
        let tail_underflows = tail.iter().fold(true, |ok, &x| ok & (x - m < EXP_UNDERFLOW));
        let m = if tail_underflows { m } else { max_lanes(tail, m) };
        for x in head.iter_mut() {
            *x = math::exp(*x - m);
        }
        if tail_underflows {
            tail.fill(0.0);
            lens[r] = head.len();
        } else {
            for x in tail.iter_mut() {
                *x = math::exp(*x - m);
            }
        }
    }
    let sums = row_sums(strip, t, &lens);
    for (r, row) in strip.chunks_mut(t).enumerate() {
        let s = sums[r];
        for x in row.iter_mut() {
            *x /= s;
        }
        if let Some(dm) = drop {
            let i = row0 + r;
            for (x, &mv) in row.iter_mut().zip(&dm[i * t..(i + 1) * t]) {
                *x = *x * mv;
            }
        }
    }
}

/// `xs.iter().fold(init, f32::max)` for a non-NaN `init`, folded in eight
/// lanes so that it vectorizes. NaN elements are skipped (`x > a` is
/// false), as `f32::max` skips them, and a maximum does not depend on the
/// fold order — except for the sign of a zero maximum, which no caller can
/// see: `x - (±0.0)` is `x` for every nonzero `x`, and `exp` of either zero
/// is exactly 1.
#[inline(always)]
fn max_lanes(xs: &[f32], init: f32) -> f32 {
    const LANES: usize = 8;
    let mut acc = [init; LANES];
    let mut blocks = xs.chunks_exact(LANES);
    for block in &mut blocks {
        for (a, &x) in acc.iter_mut().zip(block) {
            *a = if x > *a { x } else { *a };
        }
    }
    acc.iter().chain(blocks.remainder()).fold(init, |m, &x| if x > m { x } else { m })
}

/// Each strip row's left-to-right sum of its first `lens[r]` elements,
/// from `0.0`. A sum is one serial chain of adds; a full strip runs its
/// [`MR`] chains side by side so their latencies overlap, each row's adds
/// still in ascending order, so every sum keeps its bits.
#[inline(always)]
fn row_sums(strip: &[f32], t: usize, lens: &[usize; MR]) -> [f32; MR] {
    const _: () = assert!(MR == 4, "row_sums interleaves four rows");
    let mut sums = [0.0f32; MR];
    let mut done = 0;
    if strip.len() == 4 * t {
        let (a, rest) = strip.split_at(t);
        let (b, rest) = rest.split_at(t);
        let (c, d) = rest.split_at(t);
        done = lens.iter().copied().min().unwrap_or(0);
        for (((&a, &b), &c), &d) in a[..done].iter().zip(&b[..done]).zip(&c[..done]).zip(&d[..done]) {
            sums[0] += a;
            sums[1] += b;
            sums[2] += c;
            sums[3] += d;
        }
    }
    for ((s, row), &len) in sums.iter_mut().zip(strip.chunks_exact(t)).zip(lens) {
        for &x in &row[done..len] {
            *s += x;
        }
    }
    sums
}

/// Shared forward geometry: packed-path dispatch flags and per-entry panel
/// strides, mirroring the composed kernels' per-entry `use_packed` choices.
struct Tiling {
    /// Packed microkernel for the `Q·Kᵀ` scores (`m = t, n = t`)?
    score_packed: bool,
    /// Packed microkernel for the `probs·V` product (`m = t, n = dh`)?
    out_packed: bool,
    /// Length of one entry's packed `Kᵀ` panels.
    kt_len: usize,
    /// Length of one entry's packed `V` panels.
    vp_len: usize,
}

impl Tiling {
    fn new(t: usize, dh: usize) -> Self {
        Tiling {
            score_packed: use_packed(t, t),
            out_packed: use_packed(t, dh),
            kt_len: panel_count(t) * dh * NR,
            vp_len: panel_count(dh) * t * NR,
        }
    }
}

/// Packs every entry's `Kᵀ` panels (when the score product takes the packed
/// path) into one pooled buffer, shared read-only across the fan-out.
fn pack_kt_all(kd: &[f32], bh: usize, t: usize, dh: usize, tl: &Tiling) -> Buffer {
    let mut kt_all = Buffer::zeroed(if tl.score_packed { bh * tl.kt_len } else { 0 });
    if tl.score_packed {
        for e in 0..bh {
            pack_bt_panels(
                &kd[e * t * dh..(e + 1) * t * dh],
                dh,
                t,
                &mut kt_all[e * tl.kt_len..(e + 1) * tl.kt_len],
            );
        }
    }
    kt_all
}

/// Fused tiled attention: `softmax(q·kᵀ·scale + mask)·v` for
/// `[bh, t, dh]` operands, bit-identical to the composed
/// `matmul_nt → scale → (add causal mask) → softmax_lastdim →
/// (mul drop_mask) → matmul` chain at any thread count, with peak scratch
/// linear in `t` (see the module docs for the per-element argument).
///
/// `drop_mask`, when given, is a `[bh, t, t]` elementwise multiplier
/// applied to the probabilities (the tape's inverted-dropout mask).
///
/// # Errors
/// Returns [`TensorError::MatmulMismatch`] unless `q`, `k`, `v` are rank-3
/// with identical shapes, and [`TensorError::BroadcastMismatch`] if
/// `drop_mask` is not `[bh, t, t]`.
pub fn attention_fused(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    scale: f32,
    causal: bool,
    drop_mask: Option<&NdArray>,
) -> Result<NdArray> {
    let (bh, t, dh) = validate(q, k, v)?;
    validate_mask(drop_mask, bh, t)?;
    let mut out = NdArray::zeros(&[bh, t, dh]);
    if out.data().is_empty() {
        return Ok(out);
    }
    let (qd, kd, vd) = (q.data(), k.data(), v.data());
    let dm = drop_mask.map(NdArray::data);
    let tl = Tiling::new(t, dh);
    // Pack panels for every entry before the fan-out, shared read-only, so
    // chunking cannot perturb packed values (same discipline as matmul).
    let kt_all = pack_kt_all(kd, bh, t, dh, &tl);
    let mut v_all = Buffer::zeroed(if tl.out_packed { bh * tl.vp_len } else { 0 });
    if tl.out_packed {
        for e in 0..bh {
            pack_b_panels(
                &vd[e * t * dh..(e + 1) * t * dh],
                t,
                dh,
                &mut v_all[e * tl.vp_len..(e + 1) * tl.vp_len],
            );
        }
    }
    let (kt_all, v_all) = (&kt_all[..], &v_all[..]);
    // ~2·t·dh multiply-adds per output row (scores + output GEMMs).
    let row_cost = 2 * t * dh;
    let rows_per_chunk = if pool::should_parallelize(bh * t * row_cost, MATMUL_GRAIN) {
        (pool::grain(MATMUL_GRAIN) / row_cost.max(1)).clamp(1, bh * t)
    } else {
        bh * t
    };
    pool::for_each_chunk(out.data_mut(), rows_per_chunk * dh, |offset, chunk| {
        let mut scratch = Buffer::zeroed(MR * t);
        let row_first = offset / dh;
        let rows = chunk.len() / dh;
        let mut r = 0;
        while r < rows {
            let grow = row_first + r;
            let (e, i0) = (grow / t, grow % t);
            // At most MR rows, never crossing an entry boundary (each entry
            // has its own panels). Block offsets don't affect bits: the
            // microkernel's per-element sequence is blocking-invariant.
            let mr = MR.min(rows - r).min(t - i0);
            let qe = &qd[e * t * dh..(e + 1) * t * dh];
            let strip = &mut scratch[..mr * t];
            if tl.score_packed {
                matmul_rows_packed(qe, &kt_all[e * tl.kt_len..(e + 1) * tl.kt_len], strip, i0, dh, t);
            } else {
                matmul_nt_rows_reference(qe, &kd[e * t * dh..(e + 1) * t * dh], strip, i0, dh, t);
            }
            finish_rows_exact(strip, t, i0, scale, causal, dm.map(|d| &d[e * t * t..(e + 1) * t * t]));
            let oblock = &mut chunk[r * dh..(r + mr) * dh];
            if tl.out_packed {
                matmul_rows_packed(strip, &v_all[e * tl.vp_len..(e + 1) * tl.vp_len], oblock, 0, t, dh);
            } else {
                matmul_rows_reference(strip, &vd[e * t * dh..(e + 1) * t * dh], oblock, 0, t, dh);
            }
            r += mr;
        }
    });
    Ok(out)
}

/// Backward of [`attention_fused`]: recomputes probability tiles from
/// `q`/`k` (no saved `[t, t]` probabilities) and returns `(dq, dk, dv)`
/// for upstream gradient `g`, bit-identical to the composed tape's
/// backward chain (see module docs). Fans out across batch-head entries
/// only: each entry's `dk`/`dv` accumulators stream ascending-`i` rank-1
/// updates inside one closure, so the f32 sums are never re-associated.
///
/// # Errors
/// Same shape contract as [`attention_fused`]; `g` must be `[bh, t, dh]`.
pub fn attention_fused_backward(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    g: &NdArray,
    scale: f32,
    causal: bool,
    drop_mask: Option<&NdArray>,
) -> Result<(NdArray, NdArray, NdArray)> {
    let (bh, t, dh) = validate(q, k, v)?;
    if g.shape() != [bh, t, dh] {
        return Err(TensorError::MatmulMismatch {
            lhs: g.shape().to_vec(),
            rhs: vec![bh, t, dh],
        });
    }
    validate_mask(drop_mask, bh, t)?;
    let mut dq = NdArray::zeros(&[bh, t, dh]);
    let mut dk = NdArray::zeros(&[bh, t, dh]);
    let mut dv = NdArray::zeros(&[bh, t, dh]);
    if dq.data().is_empty() {
        return Ok((dq, dk, dv));
    }
    let (qd, kd, vd, gd) = (q.data(), k.data(), v.data(), g.data());
    let dm = drop_mask.map(NdArray::data);
    let tl = Tiling::new(t, dh);
    let kt_all = pack_kt_all(kd, bh, t, dh, &tl);
    // Panels for dAttn = G·Vᵀ (same geometry as the score product) and for
    // dQ = gn1·K (same geometry as the output product).
    let mut vt_all = Buffer::zeroed(if tl.score_packed { bh * tl.kt_len } else { 0 });
    let mut kb_all = Buffer::zeroed(if tl.out_packed { bh * tl.vp_len } else { 0 });
    for e in 0..bh {
        if tl.score_packed {
            pack_bt_panels(
                &vd[e * t * dh..(e + 1) * t * dh],
                dh,
                t,
                &mut vt_all[e * tl.kt_len..(e + 1) * tl.kt_len],
            );
        }
        if tl.out_packed {
            pack_b_panels(
                &kd[e * t * dh..(e + 1) * t * dh],
                t,
                dh,
                &mut kb_all[e * tl.vp_len..(e + 1) * tl.vp_len],
            );
        }
    }
    let (kt_all, vt_all, kb_all) = (&kt_all[..], &vt_all[..], &kb_all[..]);
    // Entry-granular fan-out into one combined [bh][dq|dk|dv] buffer so a
    // single disjoint &mut slice covers all three gradients of an entry.
    let per = t * dh;
    let mut grads = Buffer::zeroed(bh * 3 * per);
    // ~5 GEMM-equivalents per entry: dAttn, softmax rows, dQ, dK, dV.
    let entry_cost = 5 * t * t * dh;
    let entries_per_chunk = if pool::should_parallelize(bh * entry_cost, MATMUL_GRAIN) {
        (pool::grain(MATMUL_GRAIN) / entry_cost.max(1)).clamp(1, bh)
    } else {
        bh
    };
    pool::for_each_chunk(&mut grads, entries_per_chunk * 3 * per, |offset, chunk| {
        let mut pbuf = Buffer::zeroed(MR * t);
        let mut gbuf = Buffer::zeroed(MR * t);
        let first = offset / (3 * per);
        for (je, echunk) in chunk.chunks_mut(3 * per).enumerate() {
            let e = first + je;
            let qe = &qd[e * per..(e + 1) * per];
            let ke = &kd[e * per..(e + 1) * per];
            let ve = &vd[e * per..(e + 1) * per];
            let ge = &gd[e * per..(e + 1) * per];
            let dme = dm.map(|d| &d[e * t * t..(e + 1) * t * t]);
            let (dqe, rest) = echunk.split_at_mut(per);
            let (dke, dve) = rest.split_at_mut(per);
            let mut i0 = 0;
            while i0 < t {
                let mr = MR.min(t - i0);
                let pstrip = &mut pbuf[..mr * t];
                let gstrip = &mut gbuf[..mr * t];
                // Recompute this strip's probabilities (pre-dropout).
                if tl.score_packed {
                    matmul_rows_packed(qe, &kt_all[e * tl.kt_len..(e + 1) * tl.kt_len], pstrip, i0, dh, t);
                } else {
                    matmul_nt_rows_reference(qe, ke, pstrip, i0, dh, t);
                }
                finish_rows_exact(pstrip, t, i0, scale, causal, None);
                // dAttn strip: G·Vᵀ — the Matmul backward's `matmul_nt(g, v)`.
                if tl.score_packed {
                    matmul_rows_packed(ge, &vt_all[e * tl.kt_len..(e + 1) * tl.kt_len], gstrip, i0, dh, t);
                } else {
                    matmul_nt_rows_reference(ge, ve, gstrip, i0, dh, t);
                }
                for r in 0..mr {
                    let i = i0 + r;
                    let prow = &mut pstrip[r * t..(r + 1) * t];
                    let grow = &mut gstrip[r * t..(r + 1) * t];
                    // Dropout backward: gp = dAttn · mask (g on the left,
                    // as Backward::Dropout computes g.mul(mask)).
                    if let Some(d) = dme {
                        for (x, &mv) in grow.iter_mut().zip(&d[i * t..(i + 1) * t]) {
                            *x = *x * mv;
                        }
                    }
                    // Softmax backward, the composed row schedule:
                    // gs[j] = gp[j]·p[j]; dot = Σ_j gs[j] (ascending, from
                    // 0.0); ds[j] = p[j]·(gp[j]−dot); then ·scale.
                    let mut dot = 0.0f32;
                    for (&gp, &p) in grow.iter().zip(prow.iter()) {
                        dot += gp * p;
                    }
                    for (x, &p) in grow.iter_mut().zip(prow.iter()) {
                        *x = (p * (*x - dot)) * scale;
                    }
                    // Post-dropout probabilities for the dV stream.
                    if let Some(d) = dme {
                        for (x, &mv) in prow.iter_mut().zip(&d[i * t..(i + 1) * t]) {
                            *x = *x * mv;
                        }
                    }
                }
                // dQ strip: gn1·K — the MatmulNT backward's `matmul(g, k)`.
                let dq_block = &mut dqe[i0 * dh..(i0 + mr) * dh];
                if tl.out_packed {
                    matmul_rows_packed(gstrip, &kb_all[e * tl.vp_len..(e + 1) * tl.vp_len], dq_block, 0, t, dh);
                } else {
                    matmul_rows_reference(gstrip, ke, dq_block, 0, t, dh);
                }
                // dK / dV: streaming ascending-`i` rank-1 updates with the
                // reference `tn` kernel's skip of 0.0 left factors —
                // per-element the exact sequence of
                // `matmul_tn(gn1, q)` / `matmul_tn(attn, g)`.
                for r in 0..mr {
                    let i = i0 + r;
                    let qrow = &qe[i * dh..(i + 1) * dh];
                    let grad_row = &ge[i * dh..(i + 1) * dh];
                    for j in 0..t {
                        let gv = gstrip[r * t + j];
                        if gv != 0.0 {
                            for (o, &qv) in dke[j * dh..(j + 1) * dh].iter_mut().zip(qrow) {
                                *o += gv * qv;
                            }
                        }
                        let av = pstrip[r * t + j];
                        if av != 0.0 {
                            for (o, &gvv) in dve[j * dh..(j + 1) * dh].iter_mut().zip(grad_row) {
                                *o += av * gvv;
                            }
                        }
                    }
                }
                i0 += mr;
            }
        }
    });
    for e in 0..bh {
        let base = e * 3 * per;
        dq.data_mut()[e * per..(e + 1) * per].copy_from_slice(&grads[base..base + per]);
        dk.data_mut()[e * per..(e + 1) * per].copy_from_slice(&grads[base + per..base + 2 * per]);
        dv.data_mut()[e * per..(e + 1) * per].copy_from_slice(&grads[base + 2 * per..base + 3 * per]);
    }
    Ok((dq, dk, dv))
}

/// The composed, materialized score path as one call: `matmul_nt → scale →
/// (add causal mask) → softmax_lastdim → (mul drop_mask) → matmul`, exactly
/// the op chain the seed tape executed. Anchors the bitwise property tests,
/// the `probe attn` parity/perf gate, and the `attention_naive_256` bench
/// rows.
///
/// # Errors
/// Same shape contract as [`attention_fused`].
pub fn attention_reference(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    scale: f32,
    causal: bool,
    drop_mask: Option<&NdArray>,
) -> Result<NdArray> {
    let (bh, t, _) = validate(q, k, v)?;
    validate_mask(drop_mask, bh, t)?;
    let mut scores = crate::matmul::matmul_nt(q, k)?.scale(scale);
    if causal {
        let mask =
            NdArray::from_fn(&[t, t], |flat| if flat % t.max(1) > flat / t.max(1) { MASK_NEG } else { 0.0 });
        scores = scores.add(&mask);
    }
    let probs = scores.softmax_lastdim();
    let attn = match drop_mask {
        Some(m) => probs.mul(m),
        None => probs,
    };
    crate::matmul::matmul(&attn, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Prng;
    use crate::matmul::{matmul, matmul_nt, matmul_tn};
    use testkit::prop;

    /// The composed tape's backward chain, op for op, on plain arrays.
    fn reference_backward(
        q: &NdArray,
        k: &NdArray,
        v: &NdArray,
        g: &NdArray,
        scale: f32,
        causal: bool,
        drop_mask: Option<&NdArray>,
    ) -> (NdArray, NdArray, NdArray) {
        let t = q.shape()[1];
        let mut scores = matmul_nt(q, k).unwrap().scale(scale);
        if causal {
            let mask = NdArray::from_fn(&[t, t], |f| if f % t > f / t { MASK_NEG } else { 0.0 });
            scores = scores.add(&mask);
        }
        let p = scores.softmax_lastdim();
        let attn = match drop_mask {
            Some(m) => p.mul(m),
            None => p.clone(),
        };
        // Matmul backward: dAttn = g·vᵀ, dv = attnᵀ·g.
        let ga = matmul_nt(g, v).unwrap();
        let dv = matmul_tn(&attn, g).unwrap();
        // Dropout backward: gp = dAttn·mask.
        let gp = match drop_mask {
            Some(m) => ga.mul(m),
            None => ga,
        };
        // Softmax backward.
        let gs = gp.mul(&p);
        let dot = gs.sum_axis(2, true);
        let ds = p.mul(&gp.sub(&dot.broadcast_to(gp.shape()).unwrap()));
        // Scale backward, then MatmulNT backward: dq = gn1·k, dk = gn1ᵀ·q.
        let gn1 = ds.scale(scale);
        let dq = matmul(&gn1, k).unwrap();
        let dk = matmul_tn(&gn1, q).unwrap();
        (dq, dk, dv)
    }

    fn assert_bits_eq(a: &NdArray, b: &NdArray, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x} vs {y}");
        }
    }

    fn drop_mask_for(rng: &mut Prng, bh: usize, t: usize, p: f32) -> NdArray {
        let keep = 1.0 - p;
        NdArray::from_fn(&[bh, t, t], |_| if rng.bernoulli(keep) { 1.0 / keep } else { 0.0 })
    }

    /// Causal rows skip their masked tail only when every tail `exp`
    /// provably underflows. A future key that is huge, infinite or NaN
    /// defeats the proof, and the row must fall back to the full schedule
    /// (equal bits; any NaN matches any NaN, whose payload IEEE 754 leaves
    /// open).
    #[test]
    fn causal_tail_skip_falls_back_on_huge_and_non_finite_keys() {
        let same = |a: &NdArray, b: &NdArray, what: &str| {
            for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                assert!(x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()), "{what} {i}: {x} vs {y}");
            }
        };
        let (bh, t, dh) = (2, 9, 4);
        for (row, value) in [(7, 1e12f32), (5, f32::NAN), (6, f32::INFINITY), (4, f32::NEG_INFINITY)] {
            let mut rng = Prng::new(11);
            let q = rng.randn(&[bh, t, dh]);
            let mut k = rng.randn(&[bh, t, dh]);
            let v = rng.randn(&[bh, t, dh]);
            let g = rng.randn(&[bh, t, dh]);
            k.data_mut()[row * dh] = value;
            let scale = 0.5;
            let want = attention_reference(&q, &k, &v, scale, true, None).unwrap();
            same(&attention_fused(&q, &k, &v, scale, true, None).unwrap(), &want, &format!("forward {value}"));
            let (wq, wk, wv) = reference_backward(&q, &k, &v, &g, scale, true, None);
            let (dq, dk, dv) = attention_fused_backward(&q, &k, &v, &g, scale, true, None).unwrap();
            for (got, want, what) in [(&dq, &wq, "dq"), (&dk, &wk, "dk"), (&dv, &wv, "dv")] {
                same(got, want, &format!("{what} {value}"));
            }
        }
    }

    /// Finishing a strip keeps `softmax_lastdim`'s bits although its maxima
    /// fold in lanes and its sums run interleaved: rows whose maximum is a
    /// zero of either sign, NaN and infinite scores, strips of 1 to `MR`
    /// rows, and causal strips whose rows sum heads of different lengths.
    #[test]
    fn finished_rows_match_softmax_lastdim_bitwise() {
        let t = 19;
        let mut rng = Prng::new(29);
        for rows in 1..=MR {
            for case in 0..6 {
                let mut scores = rng.randn(&[rows, t]);
                for (f, x) in scores.data_mut().iter_mut().enumerate() {
                    *x = match case {
                        1 if f % 5 == 0 => -0.0,
                        1 if f % 5 == 2 => 0.0,
                        1 => -x.abs(),
                        2 => if f % 2 == 0 { 0.0 } else { -0.0 },
                        3 if f % 7 == 3 => f32::NAN,
                        4 if f % 11 == 4 => f32::INFINITY,
                        5 => f32::NEG_INFINITY,
                        _ => *x,
                    };
                }
                for (causal, row0) in [(false, 0), (true, 7)] {
                    let masked = NdArray::from_fn(&[rows, t], |f| {
                        let (i, j) = (row0 + f / t, f % t);
                        let x = scores.data()[f] * 0.5;
                        if causal { x + if j > i { MASK_NEG } else { 0.0 } } else { x }
                    });
                    let want = masked.softmax_lastdim();
                    let mut got = scores.data().to_vec();
                    finish_rows_exact(&mut got, t, row0, 0.5, causal, None);
                    for (f, (x, y)) in got.iter().zip(want.data()).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                            "rows={rows} case={case} causal={causal} element {f}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    prop! {
        #![config(cases = 96)]

        fn fused_forward_matches_reference_bitwise(
            bh in 1usize..=6,
            t in 1usize..=33,
            dh in 1usize..=18,
            causal in 0usize..2,
            with_drop in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let causal = causal == 1;
            let mut rng = Prng::new(seed | 1);
            let q = rng.randn(&[bh, t, dh]);
            let k = rng.randn(&[bh, t, dh]);
            let v = rng.randn(&[bh, t, dh]);
            let mask = (with_drop == 1).then(|| drop_mask_for(&mut rng, bh, t, 0.25));
            let scale = 1.0 / (dh as f32).sqrt();
            let want = attention_reference(&q, &k, &v, scale, causal, mask.as_ref()).unwrap();
            for threads in [1usize, 2, 4] {
                let got = pool::with_threads(threads, || {
                    pool::with_grain(1024, || {
                        attention_fused(&q, &k, &v, scale, causal, mask.as_ref()).unwrap()
                    })
                });
                assert_bits_eq(&got, &want, &format!("forward t={t} dh={dh} threads={threads}"));
            }
        }
    }

    prop! {
        #![config(cases = 64)]

        fn fused_backward_matches_composed_chain_bitwise(
            bh in 1usize..=5,
            t in 1usize..=21,
            dh in 1usize..=14,
            causal in 0usize..2,
            with_drop in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let causal = causal == 1;
            let mut rng = Prng::new(seed | 1);
            let q = rng.randn(&[bh, t, dh]);
            let k = rng.randn(&[bh, t, dh]);
            let v = rng.randn(&[bh, t, dh]);
            let g = rng.randn(&[bh, t, dh]);
            let mask = (with_drop == 1).then(|| drop_mask_for(&mut rng, bh, t, 0.25));
            let scale = 1.0 / (dh as f32).sqrt();
            let (wq, wk, wv) = reference_backward(&q, &k, &v, &g, scale, causal, mask.as_ref());
            for threads in [1usize, 2, 4] {
                let (dq, dk, dv) = pool::with_threads(threads, || {
                    pool::with_grain(1024, || {
                        attention_fused_backward(&q, &k, &v, &g, scale, causal, mask.as_ref())
                            .unwrap()
                    })
                });
                let what = format!("t={t} dh={dh} threads={threads}");
                assert_bits_eq(&dq, &wq, &format!("dq {what}"));
                assert_bits_eq(&dk, &wk, &format!("dk {what}"));
                assert_bits_eq(&dv, &wv, &format!("dv {what}"));
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let q = NdArray::zeros(&[2, 0, 4]);
        let out = attention_fused(&q, &q, &q, 1.0, true, None).unwrap();
        assert_eq!(out.shape(), [2, 0, 4]);
        let bad = NdArray::zeros(&[2, 3, 4]);
        let other = NdArray::zeros(&[2, 3, 5]);
        assert!(attention_fused(&bad, &other, &bad, 1.0, false, None).is_err());
        let mask = NdArray::zeros(&[2, 3, 4]);
        assert!(attention_fused(&bad, &bad, &bad, 1.0, false, Some(&mask)).is_err());
    }
}
