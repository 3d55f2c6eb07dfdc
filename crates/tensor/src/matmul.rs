//! Packed, register-blocked matrix multiplication.
//!
//! All three layout variants (`NN`, `TN`, `NT`) funnel into one strided
//! driver: the left operand is packed into `MR`-row strips and the right
//! operand is read as `NR`-column panels (k-major, zero-padded at the
//! edges), and a fixed-size `MR×NR` register-tile micro-kernel accumulates
//! the product with a fully unrolled inner loop. A full panel of a `B`
//! whose rows are contiguous (`NN`, `TN`) is already `NR` contiguous values
//! per k-step, so the kernel reads it where it lies; every other panel is
//! packed. So the kernel's loads are unit-stride within a row whatever the
//! logical transpose, and there is no per-element zero-skip branch on the
//! hot path.
//!
//! Around the register tiling sits `KC×NC` cache blocking: one slab of `B`
//! at a time stays L2-resident, and each of its panels stays in L1 while
//! every `A` strip streams over it, so batched-convolution-sized right-hand
//! sides (thousands of columns) run at the same per-element cost as
//! cache-sized ones.
//!
//! Every GEMM runs on the calling thread: the parallelism is the map over
//! clients above it (DESIGN.md §6). The packed operands live in
//! thread-local scratch buffers, so steady-state training performs no
//! allocations here.
//!
//! The slice-level entry points [`gemm_nn`], [`gemm_tn`] and [`gemm_nt`]
//! *accumulate* into `out` (`C += A·B`), which lets callers fold gradient
//! accumulation into the GEMM itself; the [`matmul`]/[`matmul_tn`]/
//! [`matmul_nt`] tensor wrappers start from a zeroed output and so compute
//! the plain product.

use crate::tensor::Tensor;
use std::cell::RefCell;

/// Micro-kernel tile rows: each kernel invocation produces `MR` output rows.
const MR: usize = 4;
/// Micro-kernel tile columns: two 8-wide AVX vectors per accumulator row,
/// giving `MR·NR/8 = 8` independent FMA chains — enough to hide FMA latency
/// on one core.
const NR: usize = 16;
/// k-extent of one cache block: a `KC×NC` packed slab of `B` must stay
/// L2-resident while every `A` strip streams over it.
const KC: usize = 256;
/// n-extent of one cache block (`KC·NC·4 B = 512 KiB` packed `B`). Without
/// this bound, a batched-conv-sized `B` (hundreds of rows × thousands of
/// columns) is packed whole and every strip pass misses cache.
const NC: usize = 512;
/// Columns of an `NT` panel transposed together. Writing 8 adjacent panel
/// values per k-step, instead of one value per 64-byte panel row per pass
/// over a single column, took LeNet-5 conv1's dW pack at batch 10 from 15.0
/// to 9.2 µs (one thread, AVX2+FMA x86-64).
const GATHER: usize = 8;

thread_local! {
    /// Calling-thread scratch for the packed `A` strips (k-major).
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Calling-thread scratch for the packed `B` panel matrix.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C = A (m×k) * B (k×n)`.
///
/// # Panics
/// Panics if the operands are not 2-d or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(
        k, k2,
        "matmul inner dimension mismatch: {}x{} * {}x{}",
        m, k, k2, n
    );
    let mut out = vec![0.0f32; m * n];
    gemm_nn(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec([m, n], out)
}

/// `C = A^T * B` where `a` is stored `k×m`. Used by conv/dense backward
/// passes without materialising the transpose.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul_tn inner dimension mismatch");
    let mut out = vec![0.0f32; m * n];
    gemm_tn(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec([m, n], out)
}

/// `C = A (m×k) * B^T` where `b` is stored `n×k`. Used by conv/dense
/// backward passes without materialising the transpose.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a);
    let (n, k2) = mat_dims(b);
    assert_eq!(k, k2, "matmul_nt inner dimension mismatch");
    let mut out = vec![0.0f32; m * n];
    gemm_nt(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec([m, n], out)
}

/// `C += A (m×k, row-major) * B (k×n, row-major)` on raw slices.
///
/// # Panics
/// Panics if a slice is shorter than its dimensions imply.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
        "gemm_nn slice too short"
    );
    gemm_strided(microkernel, m, k, n, a, k, 1, b, n, 1, out);
}

/// `C += A^T * B` where `a` is stored `k×m` row-major (so logical `A` is
/// `m×k`) and `b` is `k×n` row-major.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        a.len() >= k * m && b.len() >= k * n && out.len() >= m * n,
        "gemm_tn slice too short"
    );
    gemm_strided(microkernel, m, k, n, a, 1, m, b, n, 1, out);
}

/// `C += A * B^T` where `a` is `m×k` row-major and `b` is stored `n×k`
/// row-major (so logical `B` is `k×n`).
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        a.len() >= m * k && b.len() >= n * k && out.len() >= m * n,
        "gemm_nt slice too short"
    );
    gemm_strided(microkernel, m, k, n, a, k, 1, b, 1, k, out);
}

fn mat_dims(t: &Tensor) -> (usize, usize) {
    assert_eq!(
        t.shape().ndim(),
        2,
        "expected a 2-d tensor, got {}",
        t.shape()
    );
    (t.dims()[0], t.dims()[1])
}

/// The register-tile micro-kernel: multiply one packed `MR`-row strip of `A`
/// against one `NR`-column panel of `B` over the full `k` extent, returning
/// the `MR×NR` accumulator tile.
///
/// `ap` holds `k` groups of `MR` values (one per output row). The panel's
/// k-th row is `b[off + p·rs..][..NR]`: a packed panel is the `rs == NR`
/// case, and a full panel of a row-contiguous `B` is read where it lies, at
/// `B`'s row stride. Fixed `MR`/`NR` let the compiler keep the whole tile in
/// registers and unroll/vectorise the body; each `acc[i][j]` is an
/// independent FMA chain, so vectorisation needs no float reassociation.
///
/// The last row is taken on its own, because `B` may end `NR` values past
/// its start, short of a whole stride. Every other row is a `chunks_exact`
/// chunk of `rs` values, so its `..NR` bounds check does not depend on the
/// row and the compiler takes it out of the loop; a check per row cost
/// 10–20 % of a tile.
#[inline(always)]
fn microkernel_body<const FMA: bool>(
    k: usize,
    ap: &[f32],
    b: &[f32],
    off: usize,
    rs: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    let Some(last) = k.checked_sub(1) else {
        return acc;
    };
    let (head, tail) = ap[..k * MR].split_at(last * MR);
    let rows = b[off..off + last * rs].chunks_exact(rs);
    for (a_strip, b_row) in head.chunks_exact(MR).zip(rows) {
        fma_step::<FMA>(&mut acc, a_strip, b_row);
    }
    fma_step::<FMA>(&mut acc, tail, &b[off + last * rs..]);
    acc
}

/// One k-step of the micro-kernel: `acc[i][j] += a_strip[i] · b_row[j]`.
#[inline(always)]
fn fma_step<const FMA: bool>(acc: &mut [[f32; NR]; MR], a_strip: &[f32], b_row: &[f32]) {
    let b_row = &b_row[..NR];
    for i in 0..MR {
        let ai = a_strip[i];
        for j in 0..NR {
            acc[i][j] = if FMA {
                ai.mul_add(b_row[j], acc[i][j])
            } else {
                acc[i][j] + ai * b_row[j]
            };
        }
    }
}

/// The same body compiled with AVX2+FMA codegen: `mul_add` lowers to a real
/// `vfmadd` and the `NR`-wide rows to YMM lanes. rustc's baseline x86-64
/// target is SSE2-only, so without this instantiation the kernel runs at a
/// quarter of the machine's width.
///
/// # Safety
/// `unsafe` here comes solely from `#[target_feature]` — callers must
/// guarantee the CPU supports AVX2 and FMA (checked at the single dispatch
/// site below via `is_x86_feature_detected!`), or the emitted VEX/FMA
/// instructions fault with SIGILL. The body itself is safe Rust: `ap` and
/// every row of `b` are read through range-checked slices, so a short
/// operand panics rather than reads out of bounds. The driver passes strips
/// of exactly `kc·MR` values, packed panels of exactly `kc·NR` and in-place
/// panels of `kc` rows lying inside `B`, so in-tree callers never trip
/// those checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(
    k: usize,
    ap: &[f32],
    b: &[f32],
    off: usize,
    rs: usize,
) -> [[f32; NR]; MR] {
    microkernel_body::<true>(k, ap, b, off, rs)
}

/// The body this host runs, chosen per tile: the AVX2+FMA one where the
/// CPU has both features, the portable one elsewhere.
#[inline(always)]
fn microkernel(k: usize, ap: &[f32], b: &[f32], off: usize, rs: usize) -> [[f32; NR]; MR] {
    #[cfg(target_arch = "x86_64")]
    {
        // The detection macro caches its answer, so this is an atomic load
        // and a predictable branch per tile.
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: `is_x86_feature_detected!` verified AVX2 and FMA
            // support immediately above, which is `microkernel_avx2`'s only
            // safety precondition (its slice reads are bounds-checked; see
            // the SAFETY comment on its definition).
            return unsafe { microkernel_avx2(k, ap, b, off, rs) };
        }
    }
    microkernel_body::<false>(k, ap, b, off, rs)
}

/// Pack `B`'s `[p0,p0+kc)×[j0,j0+w)` slab into a k-major `NR`-column
/// panel. All `kc·NR` values are written: a ragged panel (`w < NR`) is
/// zeroed first, so the columns past `w` are padding.
///
/// `B` has exactly two layouts. Rows contiguous (`bcs == 1`, the `NN` and
/// `TN` variants): each k-step is one row run, copied whole; the driver
/// packs only a ragged panel this way and reads full ones in place.
/// Columns contiguous (`brs == 1`, the `NT` variant, `B` stored `n×k`): a
/// transpose. `GATHER` columns' k-runs are walked together, so each k-step
/// writes `GATHER` adjacent values of one panel row; columns past the last
/// whole group are copied one k-run at a time.
#[allow(clippy::too_many_arguments)]
fn pack_b_panel(
    b: &[f32],
    brs: usize,
    bcs: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    w: usize,
    panel: &mut [f32],
) {
    let panel = &mut panel[..kc * NR];
    if w < NR {
        panel.fill(0.0);
    }
    if bcs == 1 {
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let base = (p0 + p) * brs + j0;
            dst[..w].copy_from_slice(&b[base..base + w]);
        }
    } else {
        debug_assert_eq!(brs, 1, "B must have a contiguous dimension");
        let col = |jj: usize| &b[(j0 + jj) * bcs + p0..][..kc];
        let grouped = w - w % GATHER;
        for jj in (0..grouped).step_by(GATHER) {
            let runs: [&[f32]; GATHER] = std::array::from_fn(|g| col(jj + g));
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                for (d, run) in dst[jj..jj + GATHER].iter_mut().zip(&runs) {
                    *d = run[p];
                }
            }
        }
        for jj in grouped..w {
            for (dst, &v) in panel.chunks_exact_mut(NR).zip(col(jj)) {
                dst[jj] = v;
            }
        }
    }
}

/// Pack `A`'s `[i0,i0+h)×[p0,p0+kc)` slab into a k-major `MR`-row strip.
/// All `kc·MR` values are written: a ragged strip (`h < MR`) is zeroed
/// first, so the rows past `h` are padding.
///
/// The two layouts mirror [`pack_b_panel`]'s. Columns contiguous
/// (`ars == 1`, the `TN` variant, `A` stored `k×m`): each k-step's `h`
/// values are one run, copied element-wise (a `memcpy` call per ≤ `MR`
/// values costs more than it moves). Rows contiguous (`acs == 1`, `NN` and
/// `NT`): each strip row is gathered from its contiguous k-run.
#[allow(clippy::too_many_arguments)]
fn pack_a_strip(
    a: &[f32],
    ars: usize,
    acs: usize,
    p0: usize,
    kc: usize,
    i0: usize,
    h: usize,
    strip: &mut [f32],
) {
    let strip = &mut strip[..kc * MR];
    if h < MR {
        strip.fill(0.0);
    }
    if ars == 1 {
        for (p, dst) in strip.chunks_exact_mut(MR).enumerate() {
            let base = (p0 + p) * acs + i0;
            for (d, &v) in dst.iter_mut().zip(&a[base..base + h]) {
                *d = v;
            }
        }
    } else {
        debug_assert_eq!(acs, 1, "A must have a contiguous dimension");
        for ii in 0..h {
            let row = &a[(i0 + ii) * ars + p0..][..kc];
            for (dst, &v) in strip.chunks_exact_mut(MR).zip(row) {
                dst[ii] = v;
            }
        }
    }
}

/// The shared driver: `C += op(A) * op(B)` for arbitrary row/column strides
/// of the logical `m×k` / `k×n` operands, every tile on `kernel`
/// ([`microkernel`] outside the tests). `out` is `m×n` row-major.
#[allow(clippy::too_many_arguments)]
fn gemm_strided(
    kernel: impl Fn(usize, &[f32], &[f32], usize, usize) -> [[f32; NR]; MR],
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut pb = PACK_B.with(|c| std::mem::take(&mut *c.borrow_mut()));
    let mut pa = PACK_A.with(|c| std::mem::take(&mut *c.borrow_mut()));

    // Cache blocking: one `KC×NC` slab of `B` at a time stays hot, each
    // panel of it in L1 while every `A` strip streams over it; the
    // accumulating output (`C +=`) makes looping the k blocks outside the
    // kernel sound, and each output element belongs to one tile per block,
    // so the order of the tiles does not change a bit. A full panel of a
    // row-contiguous `B` is read in place; every other panel is packed.
    let in_place = |w: usize| bcs == 1 && w == NR;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let n_panels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // The packers write every element, padding included, so the
            // scratch only grows and is never cleared.
            let b_len = n_panels * kc * NR;
            if pb.len() < b_len {
                pb.resize(b_len, 0.0);
            }
            for (jp, panel) in pb[..b_len].chunks_mut(kc * NR).enumerate() {
                let j0 = jc + jp * NR;
                let w = NR.min(jc + nc - j0);
                if !in_place(w) {
                    pack_b_panel(b, brs, bcs, pc, kc, j0, w, panel);
                }
            }
            let a_len = m.div_ceil(MR) * kc * MR;
            if pa.len() < a_len {
                pa.resize(a_len, 0.0);
            }
            for (ip, strip) in pa[..a_len].chunks_mut(kc * MR).enumerate() {
                let i0 = ip * MR;
                pack_a_strip(a, ars, acs, pc, kc, i0, MR.min(m - i0), strip);
            }
            for (jp, panel) in pb[..b_len].chunks(kc * NR).enumerate() {
                let j0 = jc + jp * NR;
                let w = NR.min(jc + nc - j0);
                for (ip, strip) in pa[..a_len].chunks(kc * MR).enumerate() {
                    let i0 = ip * MR;
                    let h = MR.min(m - i0);
                    let acc = if in_place(w) {
                        kernel(kc, strip, b, pc * brs + j0, brs)
                    } else {
                        kernel(kc, strip, panel, 0, NR)
                    };
                    for (ii, acc_row) in acc.iter().enumerate().take(h) {
                        let off = (i0 + ii) * n + j0;
                        if w == NR {
                            // Full-width tile: fixed-size loop so the
                            // accumulate vectorises.
                            #[expect(
                                clippy::unwrap_used,
                                reason = "`out[off..off + NR]` is exactly NR elements, so the array conversion is infallible"
                            )]
                            let orow: &mut [f32; NR] =
                                (&mut out[off..off + NR]).try_into().unwrap();
                            for (o, &v) in orow.iter_mut().zip(acc_row) {
                                *o += v;
                            }
                        } else {
                            for (o, &v) in out[off..off + w].iter_mut().zip(acc_row) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }
    PACK_A.with(|c| *c.borrow_mut() = pa);
    PACK_B.with(|c| *c.borrow_mut() = pb);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = s;
            }
        }
        out
    }

    fn random(shape: [usize; 2], seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let n = shape[0] * shape[1];
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{} vs {}", x, y);
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_noop() {
        let a = random([5, 5], 1);
        let mut id = Tensor::zeros([5, 5]);
        for i in 0..5 {
            *id.at_mut(&[i, i]) = 1.0;
        }
        assert_close(&matmul(&a, &id), &a, 1e-6);
        assert_close(&matmul(&id, &a), &a, 1e-6);
    }

    /// The micro-kernel path must be exact for every edge-tile combination:
    /// sizes below, at, and just past the `MR`/`NR` boundaries.
    #[test]
    fn matches_naive_over_sizes() {
        for (m, k, n, seed) in [
            (1, 1, 1, 0),
            (5, 7, 3, 1),
            (3, 7, 5, 2),
            (4, 9, 8, 3),    // exact tile multiples
            (17, 9, 33, 4),  // ragged in both m and n
            (70, 40, 90, 5), // ragged edges
            (130, 40, 90, 6),
            (2, 64, 2, 7),      // deep k, tiny tile
            (65, 1, 9, 8),      // k = 1
            (30, 300, 600, 9),  // spans KC and NC cache blocks
            (10, 257, 513, 10), // ragged cache-block edges
        ] {
            let a = random([m, k], seed);
            let b = random([k, n], seed + 100);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = random([9, 6], 4); // stored k×m for matmul_tn: k=9, m=6
        let b = random([9, 5], 5);
        let expected = matmul(&a.transpose2(), &b);
        assert_close(&matmul_tn(&a, &b), &expected, 1e-4);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = random([6, 9], 4);
        let b = random([5, 9], 5); // stored n×k
        let expected = matmul(&a, &b.transpose2());
        assert_close(&matmul_nt(&a, &b), &expected, 1e-4);
    }

    /// The slice-level entry points accumulate (`C += A·B`) rather than
    /// overwrite — the contract conv/dense gradient passes rely on.
    #[test]
    fn gemm_slices_accumulate() {
        let a = random([3, 4], 20);
        let b = random([4, 5], 21);
        let expected = naive(&a, &b);
        let mut out = vec![1.0f32; 3 * 5];
        gemm_nn(3, 4, 5, a.data(), b.data(), &mut out);
        for (o, e) in out.iter().zip(expected.data()) {
            assert!((o - (e + 1.0)).abs() < 1e-4, "{} vs {}", o, e + 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }

    /// The element-wise `B` packer the two-layout body replaced: any
    /// strides, one bounds test per element. The oracle for
    /// [`pack_b_panel`].
    #[allow(clippy::too_many_arguments)]
    fn pack_b_panel_reference(
        b: &[f32],
        brs: usize,
        bcs: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        w: usize,
        panel: &mut [f32],
    ) {
        for p in 0..kc {
            let dst = &mut panel[p * NR..(p + 1) * NR];
            let base = (p0 + p) * brs + j0 * bcs;
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = if jj < w { b[base + jj * bcs] } else { 0.0 };
            }
        }
    }

    /// The element-wise `A` packer, the oracle for [`pack_a_strip`].
    #[allow(clippy::too_many_arguments)]
    fn pack_a_strip_reference(
        a: &[f32],
        ars: usize,
        acs: usize,
        p0: usize,
        kc: usize,
        i0: usize,
        h: usize,
        strip: &mut [f32],
    ) {
        for p in 0..kc {
            let dst = &mut strip[p * MR..(p + 1) * MR];
            let base = i0 * ars + (p0 + p) * acs;
            for (ii, d) in dst.iter_mut().enumerate() {
                *d = if ii < h { a[base + ii * ars] } else { 0.0 };
            }
        }
    }

    /// `gemm_strided` as it was with the reference packers and zero-filled
    /// scratch, on the micro-kernel body `kernel`: the same blocking and
    /// once-per-KC-block accumulate, with every `B` panel packed.
    #[allow(clippy::too_many_arguments)]
    fn gemm_reference(
        kernel: Kernel,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        ars: usize,
        acs: usize,
        b: &[f32],
        brs: usize,
        bcs: usize,
        out: &mut [f32],
    ) {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let mut pb = vec![0.0f32; nc.div_ceil(NR) * kc * NR];
                for (jp, panel) in pb.chunks_mut(kc * NR).enumerate() {
                    let j0 = jc + jp * NR;
                    pack_b_panel_reference(b, brs, bcs, pc, kc, j0, NR.min(jc + nc - j0), panel);
                }
                let mut pa = vec![0.0f32; m.div_ceil(MR) * kc * MR];
                for (ip, strip) in pa.chunks_mut(kc * MR).enumerate() {
                    let i0 = ip * MR;
                    pack_a_strip_reference(a, ars, acs, pc, kc, i0, MR.min(m - i0), strip);
                }
                for (ip, strip) in pa.chunks(kc * MR).enumerate() {
                    let i0 = ip * MR;
                    for (jp, panel) in pb.chunks(kc * NR).enumerate() {
                        let j0 = jc + jp * NR;
                        let w = NR.min(jc + nc - j0);
                        let acc = kernel(kc, strip, panel, 0, NR);
                        for (ii, acc_row) in acc.iter().enumerate().take(MR.min(m - i0)) {
                            let orow = &mut out[(i0 + ii) * n + j0..][..w];
                            for (o, &v) in orow.iter_mut().zip(acc_row) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The three stored layouts of the slice-level entry points.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        Nn,
        Tn,
        Nt,
    }

    impl Op {
        const ALL: [Op; 3] = [Op::Nn, Op::Tn, Op::Nt];

        /// `(ars, acs, brs, bcs)` of the logical `m×k` and `k×n` operands
        /// as the entry point stores them.
        fn strides(self, m: usize, k: usize, n: usize) -> (usize, usize, usize, usize) {
            match self {
                Op::Nn => (k, 1, n, 1),
                Op::Tn => (1, m, n, 1),
                Op::Nt => (k, 1, 1, k),
            }
        }

        fn gemm(self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
            match self {
                Op::Nn => gemm_nn(m, k, n, a, b, out),
                Op::Tn => gemm_tn(m, k, n, a, b, out),
                Op::Nt => gemm_nt(m, k, n, a, b, out),
            }
        }
    }

    /// Every GEMM one training step issues, as `(op, m, k, n)` at `batch`:
    /// LeNet-5 on 3×16×16 images (conv 3→8 and 8→16 at 3×3 unpadded, dense
    /// 64→48→24→10) and ResNet-9's stem (3→8, 3×3, pad 1) on the 8×8
    /// images of its workload and on 16×16.
    fn model_shapes(batch: usize) -> Vec<(Op, usize, usize, usize)> {
        let mut shapes = Vec::new();
        // Conv: forward W·cols (NN), dW += gmat·colsᵀ (NT), dcols = Wᵀ·gmat (TN).
        for (co, rows, ocols) in [
            (8, 27, 14 * 14),
            (16, 72, 5 * 5),
            (8, 27, 8 * 8),
            (8, 27, 16 * 16),
        ] {
            let n = batch * ocols;
            shapes.extend([
                (Op::Nn, co, rows, n),
                (Op::Nt, co, n, rows),
                (Op::Tn, rows, co, n),
            ]);
        }
        // Dense: forward x·Wᵀ (NT), dW += gᵀ·x (TN), dx = g·W (NN).
        for (fin, fout) in [(64, 48), (48, 24), (24, 10)] {
            shapes.extend([
                (Op::Nt, batch, fin, fout),
                (Op::Tn, fout, batch, fin),
                (Op::Nn, batch, fout, fin),
            ]);
        }
        shapes
    }

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both packers against their element-wise references, element for
    /// element, for both layouts of each operand: every ragged width and
    /// height, k offsets on both sides of the KC boundary, a panel that
    /// starts past NC, and scratch poisoned with NaN so a value the packer
    /// forgot to write cannot pass for the reference's zero padding.
    #[test]
    fn packers_match_the_element_wise_references() {
        let (m, k, n) = (MR + 3, KC + 9, NC + 2 * NR + 5);
        for op in Op::ALL {
            let (ars, acs, brs, bcs) = op.strides(m, k, n);
            let a = random_vec(m * k, 40);
            let b = random_vec(k * n, 41);
            for (p0, kc) in [(0, 1), (0, 7), (0, KC), (3, KC), (KC, 9), (KC - 2, 11)] {
                for j0 in [0, NR, NC, NC + NR + 3] {
                    for w in 1..=NR.min(n - j0) {
                        let mut got = vec![f32::NAN; kc * NR];
                        let mut want = vec![0.0f32; kc * NR];
                        pack_b_panel(&b, brs, bcs, p0, kc, j0, w, &mut got);
                        pack_b_panel_reference(&b, brs, bcs, p0, kc, j0, w, &mut want);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{op:?} B p0={p0} kc={kc} j0={j0} w={w}"
                        );
                    }
                }
                for i0 in [0, 1, MR] {
                    for h in 1..=MR.min(m - i0) {
                        let mut got = vec![f32::NAN; kc * MR];
                        let mut want = vec![0.0f32; kc * MR];
                        pack_a_strip(&a, ars, acs, p0, kc, i0, h, &mut got);
                        pack_a_strip_reference(&a, ars, acs, p0, kc, i0, h, &mut want);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{op:?} A p0={p0} kc={kc} i0={i0} h={h}"
                        );
                    }
                }
            }
        }
    }

    /// A micro-kernel body, as the tests hand it to the drivers.
    type Kernel = fn(usize, &[f32], &[f32], usize, usize) -> [[f32; NR]; MR];

    /// The bodies a host runs: the portable one, and the one this host
    /// dispatches, which is the AVX2+FMA body where the CPU has it and the
    /// portable one again elsewhere.
    const BODIES: [(&str, Kernel); 2] = [
        ("portable", microkernel_body::<false>),
        ("dispatched", microkernel),
    ];

    /// Whether the dispatched body fuses its multiply-add. With
    /// `x = 1 + 2⁻¹²`, `x² − (1 + 2⁻¹¹)` is exactly 2⁻²⁴, which a separate
    /// multiply rounds away (`x²` rounds to `1 + 2⁻¹¹`).
    fn dispatched_body_fuses() -> bool {
        let x = 1.0 + 2f32.powi(-12);
        let mut out = [0.0f32];
        gemm_nn(1, 2, 1, &[1.0, x], &[-(1.0 + 2f32.powi(-11)), x], &mut out);
        out[0] != 0.0
    }

    /// The model shapes at batch 10 and at the ragged last batch of 8, and
    /// shapes ragged in every tile dimension or spanning the KC/NC blocks.
    fn identity_shapes() -> Vec<(Op, usize, usize, usize)> {
        let mut shapes = model_shapes(10);
        shapes.extend(model_shapes(8));
        for op in Op::ALL {
            for (m, k, n) in [
                (1, 1, 1),
                (5, 7, 3),
                (17, 9, 33),
                (70, 40, 90),
                (130, 40, 90),
                (30, 300, 600),
                (10, 257, 513),
                (65, KC + 1, NC + 1),
            ] {
                shapes.push((op, m, k, n));
            }
        }
        shapes
    }

    /// Each micro-kernel body the host supports, under `gemm_strided`,
    /// gives the reference driver on that same body to the bit,
    /// accumulating into a non-zero `out`; so does `gemm_{nn,tn,nt}`, on
    /// the dispatched body. The portable body runs here on every host,
    /// though an AVX2+FMA host never dispatches it. The reference packs
    /// every `B` panel, so under `NN` and `TN` this pins the full panels
    /// `gemm_strided` reads in place as well as the ragged ones it packs.
    #[test]
    fn gemm_is_bit_identical_to_the_reference_packers() {
        let shapes = identity_shapes();
        for op in [Op::Nn, Op::Tn] {
            let mut ns = shapes.iter().filter(|s| s.0 == op).map(|s| s.3);
            assert!(ns.clone().any(|n| n >= NR), "{op:?}: no full panel");
            assert!(ns.any(|n| n % NR != 0), "{op:?}: no ragged panel");
        }
        for (seed, &(op, m, k, n)) in shapes.iter().enumerate() {
            let seed = seed as u64 * 3;
            let (ars, acs, brs, bcs) = op.strides(m, k, n);
            let a = random_vec(m * k, seed);
            let b = random_vec(k * n, seed + 1);
            let start = random_vec(m * n, seed + 2);
            for (name, body) in BODIES {
                let mut got = start.clone();
                let mut want = start.clone();
                gemm_strided(body, m, k, n, &a, ars, acs, &b, brs, bcs, &mut got);
                gemm_reference(body, m, k, n, &a, ars, acs, &b, brs, bcs, &mut want);
                assert_eq!(bits(&got), bits(&want), "{name} {op:?} m={m} k={k} n={n}");
            }
            let mut got = start.clone();
            let mut want = start;
            op.gemm(m, k, n, &a, &b, &mut got);
            gemm_reference(microkernel, m, k, n, &a, ars, acs, &b, brs, bcs, &mut want);
            assert_eq!(bits(&got), bits(&want), "{op:?} m={m} k={k} n={n}");
        }
    }

    /// The portable body and the AVX2+FMA one differ only in rounding: a
    /// fused multiply-add rounds once per k-step where the portable body
    /// rounds twice. Every output element of the two lies within
    /// `(2k + 1)·ε·(|c| + Σ_p |a_ip·b_pj|)` of each other (ε =
    /// `f32::EPSILON`, `c` the value accumulated into): each is within
    /// `(k + blocks)·ε/2` of that magnitude of the exact sum, one rounding
    /// per k-step plus one per KC block's accumulate, and `blocks ≤ k`. The
    /// largest gap on these shapes is about a ninth of the bound. The two
    /// differ somewhere exactly when the dispatched body fuses; on a host
    /// without FMA both are the portable body.
    #[test]
    fn portable_and_fma_bodies_agree_within_the_rounding_bound() {
        let mut differ = 0;
        for (seed, &(op, m, k, n)) in identity_shapes().iter().enumerate() {
            let seed = seed as u64 * 3;
            let (ars, acs, brs, bcs) = op.strides(m, k, n);
            let a = random_vec(m * k, seed);
            let b = random_vec(k * n, seed + 1);
            let start = random_vec(m * n, seed + 2);
            let mut portable = start.clone();
            let mut fused = start.clone();
            let body = microkernel_body::<false>;
            gemm_strided(body, m, k, n, &a, ars, acs, &b, brs, bcs, &mut portable);
            gemm_strided(microkernel, m, k, n, &a, ars, acs, &b, brs, bcs, &mut fused);
            for i in 0..m {
                for j in 0..n {
                    let o = i * n + j;
                    let magnitude = f64::from(start[o].abs())
                        + (0..k)
                            .map(|p| f64::from((a[i * ars + p * acs] * b[p * brs + j * bcs]).abs()))
                            .sum::<f64>();
                    let bound = (2 * k + 1) as f64 * f64::from(f32::EPSILON) * magnitude;
                    let gap = f64::from((portable[o] - fused[o]).abs());
                    assert!(
                        gap <= bound,
                        "{op:?} m={m} k={k} n={n} ({i},{j}): {gap} > {bound}"
                    );
                    differ += usize::from(portable[o].to_bits() != fused[o].to_bits());
                }
            }
        }
        assert_eq!(
            differ > 0,
            dispatched_body_fuses(),
            "{differ} elements differ between the portable and the dispatched body"
        );
    }
}
