//! `im2col` / `col2im` lowering for 2-d convolutions.
//!
//! Convolutions in `fedclust-nn` are computed as one GEMM per layer pass
//! over a `(C_in·KH·KW) × (B·OH·OW)` column matrix that holds the whole
//! batch. A [`TapTable`], built once per layer geometry, records which
//! input pixel feeds each entry of one image's block of that matrix, so the
//! batched lowering is a gather over the table and the input-gradient pass
//! its adjoint scatter-add. The per-image [`im2col`] and [`col2im`] derive
//! the same entries from the geometry directly; they are the oracle.

use crate::tensor::Tensor;

/// Static description of a 2-d convolution geometry (single image).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeom {
    /// Output height after convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k_h) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k_w) / self.stride + 1
    }

    /// Rows of the im2col matrix: `C_in * KH * KW`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Columns of the im2col matrix: `OH * OW`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validate that the geometry is realisable (kernel fits in the padded
    /// input and stride is nonzero).
    pub fn validate(&self) -> Result<(), String> {
        if self.stride == 0 {
            return Err("stride must be nonzero".into());
        }
        if self.k_h == 0 || self.k_w == 0 {
            return Err("kernel must be nonzero".into());
        }
        if self.in_h + 2 * self.pad < self.k_h || self.in_w + 2 * self.pad < self.k_w {
            return Err(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.k_h,
                self.k_w,
                self.in_h + 2 * self.pad,
                self.in_w + 2 * self.pad
            ));
        }
        Ok(())
    }
}

/// Lower one image `(C,H,W)` to its im2col matrix `(C·KH·KW, OH·OW)`.
///
/// # Panics
/// Panics if `img` does not have shape `(C,H,W)` matching `geom`.
pub fn im2col(img: &Tensor, geom: &Conv2dGeom) -> Tensor {
    assert_eq!(
        img.dims(),
        &[geom.in_channels, geom.in_h, geom.in_w],
        "im2col input shape mismatch"
    );
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let rows = geom.col_rows();
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    let data = img.data();
    let (h, w) = (geom.in_h, geom.in_w);

    let mut r = 0usize;
    for c in 0..geom.in_channels {
        let chan = &data[c * h * w..(c + 1) * h * w];
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                let row_out = &mut out[r * cols..(r + 1) * cols];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + kh) as isize - geom.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kw) as isize - geom.pad as isize;
                        row_out[idx] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            chan[iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        idx += 1;
                    }
                }
                r += 1;
            }
        }
    }
    Tensor::from_vec([rows, cols], out)
}

/// Adjoint of [`im2col`]: scatter-add a column matrix back to image layout.
///
/// Given the gradient of the loss with respect to the im2col matrix, this
/// accumulates it into the gradient with respect to the original `(C,H,W)`
/// image. Overlapping patches sum, which is exactly the adjoint of the
/// gather performed by `im2col`.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    assert_eq!(
        cols.dims(),
        &[geom.col_rows(), oh * ow],
        "col2im input shape mismatch"
    );
    let (h, w) = (geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; geom.in_channels * h * w];
    let data = cols.data();
    let ncols = oh * ow;

    let mut r = 0usize;
    for c in 0..geom.in_channels {
        let chan = &mut out[c * h * w..(c + 1) * h * w];
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                let row_in = &data[r * ncols..(r + 1) * ncols];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + kh) as isize - geom.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kw) as isize - geom.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            chan[iy as usize * w + ix as usize] += row_in[idx];
                        }
                        idx += 1;
                    }
                }
                r += 1;
            }
        }
    }
    Tensor::from_vec([geom.in_channels, h, w], out)
}

/// The [`TapTable`] entry of a tap in the zero padding: past the end of
/// every image the table accepts, so no image slice has an element there.
const PAD: u32 = u32::MAX;

/// Where each entry of one image's im2col block comes from.
///
/// Entry `r·OH·OW + oy·OW + ox` is the offset, inside one `(C,H,W)` image,
/// of the pixel that im2col row `r = (c, kh, kw)` reads at output position
/// `(oy, ox)`, or `PAD` for a tap in the zero padding. The borders are
/// resolved here, once per geometry, so lowering a batch is one gather per
/// entry whatever the row length.
#[derive(Debug)]
pub struct TapTable {
    geom: Conv2dGeom,
    taps: Vec<u32>,
}

impl TapTable {
    /// The table for `geom`.
    ///
    /// # Panics
    /// Panics if one image holds `u32::MAX` or more elements.
    pub fn new(geom: &Conv2dGeom) -> Self {
        let (h, w) = (geom.in_h, geom.in_w);
        assert!(
            geom.in_channels * h * w < PAD as usize,
            "conv image too large for a tap table"
        );
        let (oh, ow) = (geom.out_h(), geom.out_w());
        // The input coordinate output `o` reads through kernel offset `k`,
        // if it is inside an axis of length `len`.
        let inside = |o: usize, k: usize, len: usize| {
            (o * geom.stride + k)
                .checked_sub(geom.pad)
                .filter(|&i| i < len)
        };
        let mut taps = Vec::with_capacity(geom.col_rows() * oh * ow);
        for c in 0..geom.in_channels {
            for kh in 0..geom.k_h {
                for kw in 0..geom.k_w {
                    for oy in 0..oh {
                        let iy = inside(oy, kh, h);
                        taps.extend((0..ow).map(|ox| match (iy, inside(ox, kw, w)) {
                            (Some(iy), Some(ix)) => ((c * h + iy) * w + ix) as u32,
                            _ => PAD,
                        }));
                    }
                }
            }
        }
        TapTable { geom: *geom, taps }
    }

    /// The geometry the table was built for.
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// `(C·H·W, OH·OW)`: one image's length, and one im2col row's columns
    /// per image.
    fn sizes(&self) -> (usize, usize) {
        let g = &self.geom;
        (g.in_channels * g.in_h * g.in_w, g.col_cols())
    }

    /// Lower a `(B,C,H,W)` batch into one `(C·KH·KW, B·OH·OW)` im2col
    /// matrix, on the calling thread.
    ///
    /// Column `b·OH·OW + oy·OW + ox` holds the patch for image `b` at output
    /// position `(oy, ox)`, so a single GEMM against the `(C_out, C·KH·KW)`
    /// weight matrix convolves the entire batch. Every element of `out` is
    /// written (padding taps become zeros), so the workspace can be reused
    /// across calls without clearing.
    ///
    /// # Panics
    /// Panics if `batch.len() != b · C·H·W` or `out.len() != col_rows · b·OH·OW`.
    pub fn im2col_into(&self, batch: &[f32], b: usize, out: &mut [f32]) {
        let (chw, ocols) = self.sizes();
        let n = b * ocols;
        assert_eq!(batch.len(), b * chw, "im2col_batch input length mismatch");
        assert_eq!(
            out.len(),
            self.geom.col_rows() * n,
            "im2col_batch output length mismatch"
        );
        if n == 0 {
            return;
        }
        for (row, taps) in out.chunks_exact_mut(n).zip(self.taps.chunks_exact(ocols)) {
            for (dst, img) in row.chunks_exact_mut(ocols).zip(batch.chunks_exact(chw)) {
                for (d, &t) in dst.iter_mut().zip(taps) {
                    *d = img.get(t as usize).copied().unwrap_or(0.0);
                }
            }
        }
    }

    /// Adjoint of [`TapTable::im2col_into`]: scatter-add a `(C·KH·KW,
    /// B·OH·OW)` column-gradient matrix back into batch image layout
    /// `(B,C,H,W)`, on the calling thread.
    ///
    /// Accumulates into `out` (overlapping patches sum); the caller zeroes
    /// the buffer first when a fresh gradient is wanted. Rows are walked in
    /// ascending order and one row feeds a pixel at most once, so each
    /// pixel sums its taps in the order the per-image [`col2im`] does.
    ///
    /// # Panics
    /// Panics if `cols.len() != col_rows · b·OH·OW` or `out.len() != b · C·H·W`.
    pub fn col2im_into(&self, cols: &[f32], b: usize, out: &mut [f32]) {
        let (chw, ocols) = self.sizes();
        let n = b * ocols;
        assert_eq!(
            cols.len(),
            self.geom.col_rows() * n,
            "col2im_batch input length mismatch"
        );
        assert_eq!(out.len(), b * chw, "col2im_batch output length mismatch");
        if n == 0 {
            return;
        }
        for (row, taps) in cols.chunks_exact(n).zip(self.taps.chunks_exact(ocols)) {
            for (src, img) in row.chunks_exact(ocols).zip(out.chunks_exact_mut(chw)) {
                for (&s, &t) in src.iter().zip(taps) {
                    if let Some(x) = img.get_mut(t as usize) {
                        *x += s;
                    }
                }
            }
        }
    }
}

/// [`TapTable::im2col_into`] for a one-off geometry: builds the table on
/// every call. A layer keeps its table and lowers through that instead.
///
/// # Panics
/// As [`TapTable::im2col_into`].
pub fn im2col_batch_into(batch: &[f32], b: usize, geom: &Conv2dGeom, out: &mut [f32]) {
    TapTable::new(geom).im2col_into(batch, b, out);
}

/// [`TapTable::col2im_into`] for a one-off geometry: builds the table on
/// every call. A layer keeps its table and scatters through that instead.
///
/// # Panics
/// As [`TapTable::col2im_into`].
pub fn col2im_batch_into(cols: &[f32], b: usize, geom: &Conv2dGeom, out: &mut [f32]) {
    TapTable::new(geom).col2im_into(cols, b, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels: c,
            in_h: h,
            in_w: w,
            k_h: k,
            k_w: k,
            stride,
            pad,
        }
    }

    /// Lower a `(B,C,H,W)` batch tensor to its `(C·KH·KW, B·OH·OW)` matrix.
    fn im2col_batch(batch: &Tensor, geom: &Conv2dGeom) -> Tensor {
        let b = batch.dims()[0];
        let mut out = vec![0.0f32; geom.col_rows() * b * geom.col_cols()];
        im2col_batch_into(batch.data(), b, geom, &mut out);
        Tensor::from_vec([geom.col_rows(), b * geom.col_cols()], out)
    }

    /// Scatter a batched column matrix into a fresh `(B,C,H,W)` tensor.
    fn col2im_batch(cols: &Tensor, b: usize, geom: &Conv2dGeom) -> Tensor {
        let mut out = vec![0.0f32; b * geom.in_channels * geom.in_h * geom.in_w];
        col2im_batch_into(cols.data(), b, geom, &mut out);
        Tensor::from_vec([b, geom.in_channels, geom.in_h, geom.in_w], out)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `Σ aᵢ·bᵢ` accumulated in f64, so summation error stays far below
    /// the adjoint tests' tolerance at the models' batch-10 sizes.
    fn dot64(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
    }

    #[test]
    fn output_dims() {
        let g = geom(3, 16, 16, 3, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (14, 14));
        let g = geom(3, 16, 16, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
        let g = geom(1, 8, 8, 2, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        assert!(geom(1, 4, 4, 5, 1, 0).validate().is_err());
        assert!(geom(1, 4, 4, 3, 0, 0).validate().is_err());
        assert!(geom(1, 4, 4, 5, 1, 1).validate().is_ok());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is just a reshape.
        let g = geom(2, 3, 3, 1, 1, 0);
        let img = Tensor::from_vec([2, 3, 3], (0..18).map(|x| x as f32).collect());
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn im2col_known_patch() {
        let g = geom(1, 3, 3, 2, 1, 0);
        let img = Tensor::from_vec([1, 3, 3], (1..=9).map(|x| x as f32).collect());
        let cols = im2col(&img, &g);
        // First output position (0,0) gathers the top-left 2x2 patch down
        // the rows (k-row-major): 1,2,4,5 at column 0.
        assert_eq!(cols.dims(), &[4, 4]);
        let col0: Vec<f32> = (0..4).map(|r| cols.at(&[r, 0])).collect();
        assert_eq!(col0, vec![1.0, 2.0, 4.0, 5.0]);
        let col3: Vec<f32> = (0..4).map(|r| cols.at(&[r, 3])).collect();
        assert_eq!(col3, vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_produces_zeros() {
        let g = geom(1, 2, 2, 3, 1, 1);
        let img = Tensor::ones([1, 2, 2]);
        let cols = im2col(&img, &g);
        // Top-left output gathers a patch whose first row is entirely padding.
        assert_eq!(cols.at(&[0, 0]), 0.0);
        // Centre weights see real pixels.
        assert_eq!(cols.at(&[4, 0]), 1.0);
    }

    /// Shapes exercising stride 1 and 2, pad 0 and 1, odd sizes, a kernel
    /// wider than the unpadded input and an empty batch, then the models'
    /// own conv layers at batch 10: LeNet-5 on CIFAR-10 (3@16×16, 8@7×7)
    /// and FMNIST (1@16×16), and ResNet-9's padded 3×3 at 8×8, 4×4, 2×2.
    const BATCH_SHAPES: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
        // (b, c, h, w, k, stride, pad)
        (1, 1, 5, 5, 3, 1, 0),
        (3, 2, 6, 6, 3, 2, 1),
        (2, 3, 4, 4, 2, 1, 1),
        (4, 1, 7, 5, 3, 2, 0),
        (2, 2, 3, 3, 3, 1, 1),
        (1, 1, 2, 2, 3, 1, 1),
        (0, 2, 5, 5, 3, 1, 1),
        (10, 3, 16, 16, 3, 1, 0),
        (10, 8, 7, 7, 3, 1, 0),
        (10, 1, 16, 16, 3, 1, 0),
        (10, 3, 8, 8, 3, 1, 1),
        (10, 8, 8, 8, 3, 1, 1),
        (10, 16, 4, 4, 3, 1, 1),
        (10, 32, 2, 2, 3, 1, 1),
    ];

    fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
    }

    #[test]
    fn batched_im2col_matches_per_image() {
        for (i, &(b, c, h, w, k, s, p)) in BATCH_SHAPES.iter().enumerate() {
            let g = geom(c, h, w, k, s, p);
            let batch = random_tensor(&[b, c, h, w], 100 + i as u64);
            let cols = im2col_batch(&batch, &g);
            let ocols = g.col_cols();
            let n = b * ocols;
            assert_eq!(cols.dims(), &[g.col_rows(), n]);
            let chw = c * h * w;
            for bi in 0..b {
                let img =
                    Tensor::from_vec([c, h, w], batch.data()[bi * chw..(bi + 1) * chw].to_vec());
                let single = im2col(&img, &g);
                for r in 0..g.col_rows() {
                    assert_eq!(
                        bits(&cols.data()[r * n + bi * ocols..][..ocols]),
                        bits(&single.data()[r * ocols..][..ocols]),
                        "shape {:?} image {} row {}",
                        (b, c, h, w, k, s, p),
                        bi,
                        r
                    );
                }
            }
        }
    }

    /// Bit for bit, not to a tolerance: a scatter-add that reordered a
    /// pixel's sum would pass `< 1e-6` and still move result bytes.
    #[test]
    fn batched_col2im_matches_per_image() {
        for (i, &(b, c, h, w, k, s, p)) in BATCH_SHAPES.iter().enumerate() {
            let g = geom(c, h, w, k, s, p);
            let ocols = g.col_cols();
            let n = b * ocols;
            let cols = random_tensor(&[g.col_rows(), n], 200 + i as u64);
            let imgs = col2im_batch(&cols, b, &g);
            assert_eq!(imgs.dims(), &[b, c, h, w]);
            let chw = c * h * w;
            for bi in 0..b {
                let sub: Vec<f32> = (0..g.col_rows())
                    .flat_map(|r| &cols.data()[r * n + bi * ocols..][..ocols])
                    .copied()
                    .collect();
                let single = col2im(&Tensor::from_vec([g.col_rows(), ocols], sub), &g);
                assert_eq!(
                    bits(&imgs.data()[bi * chw..(bi + 1) * chw]),
                    bits(single.data()),
                    "shape {:?} image {}",
                    (b, c, h, w, k, s, p),
                    bi
                );
            }
        }
    }

    #[test]
    fn batched_workspace_is_fully_overwritten() {
        // Reusing a dirty workspace must not leak stale values into the
        // zero-padding positions.
        let g = geom(1, 2, 2, 3, 1, 1);
        let batch = Tensor::ones([2, 1, 2, 2]);
        let n = g.col_rows() * 2 * g.col_cols();
        let mut ws = vec![7.0f32; n];
        im2col_batch_into(batch.data(), 2, &g, &mut ws);
        let clean = im2col_batch(&batch, &g);
        assert_eq!(&ws, clean.data());
    }

    #[test]
    fn batched_col2im_is_adjoint_of_batched_im2col() {
        for (i, &(b, c, h, w, k, s, p)) in BATCH_SHAPES.iter().enumerate() {
            let g = geom(c, h, w, k, s, p);
            let x = random_tensor(&[b, c, h, w], 300 + i as u64);
            let y = random_tensor(&[g.col_rows(), b * g.col_cols()], 400 + i as u64);
            let lhs = dot64(im2col_batch(&x, &g).data(), y.data());
            let rhs = dot64(x.data(), col2im_batch(&y, b, &g).data());
            assert!(
                (lhs - rhs).abs() < 1e-3,
                "adjoint mismatch: {} vs {}",
                lhs,
                rhs
            );
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which is what backprop relies on.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for &(c, h, w, k, s, p) in &[(1, 5, 5, 3, 1, 0), (2, 6, 6, 3, 2, 1), (3, 4, 4, 2, 1, 1)] {
            let g = geom(c, h, w, k, s, p);
            let x = Tensor::from_vec(
                [c, h, w],
                (0..c * h * w)
                    .map(|_| rng.gen_range(-1.0..1.0f32))
                    .collect(),
            );
            let rows = g.col_rows();
            let cols_n = g.col_cols();
            let y = Tensor::from_vec(
                [rows, cols_n],
                (0..rows * cols_n)
                    .map(|_| rng.gen_range(-1.0..1.0f32))
                    .collect(),
            );
            let lhs = im2col(&x, &g).dot(&y);
            let rhs = x.dot(&col2im(&y, &g));
            assert!(
                (lhs - rhs).abs() < 1e-3,
                "adjoint mismatch: {} vs {}",
                lhs,
                rhs
            );
        }
    }
}
