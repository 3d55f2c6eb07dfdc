//! 2-d convolution layer via batched im2col + GEMM.

use std::sync::Arc;

use crate::layer::Layer;
use crate::param::Param;
use fedclust_tensor::conv::{Conv2dGeom, TapTable};
use fedclust_tensor::init::he_normal;
use fedclust_tensor::matmul::{gemm_nn, gemm_nt, gemm_tn};
use fedclust_tensor::Tensor;
use rand::Rng;

/// A 2-d convolution over `(batch, C_in, H, W)` inputs producing
/// `(batch, C_out, OH, OW)`.
///
/// Weights are stored `(C_out, C_in·KH·KW)` — already in GEMM layout — with
/// a per-output-channel bias. The whole batch is lowered at once into a
/// single `(C_in·KH·KW, B·OH·OW)` column matrix, so forward and backward
/// each issue one large GEMM instead of `B` small ones. Both the column
/// matrix and the channel-major staging buffer are owned workspaces that
/// persist across steps, so steady-state training does no per-step
/// allocation for the lowering.
pub struct Conv2d {
    weight: Param,
    bias: Param,
    /// The geometry and where each im2col entry reads from: built once by
    /// [`Conv2d::new`] and shared by every clone, so per-client replicas
    /// never rebuild it.
    taps: Arc<TapTable>,
    out_channels: usize,
    /// im2col workspace, `(C_in·KH·KW) × (B·OH·OW)`. After a training
    /// forward it doubles as the cached activation for backward, and during
    /// backward it is overwritten in place with the column gradient —
    /// peak memory holds one column matrix, never two.
    cols: Vec<f32>,
    /// Channel-major staging buffer, `C_out × (B·OH·OW)`: pre-bias GEMM
    /// output in forward, re-laid-out output gradient in backward.
    stage: Vec<f32>,
    /// Batch size the `cols` workspace caches from the last training
    /// forward; 0 when no activation cache is live.
    cached_batch: usize,
}

impl Conv2d {
    /// New conv layer with He-normal weights and zero bias.
    ///
    /// # Panics
    /// Panics if the geometry is invalid (kernel larger than padded input).
    pub fn new(geom: Conv2dGeom, out_channels: usize, rng: &mut impl Rng) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented panic — the # Panics section makes geometry validity a constructor precondition"
        )]
        geom.validate().expect("invalid conv geometry");
        let fan_in = geom.col_rows();
        let weight = he_normal([out_channels, fan_in], fan_in, rng);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros([out_channels])),
            taps: Arc::new(TapTable::new(&geom)),
            out_channels,
            cols: Vec::new(),
            stage: Vec::new(),
            cached_batch: 0,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> &Conv2dGeom {
        self.taps.geom()
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The parameter half of backward, shared by [`Layer::backward`] and
    /// [`Layer::backward_params`]: re-lays the output gradient into
    /// `stage` (left there for the input gradient), accumulates `dW` and
    /// `db`, and releases the activation cache. Returns the batch size.
    fn param_grads(&mut self, grad_out: &Tensor) -> usize {
        let g = *self.geom();
        let batch = grad_out.dims()[0];
        assert_eq!(
            self.cached_batch, batch,
            "conv2d backward called without matching cached training forward"
        );
        let ocols = g.out_h() * g.out_w();
        let n = batch * ocols;
        let rows = g.col_rows();

        // Re-lay (B, C_out, OH, OW) as channel-major (C_out × n) and take
        // the per-channel bias sums in the same pass.
        self.stage.resize(self.out_channels * n, 0.0);
        {
            let go = grad_out.data();
            let db = self.bias.grad.data_mut();
            for c in 0..self.out_channels {
                let dst = &mut self.stage[c * n..(c + 1) * n];
                let mut sum = 0.0f32;
                for b in 0..batch {
                    let src = &go[b * self.out_channels * ocols + c * ocols..][..ocols];
                    dst[b * ocols..(b + 1) * ocols].copy_from_slice(src);
                    sum += src.iter().sum::<f32>();
                }
                db[c] += sum;
            }
        }

        // dW += gmat (C_out×n) · colsᵀ (n×rows), accumulated straight into
        // the weight gradient. Must read `cols` before it is repurposed.
        gemm_nt(
            self.out_channels,
            n,
            rows,
            &self.stage,
            &self.cols,
            self.weight.grad.data_mut(),
        );
        self.cached_batch = 0;
        batch
    }
}

impl Clone for Conv2d {
    /// Clones parameters and shares the tap table but not the workspaces:
    /// cloned layers (e.g. per-client model replicas in the FL engine)
    /// start with empty scratch and grow it on their first forward, instead
    /// of copying megabytes of transient buffers.
    fn clone(&self) -> Self {
        Conv2d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            taps: Arc::clone(&self.taps),
            out_channels: self.out_channels,
            cols: Vec::new(),
            stage: Vec::new(),
            cached_batch: 0,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let g = *self.geom();
        assert_eq!(x.shape().ndim(), 4, "conv2d expects (batch, C, H, W)");
        assert_eq!(
            &x.dims()[1..],
            &[g.in_channels, g.in_h, g.in_w],
            "conv2d input geometry mismatch"
        );
        let batch = x.dims()[0];
        let (oh, ow) = (g.out_h(), g.out_w());
        let ocols = oh * ow;
        let n = batch * ocols;
        let rows = g.col_rows();

        // Lower the whole batch in one pass; every element is overwritten,
        // so the workspace needs no clearing.
        self.cols.resize(rows * n, 0.0);
        self.taps.im2col_into(x.data(), batch, &mut self.cols);

        // One GEMM for the batch: (C_out × rows) · (rows × n).
        self.stage.clear();
        self.stage.resize(self.out_channels * n, 0.0);
        gemm_nn(
            self.out_channels,
            rows,
            n,
            self.weight.value.data(),
            &self.cols,
            &mut self.stage,
        );

        // Scatter channel-major GEMM output to (B, C_out, OH, OW), folding
        // in the bias.
        let mut out = vec![0.0f32; batch * self.out_channels * ocols];
        let bias = self.bias.value.data();
        for c in 0..self.out_channels {
            let src = &self.stage[c * n..(c + 1) * n];
            let bv = bias[c];
            for b in 0..batch {
                let dst = &mut out[b * self.out_channels * ocols + c * ocols..][..ocols];
                for (d, &s) in dst.iter_mut().zip(&src[b * ocols..(b + 1) * ocols]) {
                    *d = s + bv;
                }
            }
        }

        // The column matrix itself is the activation cache; an eval forward
        // overwrote it, so invalidate any cache it clobbered.
        self.cached_batch = if train { batch } else { 0 };
        Tensor::from_vec([batch, self.out_channels, oh, ow], out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let batch = self.param_grads(&grad_out);
        let g = *self.geom();
        let n = batch * g.out_h() * g.out_w();
        let rows = g.col_rows();

        // dcols = Wᵀ (rows×C_out) · gmat (C_out×n), written into the cols
        // workspace in place of the now-consumed activations.
        self.cols.fill(0.0);
        gemm_tn(
            rows,
            self.out_channels,
            n,
            self.weight.value.data(),
            &self.stage,
            &mut self.cols,
        );

        // Scatter-add the column gradient back to image layout.
        let in_sz = g.in_channels * g.in_h * g.in_w;
        let mut dx = vec![0.0f32; batch * in_sz];
        self.taps.col2im_into(&self.cols, batch, &mut dx);
        Tensor::from_vec([batch, g.in_channels, g.in_h, g.in_w], dx)
    }

    /// Only `dW` and `db`: no `Wᵀ·gmat` GEMM, no col2im, no `dx`.
    fn backward_params(&mut self, grad_out: Tensor) {
        self.param_grads(&grad_out);
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn geom(c: usize, h: usize, w: usize, k: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels: c,
            in_h: h,
            in_w: w,
            k_h: k,
            k_w: k,
            stride: 1,
            pad: 0,
        }
    }

    #[test]
    fn forward_shape() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut conv = Conv2d::new(geom(3, 8, 8, 3), 5, &mut rng);
        let y = conv.forward(Tensor::zeros([2, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[2, 5, 6, 6]);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1 input channel, 1 output channel, 1x1 kernel with weight 1.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut conv = Conv2d::new(geom(1, 4, 4, 1), 1, &mut rng);
        conv.params_mut()[0].value.data_mut()[0] = 1.0;
        conv.params_mut()[1].value.fill_zero();
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let y = conv.forward(x.clone(), false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_sum_kernel() {
        // 2x2 all-ones kernel sums each patch.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let mut conv = Conv2d::new(geom(1, 3, 3, 2), 1, &mut rng);
        for w in conv.params_mut()[0].value.data_mut() {
            *w = 1.0;
        }
        conv.params_mut()[1].value.fill_zero();
        let x = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(x, false);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_shifts_every_output() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut conv = Conv2d::new(geom(1, 3, 3, 3), 2, &mut rng);
        conv.params_mut()[0].value.fill_zero();
        conv.params_mut()[1]
            .value
            .data_mut()
            .copy_from_slice(&[2.5, -1.5]);
        let y = conv.forward(Tensor::zeros([1, 1, 3, 3]), false);
        assert_eq!(y.data(), &[2.5, -1.5]);
    }

    /// The batched forward must agree with an explicit per-image reference
    /// convolution to tight tolerance, across strides and paddings.
    #[test]
    fn batched_forward_matches_per_image_reference() {
        use fedclust_tensor::conv::im2col;
        use fedclust_tensor::matmul::matmul;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for &(b, c, h, w, k, s, p, co) in &[
            (3usize, 2usize, 6, 6, 3, 1, 1, 4usize),
            (2, 3, 5, 5, 3, 2, 0, 2),
            (4, 1, 7, 7, 5, 1, 2, 3),
        ] {
            let g = Conv2dGeom {
                in_channels: c,
                in_h: h,
                in_w: w,
                k_h: k,
                k_w: k,
                stride: s,
                pad: p,
            };
            let mut conv = Conv2d::new(g, co, &mut rng);
            let x = fedclust_tensor::init::randn([b, c, h, w], &mut rng);
            let y = conv.forward(x.clone(), false);
            let ocols = g.col_cols();
            let chw = c * h * w;
            for bi in 0..b {
                let img = Tensor::from_vec([c, h, w], x.data()[bi * chw..(bi + 1) * chw].to_vec());
                let yref = matmul(&conv.weight.value, &im2col(&img, &g));
                for ci in 0..co {
                    let bias = conv.bias.value.data()[ci];
                    for j in 0..ocols {
                        let got = y.data()[bi * co * ocols + ci * ocols + j];
                        let want = yref.at(&[ci, j]) + bias;
                        assert!(
                            (got - want).abs() <= 1e-4,
                            "shape {:?} b={} c={} j={}: {} vs {}",
                            (b, c, h, w, k, s, p, co),
                            bi,
                            ci,
                            j,
                            got,
                            want
                        );
                    }
                }
            }
        }
    }

    /// Workspaces are reused across steps (no growth after the first) and
    /// cleared by `clone`, and backward consumes the activation cache.
    #[test]
    fn workspaces_recycle_and_clone_resets() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let g = Conv2dGeom {
            in_channels: 2,
            in_h: 6,
            in_w: 6,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let mut conv = Conv2d::new(g, 4, &mut rng);
        let x = fedclust_tensor::init::randn([3, 2, 6, 6], &mut rng);
        let y = conv.forward(x.clone(), true);
        assert_eq!(conv.cached_batch, 3);
        let (cols_cap, stage_cap) = (conv.cols.capacity(), conv.stage.capacity());
        conv.backward(y);
        assert_eq!(conv.cached_batch, 0, "backward must release the cache");
        for _ in 0..3 {
            let y = conv.forward(x.clone(), true);
            conv.backward(y);
        }
        assert_eq!(conv.cols.capacity(), cols_cap, "cols workspace reallocated");
        assert_eq!(
            conv.stage.capacity(),
            stage_cap,
            "stage workspace reallocated"
        );

        let replica = conv.clone();
        assert!(replica.cols.is_empty() && replica.stage.is_empty());
        assert_eq!(replica.cached_batch, 0);
        assert_eq!(replica.weight.value.data(), conv.weight.value.data());
    }

    /// A replica lowers through its original's tap table, and neither a
    /// training step nor an evaluation forward replaces it.
    #[test]
    fn clones_share_the_tap_table_and_forward_never_rebuilds_it() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let g = Conv2dGeom {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let mut conv = Conv2d::new(g, 3, &mut rng);
        let table = Arc::clone(&conv.taps);
        let mut replica = conv.clone();
        let x = fedclust_tensor::init::randn([2, 2, 5, 5], &mut rng);
        for layer in [&mut conv, &mut replica] {
            assert!(Arc::ptr_eq(&layer.taps, &table));
            let y = layer.forward(x.clone(), true);
            layer.backward(y);
            layer.forward(x.clone(), false);
            assert!(
                Arc::ptr_eq(&layer.taps, &table),
                "the tap table was rebuilt"
            );
        }
        assert_eq!(Arc::strong_count(&table), 3);
    }

    #[test]
    #[should_panic(expected = "without matching cached training forward")]
    fn eval_forward_invalidates_training_cache() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(10);
        let mut conv = Conv2d::new(geom(1, 4, 4, 3), 2, &mut rng);
        let x = Tensor::zeros([2, 1, 4, 4]);
        let y = conv.forward(x.clone(), true);
        // The eval forward clobbers the shared column workspace; backward
        // must refuse rather than produce silently wrong gradients.
        let _ = conv.forward(x, false);
        let _ = conv.backward(y);
    }

    /// `backward_params` accumulates the same `dW`/`db` bits as `backward`
    /// and releases the activation cache the same way.
    #[test]
    fn backward_params_matches_backward_and_releases_the_cache() {
        let g = Conv2dGeom {
            in_channels: 3,
            in_h: 8,
            in_w: 8,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let mut full = Conv2d::new(g, 8, &mut rand::rngs::SmallRng::seed_from_u64(12));
        let mut fast = full.clone();
        let x = fedclust_tensor::init::randn(
            [10, 3, 8, 8],
            &mut rand::rngs::SmallRng::seed_from_u64(13),
        );
        for _ in 0..2 {
            let y = full.forward(x.clone(), true);
            assert_eq!(fast.forward(x.clone(), true).data(), y.data());
            full.backward(y.clone());
            fast.backward_params(y);
            assert_eq!((full.cached_batch, fast.cached_batch), (0, 0));
        }
        for (a, b) in full.params().iter().zip(fast.params()) {
            let bits = |p: &Param| {
                p.grad
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    #[should_panic(expected = "without matching cached training forward")]
    fn eval_forward_invalidates_training_cache_for_backward_params() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(10);
        let mut conv = Conv2d::new(geom(1, 4, 4, 3), 2, &mut rng);
        let x = Tensor::zeros([2, 1, 4, 4]);
        let y = conv.forward(x.clone(), true);
        let _ = conv.forward(x, false);
        conv.backward_params(y);
    }

    /// Gradient check through L = 0.5·||y||².
    #[test]
    fn gradient_check() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let g = Conv2dGeom {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let mut conv = Conv2d::new(g, 3, &mut rng);
        let x = fedclust_tensor::init::randn([2, 2, 5, 5], &mut rng);

        let y = conv.forward(x.clone(), true);
        let dx = conv.backward(y);

        let eps = 1e-2f32;
        let loss = |conv: &mut Conv2d, x: &Tensor| {
            let y = conv.forward(x.clone(), false);
            0.5 * y
                .data()
                .iter()
                .map(|v| (*v as f64) * (*v as f64))
                .sum::<f64>() as f32
        };
        // Weight gradient spot checks.
        for &(i, j) in &[(0usize, 0usize), (2, 7), (1, 17)] {
            let old = conv.weight.value.at(&[i, j]);
            *conv.weight.value.at_mut(&[i, j]) = old + eps;
            let lp = loss(&mut conv, &x);
            *conv.weight.value.at_mut(&[i, j]) = old - eps;
            let lm = loss(&mut conv, &x);
            *conv.weight.value.at_mut(&[i, j]) = old;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.weight.grad.at(&[i, j]);
            let scale = analytic.abs().max(1.0);
            assert!(
                (numeric - analytic).abs() / scale < 5e-2,
                "dW[{},{}]: numeric {} analytic {}",
                i,
                j,
                numeric,
                analytic
            );
        }
        // Input gradient spot check.
        let idx = [1usize, 1, 2, 3];
        let mut xp = x.clone();
        *xp.at_mut(&idx) += eps;
        let lp = loss(&mut conv, &xp);
        *xp.at_mut(&idx) -= 2.0 * eps;
        let lm = loss(&mut conv, &xp);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = dx.at(&idx);
        assert!(
            (numeric - analytic).abs() / analytic.abs().max(1.0) < 5e-2,
            "dx: numeric {} analytic {}",
            numeric,
            analytic
        );
    }
}
