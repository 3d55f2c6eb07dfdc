//! Spatial pooling layers.

use crate::layer::Layer;
use crate::param::Param;
use fedclust_tensor::Tensor;

/// Non-overlapping max pooling over `(batch, C, H, W)` with a square window.
/// Trailing rows/columns that do not fill a window are dropped (floor
/// semantics, like PyTorch's default).
#[derive(Clone)]
pub struct MaxPool2d {
    k: usize,
    cached_argmax: Option<(Vec<usize>, Vec<usize>)>, // (argmax flat indices, input dims)
}

impl MaxPool2d {
    /// New pool with window and stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        MaxPool2d {
            k,
            cached_argmax: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().ndim(), 4, "maxpool expects (batch, C, H, W)");
        let (b, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        assert!(
            oh > 0 && ow > 0,
            "pool window {} larger than input {}x{}",
            k,
            h,
            w
        );
        let mut out = vec![0.0f32; b * c * oh * ow];
        // Only backward reads the argmax, so an evaluation pass builds none.
        let mut argmax = if train {
            vec![0usize; b * c * oh * ow]
        } else {
            Vec::new()
        };
        let data = x.data();
        for bc in 0..b * c {
            let plane = &data[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..k {
                        for dx in 0..k {
                            let iy = oy * k + dy;
                            let ix = ox * k + dx;
                            let v = plane[iy * w + ix];
                            if v > best {
                                best = v;
                                best_idx = bc * h * w + iy * w + ix;
                            }
                        }
                    }
                    let o = bc * oh * ow + oy * ow + ox;
                    out[o] = best;
                    if train {
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        if train {
            self.cached_argmax = Some((argmax, vec![b, c, h, w]));
        }
        Tensor::from_vec([b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer contract — backward always follows a train-mode forward, which fills the cache"
        )]
        let (argmax, dims) = self
            .cached_argmax
            .take()
            .expect("maxpool backward called without cached forward");
        let mut dx = Tensor::zeros(dims);
        let dxd = dx.data_mut();
        for (g, &idx) in grad_out.data().iter().zip(&argmax) {
            dxd[idx] += g;
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: `(batch, C, H, W)` → `(batch, C)`.
#[derive(Clone, Default)]
pub struct GlobalAvgPool2d {
    cached_dims: Option<Vec<usize>>,
}

impl Layer for GlobalAvgPool2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(
            x.shape().ndim(),
            4,
            "global avgpool expects (batch, C, H, W)"
        );
        let (b, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut out = vec![0.0f32; b * c];
        for (bc, o) in out.iter_mut().enumerate() {
            *o = x.data()[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() * inv;
        }
        if train {
            self.cached_dims = Some(x.dims().to_vec());
        }
        Tensor::from_vec([b, c], out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer contract — backward always follows a train-mode forward, which fills the cache"
        )]
        let dims = self
            .cached_dims
            .take()
            .expect("global avgpool backward called without cached forward");
        let (h, w) = (dims[2], dims[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut dx = Tensor::zeros(dims.clone());
        for (bc, &g) in grad_out.data().iter().enumerate() {
            for v in &mut dx.data_mut()[bc * h * w..(bc + 1) * h * w] {
                *v = g * inv;
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "globalavgpool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let y = pool.forward(x, false);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]);
        pool.forward(x, true);
        let dx = pool.backward(Tensor::from_vec([1, 1, 1, 1], vec![5.0]));
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    /// The first strict maximum wins a tie and NaN never wins, in both
    /// modes; only a training pass keeps an argmax.
    #[test]
    fn maxpool_ties_go_to_the_first_and_eval_keeps_no_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            [1, 2, 2, 2],
            vec![f32::NAN, 2.0, 2.0, 1.0, 5.0, 5.0, 5.0, 5.0],
        );
        let y = pool.forward(x.clone(), false);
        assert!(pool.cached_argmax.is_none());
        assert_eq!(pool.forward(x, true).data(), y.data());
        assert_eq!(y.data(), &[2.0, 5.0]);
        let dx = pool.backward(Tensor::from_vec([1, 2, 1, 1], vec![1.0, 3.0]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_floor_semantics_drop_trailing() {
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(Tensor::zeros([1, 1, 5, 5]), false);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn global_avgpool_averages_planes() {
        let mut pool = GlobalAvgPool2d::default();
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = pool.forward(x, false);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avgpool_backward_distributes_evenly() {
        let mut pool = GlobalAvgPool2d::default();
        pool.forward(Tensor::zeros([1, 1, 2, 2]), true);
        let dx = pool.backward(Tensor::from_vec([1, 1], vec![4.0]));
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }
}
