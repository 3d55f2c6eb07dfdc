//! Spatial pooling layers.

use crate::layer::Layer;
use crate::param::Param;
use fedclust_tensor::Tensor;

/// Non-overlapping 2×2 max pooling over `(batch, C, H, W)`, stride 2. A
/// trailing row or column that does not fill a window is dropped (floor
/// semantics, like PyTorch's default).
#[derive(Clone, Default)]
pub struct MaxPool2d {
    cached_argmax: Option<(Vec<usize>, Vec<usize>)>, // (argmax flat indices, input dims)
}

/// The first strict maximum of a window in window order (top-left,
/// top-right, bottom-left, bottom-right), starting from −∞: NaN never wins,
/// a tie keeps the earlier value (+0.0 before −0.0), and a window with
/// nothing above −∞ (all NaN or −∞) gives −∞. Selects, not branches, so a
/// row of windows vectorises.
#[inline(always)]
fn window_max(v: [f32; 4]) -> f32 {
    v.into_iter()
        .fold(f32::NEG_INFINITY, |best, x| if x > best { x } else { best })
}

/// Where in `v` its [`window_max`] `best` lies: the first element with
/// `best`'s bits, which is the one the scan kept (an earlier value equal to
/// it, ±0 included, would have been kept instead), or position 0, the
/// window's first element, when nothing in it is above −∞. Integer
/// arithmetic on the comparisons: a select chain here compiles to
/// data-dependent branches, which real activations mispredict.
#[inline(always)]
fn window_argmax(v: [f32; 4], best: f32) -> usize {
    let found = usize::from(best > f32::NEG_INFINITY);
    let [m0, m1, m2, _] = v.map(|x| usize::from(x.to_bits() != best.to_bits()));
    found * m0 * (1 + m1 * (1 + m2))
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().ndim(), 4, "maxpool expects (batch, C, H, W)");
        let (b, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = (h / 2, w / 2);
        assert!(
            oh > 0 && ow > 0,
            "2x2 pool window larger than input {h}x{w}"
        );
        let mut out = vec![0.0f32; b * c * oh * ow];
        // Only backward reads the argmax, so an evaluation pass builds none.
        let mut argmax = if train {
            vec![0usize; out.len()]
        } else {
            Vec::new()
        };
        let data = x.data();
        for (bc, plane) in data.chunks_exact(h * w).enumerate() {
            for oy in 0..oh {
                let top = &plane[2 * oy * w..][..w];
                let bottom = &plane[(2 * oy + 1) * w..][..w];
                let windows = top
                    .chunks_exact(2)
                    .zip(bottom.chunks_exact(2))
                    .map(|(t, u)| [t[0], t[1], u[0], u[1]]);
                let o0 = (bc * oh + oy) * ow;
                let orow = &mut out[o0..o0 + ow];
                if train {
                    let row0 = bc * h * w + 2 * oy * w;
                    let arow = &mut argmax[o0..o0 + ow];
                    for (ox, ((o, a), v)) in orow.iter_mut().zip(arow).zip(windows).enumerate() {
                        *o = window_max(v);
                        let at = window_argmax(v, *o);
                        *a = row0 + (at / 2) * w + 2 * ox + at % 2;
                    }
                } else {
                    for (o, v) in orow.iter_mut().zip(windows) {
                        *o = window_max(v);
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
        let mut pool = MaxPool2d::default();
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
        let mut pool = MaxPool2d::default();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]);
        pool.forward(x, true);
        let dx = pool.backward(Tensor::from_vec([1, 1, 1, 1], vec![5.0]));
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    /// The first strict maximum wins a tie and NaN never wins, in both
    /// modes; only a training pass keeps an argmax.
    #[test]
    fn maxpool_ties_go_to_the_first_and_eval_keeps_no_argmax() {
        let mut pool = MaxPool2d::default();
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

    /// A window with nothing above −∞ sends its gradient to its own first
    /// element; an argmax that started at 0 sent it to element 0 of image 0.
    #[test]
    fn maxpool_all_nan_window_routes_to_its_first_element() {
        let mut pool = MaxPool2d::default();
        let x = Tensor::from_vec(
            [2, 1, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, f32::NAN, f32::NAN, f32::NAN, f32::NAN],
        );
        let y = pool.forward(x, true);
        assert_eq!(y.data(), &[4.0, f32::NEG_INFINITY]);
        let dx = pool.backward(Tensor::from_vec([2, 1, 1, 1], vec![1.0, 7.0]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0, 7.0, 0.0, 0.0, 0.0]);
    }

    /// The runtime-window loop `MaxPool2d` had, at its one window size: the
    /// first strict maximum in row-major window order, starting from −∞, and
    /// its flat input index, starting at the window's first element. The
    /// oracle for `forward`'s output and argmax.
    fn max_pool_reference(x: &Tensor) -> (Vec<f32>, Vec<usize>) {
        let k = 2;
        let (b, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = (h / k, w / k);
        let mut out = vec![0.0f32; b * c * oh * ow];
        let mut argmax = vec![0usize; b * c * oh * ow];
        let data = x.data();
        for bc in 0..b * c {
            let plane = &data[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = bc * h * w + oy * k * w + ox * k;
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
                    argmax[o] = best_idx;
                }
            }
        }
        (out, argmax)
    }

    /// `forward` against `max_pool_reference`: output `to_bits` in both
    /// modes, argmax exactly in training, no argmax in evaluation. Inputs:
    /// random activations, and values drawn from small pools so that
    /// windows tie (+0.0 against −0.0 among them) or hold NaN and −∞; at
    /// batch 1, 6 and 10, on LeNet-5's two pooled shapes (14×14, and 5×5
    /// with its trailing row and column dropped) and on odd, unequal H
    /// and W.
    #[test]
    fn maxpool_matches_the_reference_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(51);
        let ties = [0.0, -0.0, 1.0, -1.0];
        let non_finite = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, 0.0, -0.0, 2.0];
        for batch in [1, 6, 10] {
            for (c, h, w) in [(8, 14, 14), (16, 5, 5), (3, 7, 9), (2, 2, 3)] {
                let len = batch * c * h * w;
                let random: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let tied: Vec<f32> = (0..len)
                    .map(|_| ties[rng.gen_range(0..ties.len())])
                    .collect();
                let odd: Vec<f32> = (0..len)
                    .map(|_| non_finite[rng.gen_range(0..non_finite.len())])
                    .collect();
                for data in [random, tied, odd] {
                    let x = Tensor::from_vec([batch, c, h, w], data);
                    let (want, want_argmax) = max_pool_reference(&x);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    let mut pool = MaxPool2d::default();
                    let y = pool.forward(x.clone(), false);
                    assert_eq!(y.dims(), &[batch, c, h / 2, w / 2]);
                    assert_eq!(bits(y.data()), bits(&want), "eval {batch}x{c}x{h}x{w}");
                    assert!(pool.cached_argmax.is_none());
                    let y = pool.forward(x, true);
                    assert_eq!(bits(y.data()), bits(&want), "train {batch}x{c}x{h}x{w}");
                    let (argmax, dims) = pool.cached_argmax.take().expect("a training pass");
                    assert_eq!(argmax, want_argmax, "argmax {batch}x{c}x{h}x{w}");
                    assert_eq!(dims, vec![batch, c, h, w]);
                }
            }
        }
    }

    #[test]
    fn maxpool_floor_semantics_drop_trailing() {
        let mut pool = MaxPool2d::default();
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
