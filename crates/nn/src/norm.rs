//! Batch normalisation for convolutional feature maps.

use crate::layer::Layer;
use crate::param::Param;
use fedclust_tensor::Tensor;

/// Per-channel batch normalisation over `(batch, C, H, W)`.
///
/// Training mode normalises with batch statistics and updates exponential
/// running estimates; eval mode uses the running estimates. Gamma/beta are
/// trainable. Running statistics are *not* trainable parameters but are part
/// of the model state that federated aggregation must average — they are
/// exposed via [`BatchNorm2d::running_stats`] / [`set_running_stats`]
/// and folded into the model's state vector by `fedclust-nn::model`.
///
/// [`set_running_stats`]: BatchNorm2d::set_running_stats
#[derive(Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// New batch-norm over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones([channels])),
            beta: Param::new(Tensor::zeros([channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// The non-trainable running statistics `(mean, var)`.
    pub fn running_stats(&self) -> (&[f32], &[f32]) {
        (&self.running_mean, &self.running_var)
    }

    /// Overwrite the running statistics (used when loading aggregated
    /// federated state).
    pub fn set_running_stats(&mut self, mean: &[f32], var: &[f32]) {
        assert_eq!(mean.len(), self.channels);
        assert_eq!(var.len(), self.channels);
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Layer for BatchNorm2d {
    #[allow(clippy::needless_range_loop)] // channel index also builds plane offsets
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().ndim(), 4, "batchnorm expects (batch, C, H, W)");
        let (b, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let plane = h * w;
        let n = (b * plane) as f32;
        let mut out = x.clone();

        if train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for bi in 0..b {
                for ci in 0..c {
                    let s: f32 = x.data()[(bi * c + ci) * plane..(bi * c + ci + 1) * plane]
                        .iter()
                        .sum();
                    mean[ci] += s;
                }
            }
            for m in &mut mean {
                *m /= n;
            }
            for bi in 0..b {
                for ci in 0..c {
                    let m = mean[ci];
                    let s: f32 = x.data()[(bi * c + ci) * plane..(bi * c + ci + 1) * plane]
                        .iter()
                        .map(|&v| (v - m) * (v - m))
                        .sum();
                    var[ci] += s;
                }
            }
            for v in &mut var {
                *v /= n;
            }
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            // Normalise + affine.
            for bi in 0..b {
                for ci in 0..c {
                    let (m, is) = (mean[ci], inv_std[ci]);
                    let (g, be) = (self.gamma.value.data()[ci], self.beta.value.data()[ci]);
                    for v in &mut out.data_mut()[(bi * c + ci) * plane..(bi * c + ci + 1) * plane] {
                        *v = (*v - m) * is;
                        // x_hat written; affine applied after caching below.
                        *v = g * *v + be;
                    }
                }
            }
            // Recompute x_hat for the cache (undo affine): cheaper to store
            // x_hat directly during the loop, so reconstruct it here.
            let mut x_hat = x.clone();
            for bi in 0..b {
                for ci in 0..c {
                    let (m, is) = (mean[ci], inv_std[ci]);
                    for v in &mut x_hat.data_mut()[(bi * c + ci) * plane..(bi * c + ci + 1) * plane]
                    {
                        *v = (*v - m) * is;
                    }
                }
            }
            // Update running stats.
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
            }
            self.cache = Some(BnCache {
                x_hat,
                inv_std,
                dims: x.dims().to_vec(),
            });
        } else {
            for bi in 0..b {
                for ci in 0..c {
                    let m = self.running_mean[ci];
                    let is = 1.0 / (self.running_var[ci] + self.eps).sqrt();
                    let (g, be) = (self.gamma.value.data()[ci], self.beta.value.data()[ci]);
                    for v in &mut out.data_mut()[(bi * c + ci) * plane..(bi * c + ci + 1) * plane] {
                        *v = g * (*v - m) * is + be;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer contract — backward always follows a train-mode forward, which fills the cache"
        )]
        let cache = self
            .cache
            .take()
            .expect("batchnorm backward called without cached forward");
        let dims = cache.dims;
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let n = (b * plane) as f32;

        // Standard batch-norm backward:
        // dβ_c = Σ dy, dγ_c = Σ dy·x̂
        // dx̂ = dy·γ
        // dx = (1/N)·inv_std·(N·dx̂ − Σdx̂ − x̂·Σ(dx̂·x̂))
        let mut dbeta = vec![0.0f32; c];
        let mut dgamma = vec![0.0f32; c];
        let mut sum_dxhat = vec![0.0f32; c];
        let mut sum_dxhat_xhat = vec![0.0f32; c];
        for bi in 0..b {
            for ci in 0..c {
                let g = self.gamma.value.data()[ci];
                let off = (bi * c + ci) * plane;
                for i in 0..plane {
                    let dy = grad_out.data()[off + i];
                    let xh = cache.x_hat.data()[off + i];
                    dbeta[ci] += dy;
                    dgamma[ci] += dy * xh;
                    let dxh = dy * g;
                    sum_dxhat[ci] += dxh;
                    sum_dxhat_xhat[ci] += dxh * xh;
                }
            }
        }
        for ci in 0..c {
            self.beta.grad.data_mut()[ci] += dbeta[ci];
            self.gamma.grad.data_mut()[ci] += dgamma[ci];
        }
        let mut dx = Tensor::zeros(dims.clone());
        for bi in 0..b {
            for ci in 0..c {
                let g = self.gamma.value.data()[ci];
                let is = cache.inv_std[ci];
                let off = (bi * c + ci) * plane;
                for i in 0..plane {
                    let dy = grad_out.data()[off + i];
                    let xh = cache.x_hat.data()[off + i];
                    let dxh = dy * g;
                    dx.data_mut()[off + i] =
                        is / n * (n * dxh - sum_dxhat[ci] - xh * sum_dxhat_xhat[ci]);
                }
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn extra_state(&self) -> Vec<f32> {
        let mut out = self.running_mean.clone();
        out.extend_from_slice(&self.running_var);
        out
    }

    fn extra_state_len(&self) -> usize {
        2 * self.channels
    }

    fn set_extra_state(&mut self, state: &[f32]) {
        assert_eq!(
            state.len(),
            2 * self.channels,
            "batchnorm state length mismatch"
        );
        let (mean, var) = state.split_at(self.channels);
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn train_output_is_normalised() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(2);
        let x = fedclust_tensor::init::randn([4, 2, 3, 3], &mut rng);
        let y = bn.forward(x, true);
        // Per channel, mean ≈ 0 and var ≈ 1 (gamma=1, beta=0 initially).
        for ci in 0..2 {
            let mut vals = Vec::new();
            for bi in 0..4 {
                let off = (bi * 2 + ci) * 9;
                vals.extend_from_slice(&y.data()[off..off + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {}", mean);
            assert!((var - 1.0).abs() < 1e-2, "var {}", var);
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.set_running_stats(&[2.0], &[4.0]);
        let x = Tensor::full([1, 1, 1, 2], 4.0);
        let y = bn.forward(x, false);
        // (4-2)/sqrt(4+eps) ≈ 1.0
        for v in y.data() {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gradient_check_through_quadratic_loss() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let x = fedclust_tensor::init::randn([3, 2, 2, 2], &mut rng);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial affine params.
        bn.gamma.value.data_mut().copy_from_slice(&[1.5, 0.5]);
        bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.3]);

        let y = bn.forward(x.clone(), true);
        let dx = bn.backward(y);

        let eps = 1e-2f32;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| {
            let y = bn.forward(x.clone(), true);
            bn.cache = None; // discard training cache from probe
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        // Probing perturbs running stats; acceptable for a gradient check
        // since the loss path uses batch stats.
        let idx = [1usize, 0, 1, 1];
        let mut xp = x.clone();
        *xp.at_mut(&idx) += eps;
        let lp = loss(&mut bn, &xp);
        *xp.at_mut(&idx) -= 2.0 * eps;
        let lm = loss(&mut bn, &xp);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = dx.at(&idx);
        assert!(
            (numeric - analytic).abs() < 5e-2,
            "numeric {} analytic {}",
            numeric,
            analytic
        );
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full([2, 1, 2, 2], 10.0);
        bn.forward(x, true);
        let (mean, var) = bn.running_stats();
        assert!(mean[0] > 0.9 && mean[0] < 1.1); // 0.9*0 + 0.1*10
        assert!(var[0] < 1.0); // 0.9*1 + 0.1*0
    }
}
