//! Fully connected (dense / linear) layer.

use crate::layer::Layer;
use crate::param::Param;
use fedclust_tensor::init::xavier_uniform;
use fedclust_tensor::matmul::{gemm_tn, matmul, matmul_nt};
use fedclust_tensor::Tensor;
use rand::Rng;

/// `y = x W^T + b` over a `(batch, in)` input, producing `(batch, out)`.
///
/// The weight is stored `(out, in)`, matching the usual "final layer
/// weights + bias" view the paper transmits for clustering.
#[derive(Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// New layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = xavier_uniform([out_features, in_features], in_features, out_features, rng);
        Dense {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros([out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The parameter half of backward, shared by [`Layer::backward`] and
    /// [`Layer::backward_params`]: accumulates `dW` and `db` and releases
    /// the cached input.
    fn param_grads(&mut self, grad_out: &Tensor) {
        #[expect(
            clippy::expect_used,
            reason = "Layer contract — backward always follows a train-mode forward, which fills the cache"
        )]
        let x = self
            .cached_input
            .take()
            .expect("dense backward called without cached forward");
        // dW += grad_out^T (out×B) * x (B×in), accumulated straight into the
        // weight gradient by the slice-level GEMM — no intermediate tensor.
        let batch = grad_out.dims()[0];
        gemm_tn(
            self.out_features,
            batch,
            self.in_features,
            grad_out.data(),
            x.data(),
            self.weight.grad.data_mut(),
        );
        // db = column sums of grad_out.
        let db = self.bias.grad.data_mut();
        for row in grad_out.data().chunks(self.out_features) {
            for (g, &v) in db.iter_mut().zip(row) {
                *g += v;
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().ndim(), 2, "dense expects (batch, features)");
        assert_eq!(x.dims()[1], self.in_features, "dense input width mismatch");
        // y = x (B×in) * W^T (in×out) + b
        let mut y = matmul_nt(&x, &self.weight.value);
        let b = self.bias.value.data();
        let out = self.out_features;
        for row in y.data_mut().chunks_mut(out) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        if train {
            self.cached_input = Some(x);
        }
        y
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.param_grads(&grad_out);
        // dx = grad_out (B×out) * W (out×in)
        matmul(&grad_out, &self.weight.value)
    }

    /// Only `dW` and `db`: no `grad_out·W` GEMM.
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
        "dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Central-difference gradient check of the dense layer through a simple
    /// quadratic loss `L = 0.5 * ||y||²` (so dL/dy = y).
    #[test]
    fn gradient_check() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = fedclust_tensor::init::randn([2, 4], &mut rng);

        let y = layer.forward(x.clone(), true);
        let dx = layer.backward(y.clone());

        let eps = 1e-3f32;
        // Check dL/dW numerically for a few entries.
        for &(i, j) in &[(0usize, 0usize), (2, 3), (1, 1)] {
            let probe = |delta: f32, layer: &mut Dense| {
                let idx = [i, j];
                let old = layer.weight.value.at(&idx);
                *layer.weight.value.at_mut(&idx) = old + delta;
                let y = layer.forward(x.clone(), false);
                *layer.weight.value.at_mut(&idx) = old;
                0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
            };
            let lp = probe(eps, &mut layer);
            let lm = probe(-eps, &mut layer);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = layer.weight.grad.at(&[i, j]);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "dW[{},{}]: numeric {} analytic {}",
                i,
                j,
                numeric,
                analytic
            );
        }
        // Check dL/dx numerically for one entry.
        let (bi, fi) = (1usize, 2usize);
        let probe_x = |delta: f32, layer: &mut Dense| {
            let mut xp = x.clone();
            *xp.at_mut(&[bi, fi]) += delta;
            let y = layer.forward(xp, false);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let numeric = (probe_x(eps, &mut layer) - probe_x(-eps, &mut layer)) / (2.0 * eps);
        assert!((numeric - dx.at(&[bi, fi])).abs() < 2e-2);
    }

    #[test]
    fn bias_is_added_per_row() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.weight.value.fill_zero();
        layer.bias.value.data_mut().copy_from_slice(&[1.0, -1.0]);
        let y = layer.forward(Tensor::zeros([3, 2]), false);
        for row in y.data().chunks(2) {
            assert_eq!(row, &[1.0, -1.0]);
        }
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones([1, 2]);
        for _ in 0..2 {
            let y = layer.forward(x.clone(), true);
            layer.backward(y);
        }
        let g1 = layer.weight.grad.clone();
        layer.zero_grad();
        let y = layer.forward(x.clone(), true);
        layer.backward(y);
        let g2 = layer.weight.grad.clone();
        // Two accumulated passes == 2 × one pass.
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((a - 2.0 * b).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "without cached forward")]
    fn backward_without_forward_panics() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        let mut layer = Dense::new(2, 2, &mut rng);
        let _ = layer.backward(Tensor::zeros([1, 2]));
    }

    /// `backward_params` accumulates the same `dW`/`db` bits as `backward`
    /// and releases the cached input the same way.
    #[test]
    fn backward_params_matches_backward_and_releases_the_cache() {
        let mut full = Dense::new(64, 48, &mut rand::rngs::SmallRng::seed_from_u64(7));
        let mut fast = full.clone();
        let x = fedclust_tensor::init::randn([10, 64], &mut rand::rngs::SmallRng::seed_from_u64(8));
        for _ in 0..2 {
            let y = full.forward(x.clone(), true);
            assert_eq!(fast.forward(x.clone(), true).data(), y.data());
            full.backward(y.clone());
            fast.backward_params(y);
            assert!(full.cached_input.is_none() && fast.cached_input.is_none());
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
    #[should_panic(expected = "without cached forward")]
    fn backward_params_without_forward_panics() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.backward_params(Tensor::zeros([1, 2]));
    }
}
