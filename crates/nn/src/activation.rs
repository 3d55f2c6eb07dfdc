//! Activation layers.

use crate::layer::Layer;
use crate::param::Param;
use fedclust_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`, applied elementwise to any shape.
#[derive(Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Layer for Relu {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        x.map_in_place(|v| v.max(0.0));
        x
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer contract — backward always follows a train-mode forward, which fills the cache"
        )]
        let mask = self
            .mask
            .take()
            .expect("relu backward called without cached forward");
        assert_eq!(mask.len(), grad_out.numel(), "relu mask/grad size mismatch");
        // A select, not a branch (the mask is about half set, so a branch
        // mispredicts) and not a multiply (`g·0.0` is −0.0 for a negative
        // `g` and NaN for an infinite one): every lane is `g` or `+0.0`.
        for (g, &m) in grad_out.data_mut().iter_mut().zip(&mask) {
            *g = if m { *g } else { 0.0 };
        }
        grad_out
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic tangent activation (used by the LeNet-5-style model to stay
/// close to the original architecture's character).
#[derive(Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Layer for Tanh {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        x.map_in_place(f32::tanh);
        if train {
            self.cached_output = Some(x.clone());
        }
        x
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer contract — backward always follows a train-mode forward, which fills the cache"
        )]
        let y = self
            .cached_output
            .take()
            .expect("tanh backward called without cached forward");
        for (g, &yv) in grad_out.data_mut().iter_mut().zip(y.data()) {
            *g *= 1.0 - yv * yv;
        }
        grad_out
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "tanh"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::default();
        let y = relu.forward(Tensor::from_vec([4], vec![-1.0, 0.0, 2.0, -0.5]), false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::default();
        relu.forward(Tensor::from_vec([4], vec![-1.0, 1.0, 2.0, -2.0]), true);
        let dx = relu.backward(Tensor::ones([4]));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_gradient_check() {
        let mut tanh = Tanh::default();
        let x = Tensor::from_vec([3], vec![-0.7, 0.1, 1.3]);
        tanh.forward(x.clone(), true);
        let dx = tanh.backward(Tensor::ones([3]));
        let eps = 1e-3f32;
        for i in 0..3 {
            let num = ((x.data()[i] + eps).tanh() - (x.data()[i] - eps).tanh()) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-3);
        }
    }

    /// A blocked lane is `+0.0` whatever the gradient was — a negative one
    /// does not become `−0.0`, an infinite one does not become NaN — and a
    /// passed lane keeps its exact bits.
    #[test]
    fn relu_backward_selects_rather_than_multiplies() {
        let mut relu = Relu::default();
        relu.forward(Tensor::from_vec([4], vec![-1.0, -1.0, 1.0, 1.0]), true);
        let g = vec![-3.5, f32::INFINITY, -0.0, f32::NEG_INFINITY];
        let dx = relu.backward(Tensor::from_vec([4], g));
        let bits: Vec<u32> = dx.data().iter().map(|v| v.to_bits()).collect();
        let want = [0.0f32, 0.0, -0.0, f32::NEG_INFINITY].map(f32::to_bits);
        assert_eq!(bits, want);
    }

    #[test]
    fn relu_zero_boundary_blocks_gradient() {
        // At exactly 0 the subgradient choice is 0 (mask is v > 0).
        let mut relu = Relu::default();
        relu.forward(Tensor::from_vec([1], vec![0.0]), true);
        let dx = relu.backward(Tensor::ones([1]));
        assert_eq!(dx.data(), &[0.0]);
    }
}
