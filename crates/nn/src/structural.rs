//! Structural layers: flatten and residual blocks.

use crate::layer::{Layer, Sequential};
use crate::param::Param;
use fedclust_tensor::Tensor;

/// Flatten `(batch, …)` to `(batch, prod(rest))`.
#[derive(Clone, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Layer for Flatten {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        assert!(x.shape().ndim() >= 2, "flatten expects a batch dimension");
        let b = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        if train {
            self.cached_dims = Some(x.dims().to_vec());
        }
        x.reshape_in_place([b, rest]);
        x
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer contract — backward always follows a train-mode forward, which fills the cache"
        )]
        let dims = self
            .cached_dims
            .take()
            .expect("flatten backward called without cached forward");
        grad_out.reshape_in_place(dims);
        grad_out
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A residual block: `y = body(x) + x`.
///
/// The body must preserve the input shape (as in ResNet-9's two 3×3
/// same-channel convolutions). The skip connection is the identity.
#[derive(Clone)]
pub struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wrap a shape-preserving body.
    pub fn new(body: Sequential) -> Self {
        Residual { body }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let y = self.body.forward(x.clone(), train);
        assert_eq!(
            y.dims(),
            x.dims(),
            "residual body must preserve shape ({} vs {})",
            y.shape(),
            x.shape()
        );
        &y + &x
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        // d/dx [body(x) + x] = body'(x) + I.
        let through_body = self.body.backward(grad_out.clone());
        &through_body + &grad_out
    }

    fn params(&self) -> Vec<&Param> {
        self.body.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.body.params_mut()
    }

    fn name(&self) -> &'static str {
        "residual"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn extra_state(&self) -> Vec<f32> {
        self.body.extra_state()
    }

    fn extra_state_len(&self) -> usize {
        self.body.extra_state_len()
    }

    fn set_extra_state(&mut self, state: &[f32]) {
        self.body.set_extra_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use rand::SeedableRng;

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::default();
        let x = Tensor::zeros([2, 3, 4, 4]);
        let y = f.forward(x, true);
        assert_eq!(y.dims(), &[2, 48]);
        let dx = f.backward(Tensor::zeros([2, 48]));
        assert_eq!(dx.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn residual_identity_body_doubles_input() {
        // Empty body = identity, so y = 2x.
        let mut r = Residual::new(Sequential::new());
        let x = Tensor::from_vec([1, 2], vec![1.0, -3.0]);
        let y = r.forward(x, false);
        assert_eq!(y.data(), &[2.0, -6.0]);
    }

    #[test]
    fn residual_gradient_includes_skip_path() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let body = Sequential::new()
            .push(Dense::new(3, 3, &mut rng))
            .push(Relu::default());
        let mut r = Residual::new(body);
        let x = fedclust_tensor::init::randn([2, 3], &mut rng);
        let y = r.forward(x.clone(), true);
        let dx = r.backward(y.clone());

        // Numeric check through L = 0.5||y||².
        let eps = 1e-3f32;
        let idx = [0usize, 1usize];
        let mut loss = |xp: &Tensor| {
            let y = r.forward(xp.clone(), true);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let mut xp = x.clone();
        *xp.at_mut(&idx) += eps;
        let lp = loss(&xp);
        *xp.at_mut(&idx) -= 2.0 * eps;
        let lm = loss(&xp);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - dx.at(&idx)).abs() < 5e-2,
            "numeric {} analytic {}",
            numeric,
            dx.at(&idx)
        );
    }

    #[test]
    #[should_panic(expected = "must preserve shape")]
    fn residual_rejects_shape_changing_body() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut r = Residual::new(Sequential::new().push(Dense::new(3, 4, &mut rng)));
        let _ = r.forward(Tensor::zeros([1, 3]), false);
    }
}
