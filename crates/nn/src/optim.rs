//! Stochastic gradient descent with momentum, weight decay, and the FedProx
//! proximal term.

use crate::param::Param;
use fedclust_tensor::Tensor;

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }
}

/// SGD optimizer state. Velocity buffers are allocated lazily per parameter
/// on the first step, so one `Sgd` can only ever drive one model instance.
///
/// The optional proximal term implements FedProx's local objective
/// `F_i(w) + (μ/2)·‖w − w_global‖²`, whose gradient contribution is
/// `μ·(w − w_global)`.
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<Tensor>,
    prox: Option<ProxTerm>,
}

struct ProxTerm {
    mu: f32,
    reference: Vec<Tensor>,
}

impl Sgd {
    /// New optimizer with the given hyper-parameters.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocity: Vec::new(),
            prox: None,
        }
    }

    /// Current hyper-parameters.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Attach a FedProx proximal term anchored at `reference` weights
    /// (one tensor per parameter, same order as the model's params).
    pub fn set_prox(&mut self, mu: f32, reference: Vec<Tensor>) {
        self.prox = Some(ProxTerm { mu, reference });
    }

    /// Apply one SGD step to `params` using their accumulated gradients,
    /// then zero the gradients.
    ///
    /// # Panics
    /// Panics if the parameter list changes shape/order between steps, or if
    /// a proximal reference does not match the parameters.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "parameter count changed between optimizer steps"
        );
        if let Some(prox) = &self.prox {
            assert_eq!(
                prox.reference.len(),
                params.len(),
                "proximal reference does not match parameter count"
            );
        }
        for (i, p) in params.iter_mut().enumerate() {
            let v = &mut self.velocity[i];
            assert_eq!(
                v.shape(),
                p.value.shape(),
                "parameter shape changed between optimizer steps"
            );
            let wd = self.config.weight_decay;
            let mu_ref = self.prox.as_ref().map(|pr| (pr.mu, &pr.reference[i]));
            let m = self.config.momentum;
            let lr = self.config.lr;
            let n = p.value.numel();
            for j in 0..n {
                let mut g = p.grad.data()[j];
                // fedlint::allow(float-eq): exact-zero sentinel — wd == 0.0 means "weight decay disabled", set only from the literal default
                if wd != 0.0 {
                    g += wd * p.value.data()[j];
                }
                if let Some((mu, r)) = mu_ref {
                    g += mu * (p.value.data()[j] - r.data()[j]);
                }
                let vel = m * v.data()[j] + g;
                v.data_mut()[j] = vel;
                p.value.data_mut()[j] -= lr * vel;
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: &[f32]) -> Param {
        Param::new(Tensor::from_vec([vals.len()], vals.to_vec()))
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        let mut p = param(&[1.0]);
        p.grad.data_mut()[0] = 2.0;
        sgd.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
        assert_eq!(p.grad.data()[0], 0.0, "grad must be zeroed after step");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.5,
            weight_decay: 0.0,
        });
        let mut p = param(&[0.0]);
        // Two steps with constant gradient 1: v1=1, v2=1.5.
        p.grad.data_mut()[0] = 1.0;
        sgd.step(&mut [&mut p]);
        p.grad.data_mut()[0] = 1.0;
        sgd.step(&mut [&mut p]);
        assert!((p.value.data()[0] - (-0.1 - 0.15)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.1,
        });
        let mut p = param(&[1.0]);
        sgd.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.99).abs() < 1e-6);
    }

    #[test]
    fn proximal_term_pulls_toward_reference() {
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        sgd.set_prox(1.0, vec![Tensor::from_vec([1], vec![0.0])]);
        let mut p = param(&[1.0]);
        // grad = 0 + μ(w − ref) = 1 → w ← 1 − 0.1 = 0.9.
        sgd.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn converges_on_quadratic_bowl() {
        // minimise f(w) = 0.5(w-3)², gradient w-3.
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.2,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        let mut p = param(&[0.0]);
        for _ in 0..100 {
            let g = p.value.data()[0] - 3.0;
            p.grad.data_mut()[0] = g;
            sgd.step(&mut [&mut p]);
        }
        assert!((p.value.data()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_panics() {
        let mut sgd = Sgd::new(SgdConfig::default());
        let mut p1 = param(&[0.0]);
        sgd.step(&mut [&mut p1]);
        let mut p2 = param(&[0.0]);
        sgd.step(&mut [&mut p1, &mut p2]);
    }
}
