//! Trainable parameters: a value tensor paired with its gradient.

use fedclust_tensor::Tensor;

/// A trainable parameter. The gradient always has the same shape as the
/// value and is *accumulated* by layer backward passes; optimizers and
/// `zero_grad` reset it.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current weight values.
    pub value: Tensor,
    /// Accumulated gradient of the loss wrt `value`.
    pub grad: Tensor,
}

impl Param {
    /// Wrap an initial value with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Reset the gradient to zero, keeping the allocation.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_of_same_shape() {
        let p = Param::new(Tensor::ones([2, 3]));
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert!(p.grad.data().iter().all(|&x| x == 0.0));
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut p = Param::new(Tensor::ones([4]));
        p.grad.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&x| x == 0.0));
    }
}
