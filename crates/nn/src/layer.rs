//! The object-safe layer trait and sequential composition.

use crate::param::Param;
use fedclust_tensor::Tensor;

/// A neural-network layer with explicit forward and backward passes.
///
/// Contract:
/// * `forward` consumes the input batch and caches whatever the backward
///   pass needs (inputs, masks, …) when `train` is true;
/// * `backward` consumes the gradient wrt the layer output and returns the
///   gradient wrt the layer input, *accumulating* parameter gradients into
///   [`Param::grad`];
/// * `backward` must only be called after a `forward(…, train=true)` on the
///   same layer instance.
pub trait Layer: Send + Sync {
    /// Forward pass over a batch. `train` enables caching for backward and
    /// training-mode behaviour (e.g. batch-norm batch statistics).
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor;

    /// Backward pass: gradient wrt output in, gradient wrt input out.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads
    /// (a model's first layer): accumulates the same parameter gradients
    /// and releases the same caches, but need not form the input gradient.
    /// The default runs `backward` and drops its result; layers whose input
    /// gradient costs real work override it.
    fn backward_params(&mut self, grad_out: Tensor) {
        self.backward(grad_out);
    }

    /// Immutable views of the layer's trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Param>;

    /// Mutable views of the layer's trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// A short human-readable layer kind, e.g. `"conv2d"`.
    fn name(&self) -> &'static str;

    /// Clone into a boxed trait object (layers are plain data, so all
    /// implementations derive `Clone` and forward to it).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars in this layer.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Non-trainable state that must still be synchronised in federated
    /// aggregation (batch-norm running statistics). Default: none.
    fn extra_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Length of [`Layer::extra_state`]. Default: 0.
    fn extra_state_len(&self) -> usize {
        0
    }

    /// Overwrite the non-trainable state. Default: no-op; implementations
    /// must accept exactly `extra_state_len()` values.
    fn set_extra_state(&mut self, _state: &[f32]) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// [`Layer::backward`] through a stack of layers, last to first; the body
/// of both [`Sequential`]'s and `Model`'s.
pub(crate) fn backward_stack(layers: &mut [Box<dyn Layer>], grad: Tensor) -> Tensor {
    match layers.split_first_mut() {
        Some((first, above)) => first.backward(backward_above(above, grad)),
        None => grad,
    }
}

/// [`Layer::backward_params`] through a stack: every layer above the first
/// exactly as in [`backward_stack`], then the first without its input
/// gradient.
pub(crate) fn backward_stack_params(layers: &mut [Box<dyn Layer>], grad: Tensor) {
    if let Some((first, above)) = layers.split_first_mut() {
        first.backward_params(backward_above(above, grad));
    }
}

fn backward_above(above: &mut [Box<dyn Layer>], mut grad: Tensor) -> Tensor {
    for layer in above.iter_mut().rev() {
        grad = layer.backward(grad);
    }
    grad
}

/// A sequential stack of layers, itself a [`Layer`].
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Layer for Sequential {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        for layer in &mut self.layers {
            x = layer.forward(x, train);
        }
        x
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        backward_stack(&mut self.layers, grad)
    }

    /// Recurses into the first layer, so a stack at the bottom of a model
    /// (ResNet-9's conv-bn-relu stem) skips its own first input gradient.
    fn backward_params(&mut self, grad: Tensor) {
        backward_stack_params(&mut self.layers, grad);
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn extra_state(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.extra_state()).collect()
    }

    fn extra_state_len(&self) -> usize {
        self.layers.iter().map(|l| l.extra_state_len()).sum()
    }

    fn set_extra_state(&mut self, state: &[f32]) {
        let mut off = 0;
        for layer in &mut self.layers {
            let n = layer.extra_state_len();
            if n > 0 {
                layer.set_extra_state(&state[off..off + n]);
            }
            off += n;
        }
        assert_eq!(off, state.len(), "extra state length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use rand::SeedableRng;

    #[test]
    fn sequential_composes_forward() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut seq = Sequential::new()
            .push(Dense::new(3, 4, &mut rng))
            .push(Relu::default())
            .push(Dense::new(4, 2, &mut rng));
        let out = seq.forward(Tensor::zeros([5, 3]), false);
        assert_eq!(out.dims(), &[5, 2]);
        assert_eq!(seq.len(), 3);
        // Two dense layers × (weight + bias).
        assert_eq!(seq.params().len(), 4);
        assert_eq!(seq.param_count(), 3 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn boxed_clone_is_independent() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let seq = Sequential::new().push(Dense::new(2, 2, &mut rng));
        let mut copy = seq.clone();
        copy.params_mut()[0].value.scale(0.0);
        // Original untouched.
        assert!(seq.params()[0].value.data().iter().any(|&x| x != 0.0));
    }
}
