//! Parameter-addressable model wrapper.
//!
//! [`Model`] owns a stack of layers and exposes the *views of its weights*
//! that federated learning needs:
//!
//! * `param_vec` / `set_param_vec` — all trainable weights as one flat
//!   vector (what FedAvg averages and what clients upload),
//! * `state_vec` / `set_state_vec` — trainable weights plus non-trainable
//!   state (batch-norm running statistics), the full payload a client
//!   synchronises with its server model,
//! * `param_blocks` — per-top-level-layer offsets into the parameter
//!   vector, used by LG-FedAvg's local/global split, by the Fig. 1
//!   layer-wise distance study and by FedClust's partial weights (the last
//!   block).

use crate::layer::{backward_stack, backward_stack_params, Layer};
use crate::loss::{accuracy, cross_entropy};
use crate::optim::Sgd;
use fedclust_tensor::Tensor;

/// Offsets of one top-level layer's weights inside the flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamBlock {
    /// Layer kind (`"dense"`, `"conv2d"`, `"residual"`, …).
    pub name: &'static str,
    /// Index of the layer in the model's top-level layer list.
    pub layer_index: usize,
    /// Offset of the block's first scalar in the parameter vector.
    pub offset: usize,
    /// Number of scalars in the block.
    pub len: usize,
}

/// A feed-forward model: an ordered stack of layers plus metadata.
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    num_classes: usize,
    architecture: String,
}

impl Clone for Model {
    fn clone(&self) -> Self {
        Model {
            layers: self.layers.clone(),
            num_classes: self.num_classes,
            architecture: self.architecture.clone(),
        }
    }
}

impl Model {
    /// Assemble a model from layers. `architecture` is a human-readable tag
    /// (e.g. `"lenet5"`).
    pub fn new(
        layers: Vec<Box<dyn Layer>>,
        num_classes: usize,
        architecture: impl Into<String>,
    ) -> Self {
        Model {
            layers,
            num_classes,
            architecture: architecture.into(),
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Architecture tag.
    pub fn architecture(&self) -> &str {
        &self.architecture
    }

    /// Forward pass over a batch.
    pub fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        for layer in &mut self.layers {
            x = layer.forward(x, train);
        }
        x
    }

    /// Backward pass; returns the gradient wrt the model input.
    pub fn backward(&mut self, grad: Tensor) -> Tensor {
        backward_stack(&mut self.layers, grad)
    }

    /// Backward pass for training: accumulates exactly the parameter
    /// gradients [`Model::backward`] does, but the first layer skips the
    /// gradient wrt the model input, which no optimiser reads.
    pub fn backward_params(&mut self, grad: Tensor) {
        backward_stack_params(&mut self.layers, grad);
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Immutable parameter views in deterministic (layer, param) order.
    pub fn params(&self) -> Vec<&crate::param::Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable parameter views in deterministic (layer, param) order.
    pub fn params_mut(&mut self) -> Vec<&mut crate::param::Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// All trainable weights as one flat vector.
    pub fn param_vec(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for p in self.params() {
            out.extend_from_slice(p.value.data());
        }
        out
    }

    /// Overwrite all trainable weights from a flat vector.
    ///
    /// # Panics
    /// Panics if the length does not match [`Model::num_params`].
    pub fn set_param_vec(&mut self, vec: &[f32]) {
        assert_eq!(vec.len(), self.num_params(), "param vector length mismatch");
        let mut off = 0;
        for p in self.params_mut() {
            let n = p.value.numel();
            p.value.data_mut().copy_from_slice(&vec[off..off + n]);
            off += n;
        }
    }

    /// Clone the parameter tensors (used as FedProx proximal references).
    pub fn param_tensors(&self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }

    /// Length of the non-trainable extra state (batch-norm running stats).
    pub fn extra_state_len(&self) -> usize {
        self.layers.iter().map(|l| l.extra_state_len()).sum()
    }

    /// Trainable weights plus non-trainable state, as one flat vector.
    /// This is the full payload clients and servers exchange.
    pub fn state_vec(&self) -> Vec<f32> {
        let mut out = self.param_vec();
        for layer in &self.layers {
            out.extend(layer.extra_state());
        }
        out
    }

    /// Total state length (params + extra state).
    pub fn state_len(&self) -> usize {
        self.num_params() + self.extra_state_len()
    }

    /// Overwrite all state from a flat vector produced by [`Model::state_vec`].
    pub fn set_state_vec(&mut self, vec: &[f32]) {
        assert_eq!(vec.len(), self.state_len(), "state vector length mismatch");
        let np = self.num_params();
        self.set_param_vec(&vec[..np]);
        let mut off = np;
        for layer in &mut self.layers {
            let n = layer.extra_state_len();
            if n > 0 {
                layer.set_extra_state(&vec[off..off + n]);
            }
            off += n;
        }
    }

    /// Per-top-level-layer parameter blocks, in parameter-vector order.
    /// Layers without parameters produce no block.
    pub fn param_blocks(&self) -> Vec<ParamBlock> {
        let mut blocks = Vec::new();
        let mut off = 0;
        for (i, layer) in self.layers.iter().enumerate() {
            let len = layer.param_count();
            if len > 0 {
                blocks.push(ParamBlock {
                    name: layer.name(),
                    layer_index: i,
                    offset: off,
                    len,
                });
            }
            off += len;
        }
        blocks
    }

    /// One SGD training step on a batch; returns the batch loss.
    pub fn train_step(&mut self, x: Tensor, targets: &[usize], opt: &mut Sgd) -> f32 {
        let logits = self.forward(x, true);
        let (loss, grad) = cross_entropy(&logits, targets);
        self.backward_params(grad);
        let mut params = self.params_mut();
        opt.step(&mut params);
        loss
    }

    /// Evaluate on a batch; returns `(loss, accuracy)`.
    pub fn evaluate(&mut self, x: Tensor, targets: &[usize]) -> (f32, f32) {
        let logits = self.forward(x, false);
        let (loss, _) = cross_entropy(&logits, targets);
        (loss, accuracy(&logits, targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Model {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Model::new(
            vec![
                Box::new(Dense::new(4, 8, &mut rng)),
                Box::new(Relu::default()),
                Box::new(Dense::new(8, 3, &mut rng)),
            ],
            3,
            "tiny",
        )
    }

    #[test]
    fn param_vec_round_trip() {
        let m = tiny_model(0);
        let v = m.param_vec();
        assert_eq!(v.len(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut m2 = tiny_model(1);
        assert_ne!(m2.param_vec(), v);
        m2.set_param_vec(&v);
        assert_eq!(m2.param_vec(), v);
    }

    #[test]
    fn state_vec_equals_param_vec_without_batchnorm() {
        let m = tiny_model(0);
        assert_eq!(m.state_vec(), m.param_vec());
        assert_eq!(m.extra_state_len(), 0);
    }

    #[test]
    fn param_blocks_cover_vector_exactly() {
        let m = tiny_model(2);
        let blocks = m.param_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].offset, 0);
        assert_eq!(blocks[0].len, 4 * 8 + 8);
        assert_eq!(blocks[1].offset, 40);
        assert_eq!(blocks[1].len, 8 * 3 + 3);
        assert_eq!(blocks[0].len + blocks[1].len, m.num_params());
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut m = tiny_model(4);
        let mut opt = Sgd::new(crate::optim::SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        // Three trivially separable one-hot-ish inputs.
        let x = Tensor::from_vec(
            [3, 4],
            vec![
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
        );
        let y = [0usize, 1, 2];
        let first = m.train_step(x.clone(), &y, &mut opt);
        let mut last = first;
        for _ in 0..50 {
            last = m.train_step(x.clone(), &y, &mut opt);
        }
        assert!(last < first * 0.5, "loss {} -> {}", first, last);
        let (_, acc) = m.evaluate(x, &y);
        assert!(acc > 0.99);
    }

    #[test]
    fn clone_is_deep() {
        let m = tiny_model(5);
        let mut c = m.clone();
        let zeros = vec![0.0; c.num_params()];
        c.set_param_vec(&zeros);
        assert_ne!(m.param_vec(), c.param_vec());
    }
}
