//! The model zoo: the architectures the paper evaluates, scaled to the
//! reproduction's 16×16 synthetic images (see DESIGN.md §2).
//!
//! * [`ModelSpec::Mlp`] — a small MLP, used for fast tests and benches;
//! * [`ModelSpec::LeNet5`] — LeNet-5-style CNN (conv-pool-conv-pool-fc³),
//!   the paper's model for CIFAR-10 / FMNIST / SVHN;
//! * [`ModelSpec::VggMini`] — 4 conv + 2 FC stack standing in for VGG16 in
//!   the Fig. 1 layer-wise distance observation study;
//! * [`ModelSpec::ResNet9`] — a ResNet-9-style residual network with batch
//!   norm, the paper's model for CIFAR-100.

use crate::activation::Relu;
use crate::conv2d::Conv2d;
use crate::dense::Dense;
use crate::layer::{Layer, Sequential};
use crate::model::Model;
use crate::norm::BatchNorm2d;
use crate::pool::{GlobalAvgPool2d, MaxPool2d};
use crate::structural::{Flatten, Residual};
use fedclust_tensor::conv::Conv2dGeom;
use rand::Rng;

/// Which architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// Multi-layer perceptron with one hidden width for both hidden layers.
    Mlp {
        /// Hidden layer width.
        hidden: usize,
    },
    /// LeNet-5-style CNN.
    LeNet5,
    /// VGG-mini: 4 conv + 2 FC, for the Fig. 1 observation study.
    VggMini,
    /// ResNet-9-style residual CNN with batch normalisation.
    ResNet9,
}

impl ModelSpec {
    /// Short tag used in experiment output.
    pub fn tag(&self) -> &'static str {
        match self {
            ModelSpec::Mlp { .. } => "mlp",
            ModelSpec::LeNet5 => "lenet5",
            ModelSpec::VggMini => "vgg-mini",
            ModelSpec::ResNet9 => "resnet9",
        }
    }

    /// Build the model for `(in_channels, height, width)` images and
    /// `num_classes` outputs, with weights drawn from `rng`.
    pub fn build(
        &self,
        in_channels: usize,
        height: usize,
        width: usize,
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> Model {
        match self {
            ModelSpec::Mlp { hidden } => {
                mlp(in_channels * height * width, *hidden, num_classes, rng)
            }
            ModelSpec::LeNet5 => lenet5(in_channels, height, width, num_classes, rng),
            ModelSpec::VggMini => vgg_mini(in_channels, height, width, num_classes, rng),
            ModelSpec::ResNet9 => resnet9(in_channels, height, width, num_classes, rng),
        }
    }
}

fn geom(c: usize, h: usize, w: usize, k: usize, pad: usize) -> Conv2dGeom {
    Conv2dGeom {
        in_channels: c,
        in_h: h,
        in_w: w,
        k_h: k,
        k_w: k,
        stride: 1,
        pad,
    }
}

/// A two-hidden-layer MLP: `in → hidden → hidden → classes` with ReLU.
pub fn mlp(input_dim: usize, hidden: usize, num_classes: usize, rng: &mut impl Rng) -> Model {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Flatten::default()),
        Box::new(Dense::new(input_dim, hidden, rng)),
        Box::new(Relu::default()),
        Box::new(Dense::new(hidden, hidden, rng)),
        Box::new(Relu::default()),
        Box::new(Dense::new(hidden, num_classes, rng)),
    ];
    Model::new(layers, num_classes, "mlp")
}

/// LeNet-5-style CNN: two conv+pool feature stages and three fully
/// connected layers (the original's 120-84-10 head, scaled down).
pub fn lenet5(c: usize, h: usize, w: usize, num_classes: usize, rng: &mut impl Rng) -> Model {
    let g1 = geom(c, h, w, 3, 0);
    let (h1, w1) = (g1.out_h() / 2, g1.out_w() / 2);
    let g2 = geom(8, h1, w1, 3, 0);
    let (h2, w2) = (g2.out_h() / 2, g2.out_w() / 2);
    let flat = 16 * h2 * w2;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(g1, 8, rng)),
        Box::new(Relu::default()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Conv2d::new(g2, 16, rng)),
        Box::new(Relu::default()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::default()),
        Box::new(Dense::new(flat, 48, rng)),
        Box::new(Relu::default()),
        Box::new(Dense::new(48, 24, rng)),
        Box::new(Relu::default()),
        Box::new(Dense::new(24, num_classes, rng)),
    ];
    Model::new(layers, num_classes, "lenet5")
}

/// VGG-mini: conv-conv-pool, conv-conv-pool, fc-fc. Its six parameter
/// blocks (4 conv + 2 FC) give the Fig. 1 study distinct "early conv",
/// "late conv", "hidden FC" and "final FC" layers to compare.
pub fn vgg_mini(c: usize, h: usize, w: usize, num_classes: usize, rng: &mut impl Rng) -> Model {
    let g1 = geom(c, h, w, 3, 1);
    let g2 = geom(8, g1.out_h(), g1.out_w(), 3, 1);
    let (h2, w2) = (g2.out_h() / 2, g2.out_w() / 2);
    let g3 = geom(8, h2, w2, 3, 1);
    let g4 = geom(16, g3.out_h(), g3.out_w(), 3, 1);
    let (h4, w4) = (g4.out_h() / 2, g4.out_w() / 2);
    let flat = 16 * h4 * w4;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(g1, 8, rng)),
        Box::new(Relu::default()),
        Box::new(Conv2d::new(g2, 8, rng)),
        Box::new(Relu::default()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Conv2d::new(g3, 16, rng)),
        Box::new(Relu::default()),
        Box::new(Conv2d::new(g4, 16, rng)),
        Box::new(Relu::default()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::default()),
        Box::new(Dense::new(flat, 32, rng)),
        Box::new(Relu::default()),
        Box::new(Dense::new(32, num_classes, rng)),
    ];
    Model::new(layers, num_classes, "vgg-mini")
}

fn conv_bn_relu(c_in: usize, c_out: usize, h: usize, w: usize, rng: &mut impl Rng) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(geom(c_in, h, w, 3, 1), c_out, rng))
        .push(BatchNorm2d::new(c_out))
        .push(Relu::default())
}

/// ResNet-9-style network: conv-bn-relu stem, two down-sampling stages each
/// followed by a residual block, global average pooling, and a linear
/// classifier — the structure of the "ResNet-9" used by the paper for
/// CIFAR-100, with reduced widths (8/16/32).
pub fn resnet9(c: usize, h: usize, w: usize, num_classes: usize, rng: &mut impl Rng) -> Model {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    // Stem: c → 8 at full resolution.
    layers.push(Box::new(conv_bn_relu(c, 8, h, w, rng)));
    // Stage 1: 8 → 16, then pool to h/2.
    layers.push(Box::new(conv_bn_relu(8, 16, h, w, rng)));
    layers.push(Box::new(MaxPool2d::new(2)));
    let (h1, w1) = (h / 2, w / 2);
    // Residual block at 16 channels.
    let res1 = Sequential::new()
        .push_boxed(Box::new(conv_bn_relu(16, 16, h1, w1, rng)))
        .push_boxed(Box::new(conv_bn_relu(16, 16, h1, w1, rng)));
    layers.push(Box::new(Residual::new(res1)));
    // Stage 2: 16 → 32, pool to h/4.
    layers.push(Box::new(conv_bn_relu(16, 32, h1, w1, rng)));
    layers.push(Box::new(MaxPool2d::new(2)));
    let (h2, w2) = (h1 / 2, w1 / 2);
    // Residual block at 32 channels.
    let res2 = Sequential::new()
        .push_boxed(Box::new(conv_bn_relu(32, 32, h2, w2, rng)))
        .push_boxed(Box::new(conv_bn_relu(32, 32, h2, w2, rng)));
    layers.push(Box::new(Residual::new(res2)));
    // Head.
    layers.push(Box::new(GlobalAvgPool2d::default()));
    layers.push(Box::new(Dense::new(32, num_classes, rng)));
    Model::new(layers, num_classes, "resnet9")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_tensor::Tensor;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn mlp_shapes() {
        let mut m = mlp(3 * 16 * 16, 32, 10, &mut rng(0));
        let y = m.forward(Tensor::zeros([2, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn lenet5_shapes_and_blocks() {
        let mut m = lenet5(3, 16, 16, 10, &mut rng(1));
        let y = m.forward(Tensor::zeros([2, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[2, 10]);
        // 2 conv + 3 fc parameter blocks.
        assert_eq!(m.param_blocks().len(), 5);
        // Final layer = classifier: 24 weights per class + bias.
        assert_eq!(m.param_blocks().last().unwrap().len, 24 * 10 + 10);
    }

    #[test]
    fn lenet5_single_channel() {
        let mut m = lenet5(1, 16, 16, 10, &mut rng(2));
        let y = m.forward(Tensor::zeros([1, 1, 16, 16]), false);
        assert_eq!(y.dims(), &[1, 10]);
    }

    #[test]
    fn vgg_mini_has_six_blocks() {
        let m = vgg_mini(3, 16, 16, 10, &mut rng(3));
        assert_eq!(m.param_blocks().len(), 6);
    }

    #[test]
    fn vgg_mini_forward_shape() {
        let mut m = vgg_mini(3, 16, 16, 10, &mut rng(4));
        let y = m.forward(Tensor::zeros([2, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn resnet9_forward_and_state() {
        let mut m = resnet9(3, 16, 16, 20, &mut rng(5));
        let y = m.forward(Tensor::zeros([2, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[2, 20]);
        // Batch-norm running stats are part of the state vector.
        assert!(m.extra_state_len() > 0);
        assert_eq!(m.state_len(), m.num_params() + m.extra_state_len());
        // State round-trips.
        let s = m.state_vec();
        let mut m2 = resnet9(3, 16, 16, 20, &mut rng(6));
        m2.set_state_vec(&s);
        assert_eq!(m2.state_vec(), s);
    }

    #[test]
    fn resnet9_trains_one_step() {
        let mut m = resnet9(3, 16, 16, 4, &mut rng(7));
        let mut opt = crate::optim::Sgd::new(crate::optim::SgdConfig::default());
        let x = fedclust_tensor::init::randn([4, 3, 16, 16], &mut rng(8));
        let loss = m.train_step(x, &[0, 1, 2, 3], &mut opt);
        assert!(loss.is_finite());
    }

    #[test]
    fn spec_builds_all_architectures() {
        for spec in [
            ModelSpec::Mlp { hidden: 16 },
            ModelSpec::LeNet5,
            ModelSpec::VggMini,
            ModelSpec::ResNet9,
        ] {
            let mut m = spec.build(3, 16, 16, 10, &mut rng(9));
            let y = m.forward(Tensor::zeros([1, 3, 16, 16]), false);
            assert_eq!(y.dims(), &[1, 10], "spec {:?}", spec);
        }
    }

    /// `train_step` (whose backward skips the first layer's input gradient)
    /// trains every architecture to the same bits as `forward` +
    /// `Model::backward` + `Sgd::step`, over several steps with momentum,
    /// a ragged last batch included. For ResNet-9 the skipped gradient sits
    /// inside the stem's `Sequential`, and the state holds batch-norm's
    /// running statistics too.
    #[test]
    fn train_step_matches_forward_backward_step_to_the_bit() {
        for spec in [
            ModelSpec::LeNet5,
            ModelSpec::ResNet9,
            ModelSpec::VggMini,
            ModelSpec::Mlp { hidden: 16 },
        ] {
            let mut fast = spec.build(3, 16, 16, 10, &mut rng(11));
            let mut full = spec.build(3, 16, 16, 10, &mut rng(11));
            let cfg = crate::optim::SgdConfig {
                lr: 0.05,
                momentum: 0.9,
            };
            let (mut opt_fast, mut opt_full) =
                (crate::optim::Sgd::new(cfg), crate::optim::Sgd::new(cfg));
            let mut data = rng(12);
            for (step, batch) in [10usize, 10, 10, 8].into_iter().enumerate() {
                let x = fedclust_tensor::init::randn([batch, 3, 16, 16], &mut data);
                let y: Vec<usize> = (0..batch).map(|i| (i * 7 + step) % 10).collect();
                fast.train_step(x.clone(), &y, &mut opt_fast);
                let logits = full.forward(x, true);
                let (_, grad) = crate::loss::cross_entropy(&logits, &y);
                let dx = full.backward(grad);
                assert_eq!(dx.dims(), &[batch, 3, 16, 16], "{spec:?}");
                opt_full.step(&mut full.params_mut());
            }
            let bits =
                |m: &Model| -> Vec<u32> { m.state_vec().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&fast), bits(&full), "{spec:?}");
        }
    }

    #[test]
    fn final_layer_is_small_fraction_of_model() {
        // The premise of FedClust's communication saving: the classifier
        // head is much smaller than the full model.
        let m = lenet5(3, 16, 16, 10, &mut rng(10));
        let fl = m.param_blocks().last().unwrap().len;
        assert!(
            fl * 4 < m.num_params(),
            "final layer {} of {}",
            fl,
            m.num_params()
        );
    }
}
