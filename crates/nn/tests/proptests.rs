//! Property-based tests of the neural-network layer contracts.

use fedclust_nn::activation::Relu;
use fedclust_nn::dense::Dense;
use fedclust_nn::layer::Layer;
use fedclust_nn::loss::cross_entropy;
use fedclust_nn::models::mlp;
use fedclust_nn::optim::{Sgd, SgdConfig};
use fedclust_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense layers are linear: f(αx) = αf(x) when bias is zero.
    #[test]
    fn dense_is_homogeneous(seed in 0u64..500, alpha in -3.0f32..3.0) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut layer = Dense::new(4, 3, &mut rng);
        layer.params_mut()[1].value.fill_zero(); // zero bias
        let x = fedclust_tensor::init::randn([2, 4], &mut rng);
        let y1 = layer.forward(x.map(|v| v * alpha), false);
        let y2 = layer.forward(x, false);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b * alpha).abs() < 1e-3, "{} vs {}", a, b * alpha);
        }
    }

    /// ReLU output is elementwise max(x, 0) on any shape.
    #[test]
    fn relu_semantics(v in proptest::collection::vec(-5.0f32..5.0, 1..32)) {
        let n = v.len();
        let mut relu = Relu::default();
        let y = relu.forward(Tensor::from_vec([n], v.clone()), false);
        for (o, i) in y.data().iter().zip(&v) {
            prop_assert_eq!(*o, i.max(0.0));
        }
    }

    /// Cross-entropy is non-negative and its gradient rows sum to zero.
    #[test]
    fn cross_entropy_invariants(
        logits in proptest::collection::vec(-8.0f32..8.0, 12),
        targets in proptest::collection::vec(0usize..4, 3),
    ) {
        let t = Tensor::from_vec([3, 4], logits);
        let (loss, grad) = cross_entropy(&t, &targets);
        prop_assert!(loss >= -1e-6, "loss {}", loss);
        for i in 0..3 {
            let s: f32 = grad.data()[i * 4..(i + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    /// param_vec/set_param_vec round-trips on a real model, and the vector
    /// layout is stable across clones.
    #[test]
    fn param_vec_round_trip(seed in 0u64..500) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let m = mlp(12, 8, 4, &mut rng);
        let v = m.param_vec();
        let mut clone = m.clone();
        clone.set_param_vec(&v);
        prop_assert_eq!(clone.param_vec(), v);
        // Blocks tile the vector exactly.
        let blocks = m.param_blocks();
        let mut off = 0;
        for b in &blocks {
            prop_assert_eq!(b.offset, off);
            off += b.len;
        }
        prop_assert_eq!(off, m.num_params());
    }

    /// One SGD step with lr→0 leaves weights unchanged; with lr>0 and a
    /// nonzero gradient it changes them.
    #[test]
    fn sgd_step_scaling(seed in 0u64..500) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut m = mlp(6, 5, 3, &mut rng);
        let x = fedclust_tensor::init::randn([4, 6], &mut rng);
        let before = m.param_vec();

        let mut opt0 = Sgd::new(SgdConfig { lr: 0.0, momentum: 0.0 });
        m.train_step(x.clone(), &[0, 1, 2, 0], &mut opt0);
        prop_assert_eq!(m.param_vec(), before.clone());

        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0 });
        m.train_step(x, &[0, 1, 2, 0], &mut opt);
        prop_assert_ne!(m.param_vec(), before);
    }
}
