//! Property-based tests of the tensor substrate's algebraic invariants.

use fedclust_tensor::distance::{cosine, l2};
use fedclust_tensor::linalg::svd;
use fedclust_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use fedclust_tensor::ops::{log_softmax_rows, softmax_rows};
use fedclust_tensor::Tensor;
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec([rows, cols], v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A·B)·C == A·(B·C) within f32 tolerance.
    #[test]
    fn matmul_is_associative(a in tensor(4, 3), b in tensor(3, 5), c in tensor(5, 2)) {
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    /// A·(B + C) == A·B + A·C.
    #[test]
    fn matmul_distributes_over_addition(a in tensor(3, 4), b in tensor(4, 3), c in tensor(4, 3)) {
        let left = matmul(&a, &(&b + &c));
        let right = &matmul(&a, &b) + &matmul(&a, &c);
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    /// The transpose-fused kernels agree with explicit transposes.
    #[test]
    fn fused_transpose_kernels_agree(a in tensor(5, 3), b in tensor(5, 4)) {
        let tn = matmul_tn(&a, &b);               // a^T b
        let explicit = matmul(&a.transpose2(), &b);
        for (x, y) in tn.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        let c = b.transpose2();                   // 4×5
        let nt = matmul_nt(&a.transpose2(), &c);  // (3×5)·(5×4) via nt
        let explicit = matmul(&a.transpose2(), &c.transpose2());
        for (x, y) in nt.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Softmax rows are probability vectors; log-softmax is its log.
    #[test]
    fn softmax_rows_are_distributions(t in tensor(4, 6)) {
        let s = softmax_rows(&t);
        for i in 0..4 {
            let row = &s.data()[i * 6..(i + 1) * 6];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        let ls = log_softmax_rows(&t);
        for (a, b) in ls.data().iter().zip(s.data()) {
            prop_assert!((a - b.max(1e-30).ln()).abs() < 1e-3);
        }
    }

    /// L2 satisfies metric axioms (identity, symmetry, triangle inequality).
    #[test]
    fn l2_metric_axioms(
        a in proptest::collection::vec(-50.0f32..50.0, 6),
        b in proptest::collection::vec(-50.0f32..50.0, 6),
        c in proptest::collection::vec(-50.0f32..50.0, 6),
    ) {
        prop_assert!(l2(&a, &a) < 1e-6);
        prop_assert!((l2(&a, &b) - l2(&b, &a)).abs() < 1e-4);
        prop_assert!(l2(&a, &c) <= l2(&a, &b) + l2(&b, &c) + 1e-3);
    }

    /// Cosine distance stays in [0, 2] and is scale-invariant.
    #[test]
    fn cosine_bounds_and_scale_invariance(
        a in proptest::collection::vec(-10.0f32..10.0, 5),
        b in proptest::collection::vec(-10.0f32..10.0, 5),
        scale in 0.1f32..10.0,
    ) {
        let d = cosine(&a, &b);
        prop_assert!((-1e-5..=2.0 + 1e-5).contains(&d));
        let scaled: Vec<f32> = a.iter().map(|&x| x * scale).collect();
        prop_assert!((cosine(&scaled, &b) - d).abs() < 1e-3);
    }

    /// SVD reconstructs the input and yields sorted nonnegative σ.
    #[test]
    fn svd_reconstruction(a in tensor(6, 4)) {
        let s = svd(&a);
        prop_assert!(s.sigma.iter().all(|&x| x >= 0.0));
        for w in s.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-4);
        }
        // Reconstruct U Σ V^T.
        let (m, r) = (s.u.dims()[0], s.u.dims()[1]);
        let mut us = Tensor::zeros([m, r]);
        for i in 0..m {
            for j in 0..r {
                *us.at_mut(&[i, j]) = s.u.at(&[i, j]) * s.sigma[j];
            }
        }
        let rec = matmul(&us, &s.v.transpose2());
        for (x, y) in rec.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    /// Reshape round-trips preserve data.
    #[test]
    fn reshape_round_trip(v in proptest::collection::vec(-5.0f32..5.0, 24)) {
        let t = Tensor::from_vec([24], v.clone());
        let r = t.reshape([2, 3, 4]).reshape([4, 6]).reshape([24]);
        prop_assert_eq!(r.data(), &v[..]);
    }
}
