//! Numerically careful elementwise and reduction operations.

use crate::tensor::Tensor;

/// Row-wise numerically stable softmax of a `(batch, classes)` matrix.
///
/// # Panics
/// Panics if `logits` is not 2-dimensional.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(
        logits.shape().ndim(),
        2,
        "softmax_rows expects (batch, classes)"
    );
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    let mut out = vec![0.0f32; b * c];
    for i in 0..b {
        let row = &logits.data()[i * c..(i + 1) * c];
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let orow = &mut out[i * c..(i + 1) * c];
        let mut z = 0.0f32;
        for (o, &x) in orow.iter_mut().zip(row) {
            let e = (x - m).exp();
            *o = e;
            z += e;
        }
        let inv = 1.0 / z;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
    Tensor::from_vec([b, c], out)
}

/// Row-wise numerically stable log-softmax of a `(batch, classes)` matrix.
pub fn log_softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(
        logits.shape().ndim(),
        2,
        "log_softmax_rows expects (batch, classes)"
    );
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    let mut out = vec![0.0f32; b * c];
    for i in 0..b {
        let row = &logits.data()[i * c..(i + 1) * c];
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
        for (o, &x) in out[i * c..(i + 1) * c].iter_mut().zip(row) {
            *o = x - lse;
        }
    }
    Tensor::from_vec([b, c], out)
}

/// Index of the maximum element in each row of a `(batch, classes)` matrix.
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    assert_eq!(t.shape().ndim(), 2, "argmax_rows expects a matrix");
    let (b, c) = (t.dims()[0], t.dims()[1]);
    (0..b)
        .map(|i| {
            let row = &t.data()[i * c..(i + 1) * c];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&t);
        for i in 0..2 {
            let sum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: bigger logit, bigger probability.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec([1, 3], vec![1000.0, 1001.0, 1002.0]);
        let s = softmax_rows(&t);
        assert!(!s.has_non_finite());
        let sum: f32 = s.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec([2, 4], vec![0.5, -1.0, 2.0, 0.0, 3.0, 3.0, 3.0, 3.0]);
        let ls = log_softmax_rows(&t);
        let s = softmax_rows(&t);
        for (a, b) in ls.data().iter().zip(s.data()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_finds_peaks() {
        let t = Tensor::from_vec([3, 3], vec![1., 9., 2., 5., 1., 0., 0., 0., 7.]);
        assert_eq!(argmax_rows(&t), vec![1, 0, 2]);
    }
}
