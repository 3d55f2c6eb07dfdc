//! Pairwise distances between flat weight vectors.
//!
//! These are the primitives Eq. 3 of the paper is built on: the server
//! receives one flat vector of (partial) model weights per client and
//! computes an `m×m` proximity matrix (`fedclust::proximity`).

/// Euclidean (L2) distance between two equal-length vectors.
///
/// # Panics
/// Panics if lengths differ.
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2 distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt() as f32
}

/// Cosine *distance* `1 - cos(a, b)` between two equal-length vectors.
/// Returns 1.0 when either vector is (numerically) zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine distance length mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    let denom = (na.sqrt() * nb.sqrt()).max(1e-30);
    (1.0 - dot / denom) as f32
}

/// Which metric a proximity matrix uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Euclidean distance — the paper's Eq. 3.
    L2,
    /// Cosine distance — used by the CFL (Sattler et al.) baseline.
    Cosine,
}

impl Metric {
    /// Evaluate the metric on a pair of vectors.
    pub fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2(a, b),
            Metric::Cosine => cosine(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_known_values() {
        assert_eq!(l2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_known_values() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 2.0], &[2.0, 4.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_max_distance() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn metric_dispatch() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((Metric::L2.eval(&a, &b) - std::f32::consts::SQRT_2).abs() < 1e-6);
        assert!((Metric::Cosine.eval(&a, &b) - 1.0).abs() < 1e-6);
    }
}
