//! Symmetric pairwise-distance (proximity) matrices.

/// A symmetric `n×n` distance matrix with zero diagonal — the matrix `M`
/// the FedClust server builds from clients' partial weights (Eq. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityMatrix {
    n: usize,
    /// Row-major full storage, both triangles: `hac::agglomerative` works
    /// on a copy of it. n is the client count — 50 in the paper's grid,
    /// 1000 in the benchmark's `cluster_round0` (4 MB).
    data: Vec<f32>,
}

impl ProximityMatrix {
    /// Build from a row-major full matrix.
    ///
    /// # Panics
    /// Panics if the data is not `n²` long, not symmetric (tolerance 1e-4),
    /// or has a nonzero diagonal.
    pub fn from_full(n: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * n, "expected n² entries");
        for i in 0..n {
            assert!(
                data[i * n + i].abs() < 1e-6,
                "diagonal must be zero at {}",
                i
            );
            for j in 0..i {
                assert!(
                    (data[i * n + j] - data[j * n + i]).abs() < 1e-4,
                    "matrix not symmetric at ({}, {})",
                    i,
                    j
                );
            }
        }
        ProximityMatrix { n, data }
    }

    /// Build by evaluating a distance function on all pairs.
    pub fn from_fn(n: usize, mut dist: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = dist(i, j);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        ProximityMatrix { n, data }
    }

    /// Matrix side length (number of items).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty (0×0) matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between items `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.n + j]
    }

    /// The raw row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mean off-diagonal distance (a useful λ calibration reference).
    pub fn mean_distance(&self) -> f32 {
        if self.n < 2 {
            return 0.0;
        }
        let mut sum = 0.0f64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                sum += self.get(i, j) as f64;
            }
        }
        (sum / ((self.n * (self.n - 1) / 2) as f64)) as f32
    }

    /// Smallest off-diagonal distance.
    pub fn min_distance(&self) -> f32 {
        let mut min = f32::INFINITY;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                min = min.min(self.get(i, j));
            }
        }
        min
    }

    /// Largest off-diagonal distance.
    pub fn max_distance(&self) -> f32 {
        let mut max = 0.0f32;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                max = max.max(self.get(i, j));
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> ProximityMatrix {
        // Items at 0, 3, 4 on a line.
        ProximityMatrix::from_fn(3, |i, j| {
            let pos = [0.0f32, 3.0, 4.0];
            (pos[i] - pos[j]).abs()
        })
    }

    #[test]
    fn from_fn_is_symmetric() {
        let m = triangle();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn stats() {
        let m = triangle();
        assert_eq!(m.min_distance(), 1.0);
        assert_eq!(m.max_distance(), 4.0);
        assert!((m.mean_distance() - (3.0 + 4.0 + 1.0) / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_rejected() {
        let _ = ProximityMatrix::from_full(2, vec![0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "diagonal must be zero")]
    fn nonzero_diagonal_rejected() {
        let _ = ProximityMatrix::from_full(2, vec![1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = ProximityMatrix::from_fn(0, |_, _| 0.0);
        assert!(m.is_empty());
        assert_eq!(m.mean_distance(), 0.0);
    }
}
