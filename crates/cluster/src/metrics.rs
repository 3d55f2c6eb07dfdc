//! Cluster-quality metrics: ARI, NMI, purity (against ground truth) and
//! the silhouette coefficient (internal, no ground truth needed).

use crate::proximity::ProximityMatrix;

/// Mean silhouette coefficient of a labeling over a distance matrix, in
/// `[-1, 1]`. Singleton clusters contribute 0 (the standard convention).
/// Returns 0 for trivial partitions (a single cluster or an empty input).
pub fn mean_silhouette(matrix: &ProximityMatrix, labels: &[usize]) -> f64 {
    let n = matrix.len();
    assert_eq!(labels.len(), n, "labels must match matrix size");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    if k < 2 {
        return 0.0;
    }
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    let mut total = 0.0f64;
    let mut sums = vec![0.0f64; k];
    for i in 0..n {
        let li = labels[i];
        if sizes[li] == 1 {
            continue; // silhouette of a singleton is 0
        }
        sums.iter_mut().for_each(|s| *s = 0.0);
        for j in 0..n {
            if j != i {
                sums[labels[j]] += matrix.get(i, j) as f64;
            }
        }
        let a = sums[li] / (sizes[li] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != li && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
    }
    total / n as f64
}

/// Contingency table between two labelings.
fn contingency(a: &[usize], b: &[usize]) -> (Vec<Vec<u64>>, Vec<u64>, Vec<u64>) {
    assert_eq!(a.len(), b.len(), "labelings must have equal length");
    let ka = a.iter().copied().max().map_or(0, |m| m + 1);
    let kb = b.iter().copied().max().map_or(0, |m| m + 1);
    let mut table = vec![vec![0u64; kb]; ka];
    for (&x, &y) in a.iter().zip(b) {
        table[x][y] += 1;
    }
    let row: Vec<u64> = table.iter().map(|r| r.iter().sum()).collect();
    let col: Vec<u64> = (0..kb).map(|j| table.iter().map(|r| r[j]).sum()).collect();
    (table, row, col)
}

fn choose2(n: u64) -> f64 {
    (n as f64) * (n.saturating_sub(1) as f64) / 2.0
}

/// Adjusted Rand index in `[-1, 1]`; 1 = identical partitions, ~0 = random.
pub fn adjusted_rand_index(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let (table, row, col) = contingency(a, b);
    let sum_comb: f64 = table.iter().flatten().map(|&n| choose2(n)).sum();
    let sum_row: f64 = row.iter().map(|&n| choose2(n)).sum();
    let sum_col: f64 = col.iter().map(|&n| choose2(n)).sum();
    let total = choose2(a.len() as u64);
    // fedlint::allow(float-eq): exact-zero sentinel — choose2 of small integers is exact in f64; zero means n < 2, not a rounding artifact
    if total == 0.0 {
        return 1.0;
    }
    let expected = sum_row * sum_col / total;
    let max = 0.5 * (sum_row + sum_col);
    if (max - expected).abs() < 1e-12 {
        return 1.0; // both partitions trivial (all-singletons or all-one)
    }
    (sum_comb - expected) / (max - expected)
}

/// Normalised mutual information in `[0, 1]` (sqrt normalisation).
pub fn normalized_mutual_info(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let (table, row, col) = contingency(a, b);
    let n = a.len() as f64;
    let mut mi = 0.0f64;
    for (i, r) in table.iter().enumerate() {
        for (j, &nij) in r.iter().enumerate() {
            if nij == 0 {
                continue;
            }
            let pij = nij as f64 / n;
            let pi = row[i] as f64 / n;
            let pj = col[j] as f64 / n;
            mi += pij * (pij / (pi * pj)).ln();
        }
    }
    let h = |marginal: &[u64]| -> f64 {
        marginal
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (h(&row), h(&col));
    // fedlint::allow(float-eq): exact-zero sentinel — entropy is exactly 0.0 only for the single-cluster partition (the sum is empty or -1·ln(1))
    if ha == 0.0 && hb == 0.0 {
        return 1.0; // both trivial single-cluster partitions
    }
    let denom = (ha * hb).sqrt();
    // fedlint::allow(float-eq): exact-zero sentinel — denom is 0.0 only when one entropy above was exactly zero
    if denom == 0.0 {
        return 0.0;
    }
    (mi / denom).clamp(0.0, 1.0)
}

/// Purity in `(0, 1]`: fraction of items in the majority ground-truth class
/// of their predicted cluster.
pub fn purity(predicted: &[usize], truth: &[usize]) -> f64 {
    if predicted.is_empty() {
        return 1.0;
    }
    let (table, _, _) = contingency(predicted, truth);
    let correct: u64 = table
        .iter()
        .map(|r| r.iter().copied().max().unwrap_or(0))
        .sum();
    correct as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_info(&a, &a) - 1.0).abs() < 1e-9);
        assert!((purity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeled_partition_scores_one() {
        let a = vec![0, 0, 1, 1];
        let b = vec![1, 1, 0, 0];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_info(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_partition_scores_near_zero_ari() {
        // Crossing partition: every predicted cluster is half/half.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 1, 0, 1];
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.5, "ari {}", ari);
    }

    #[test]
    fn all_in_one_vs_split() {
        let one = vec![0, 0, 0, 0];
        let split = vec![0, 0, 1, 1];
        let nmi = normalized_mutual_info(&one, &split);
        assert!(nmi < 1e-9, "nmi {}", nmi);
        // Purity of a single predicted cluster = max class fraction.
        assert!((purity(&one, &split) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn purity_of_all_singletons_is_one() {
        let singles = vec![0, 1, 2, 3];
        let truth = vec![0, 0, 1, 1];
        assert!((purity(&singles, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_between_zero_and_one() {
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 1, 1];
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari > 0.0 && ari < 1.0, "ari {}", ari);
        let nmi = normalized_mutual_info(&a, &b);
        assert!(nmi > 0.0 && nmi < 1.0, "nmi {}", nmi);
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<usize> = vec![];
        assert_eq!(adjusted_rand_index(&e, &e), 1.0);
        assert_eq!(normalized_mutual_info(&e, &e), 1.0);
        assert_eq!(purity(&e, &e), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = adjusted_rand_index(&[0, 1], &[0]);
    }

    #[test]
    fn silhouette_high_for_tight_groups() {
        let pos = [0.0f32, 0.1, 0.2, 10.0, 10.1, 10.2];
        let m = ProximityMatrix::from_fn(6, |i, j| (pos[i] - pos[j]).abs());
        let good = mean_silhouette(&m, &[0, 0, 0, 1, 1, 1]);
        assert!(good > 0.9, "good {}", good);
        let bad = mean_silhouette(&m, &[0, 1, 0, 1, 0, 1]);
        assert!(bad < 0.0, "bad {}", bad);
        assert!(good > bad);
    }

    #[test]
    fn silhouette_trivial_partitions_are_zero() {
        let m = ProximityMatrix::from_fn(3, |_, _| 1.0);
        assert_eq!(mean_silhouette(&m, &[0, 0, 0]), 0.0);
        // All singletons: every point contributes 0.
        assert_eq!(mean_silhouette(&m, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn silhouette_mixed_singletons_counted_as_zero() {
        let pos = [0.0f32, 0.1, 5.0];
        let m = ProximityMatrix::from_fn(3, |i, j| (pos[i] - pos[j]).abs());
        // {0,1} tight pair + singleton {2}: pair scores ≈1, singleton 0.
        let s = mean_silhouette(&m, &[0, 0, 1]);
        assert!(s > 0.6 && s < 0.67, "s {}", s);
    }
}
