//! Agglomerative hierarchical clustering (bottom-up), with the classic
//! linkage criteria implemented via Lance–Williams distance updates.
//!
//! This is the "HC(M, λ)" step of FedClust's Algorithm 1: start from
//! singleton clusters, repeatedly merge the closest pair, and stop when the
//! closest pair is farther apart than the threshold λ. The full merge
//! history (dendrogram) is recorded so a single clustering run supports
//! both threshold cuts (λ sweeps, Fig. 4) and k-cuts (fixed cluster counts
//! for baselines like IFCA comparisons).

use crate::proximity::ProximityMatrix;

/// Linkage criterion: how the distance between merged clusters is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Minimum pairwise distance (chains easily).
    Single,
    /// Maximum pairwise distance (compact clusters).
    Complete,
    /// Size-weighted average pairwise distance (UPGMA) — FedClust's default.
    Average,
    /// Ward's minimum-variance criterion.
    Ward,
}

impl Linkage {
    /// All linkages, for ablation sweeps.
    pub const ALL: [Linkage; 4] = [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
    ];

    /// Short tag used in experiment output.
    pub fn tag(&self) -> &'static str {
        match self {
            Linkage::Single => "single",
            Linkage::Complete => "complete",
            Linkage::Average => "average",
            Linkage::Ward => "ward",
        }
    }

    /// Lance–Williams update: distance from cluster `k` to the merge of
    /// `i` and `j`, given current distances and cluster sizes.
    fn update(&self, d_ki: f32, d_kj: f32, d_ij: f32, n_i: f32, n_j: f32, n_k: f32) -> f32 {
        match self {
            Linkage::Single => d_ki.min(d_kj),
            Linkage::Complete => d_ki.max(d_kj),
            Linkage::Average => (n_i * d_ki + n_j * d_kj) / (n_i + n_j),
            Linkage::Ward => {
                let n = n_i + n_j + n_k;
                (((n_i + n_k) * d_ki * d_ki + (n_j + n_k) * d_kj * d_kj - n_k * d_ij * d_ij) / n)
                    .max(0.0)
                    .sqrt()
            }
        }
    }
}

/// One merge step: clusters `a` and `b` (scipy-style ids: leaves are
/// `0..n`, the i-th merge creates id `n+i`) joined at `distance`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f32,
    /// Size of the resulting cluster.
    pub size: usize,
}

/// The full merge history of a hierarchical clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of leaves (items clustered).
    pub fn num_items(&self) -> usize {
        self.n
    }

    /// The merges, in non-decreasing distance order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cut the dendrogram at threshold `lambda`: apply every merge with
    /// `distance <= lambda`. Returns a cluster id (0-based, compacted) per
    /// item. Larger λ ⇒ fewer clusters.
    pub fn cut_at(&self, lambda: f32) -> Vec<usize> {
        let applied = self
            .merges
            .iter()
            .take_while(|m| m.distance <= lambda)
            .count();
        self.assign_after(applied)
    }

    /// Cut to exactly `k` clusters (clamped to `[1, n]`).
    pub fn cut_k(&self, k: usize) -> Vec<usize> {
        let k = k.clamp(1, self.n.max(1));
        let applied = self.n.saturating_sub(k).min(self.merges.len());
        self.assign_after(applied)
    }

    /// Number of clusters a λ-cut would produce.
    pub fn num_clusters_at(&self, lambda: f32) -> usize {
        let applied = self
            .merges
            .iter()
            .take_while(|m| m.distance <= lambda)
            .count();
        self.n - applied
    }

    /// Data-driven threshold choice: cut at the largest gap between
    /// consecutive merge distances. Returns `(labels, lambda)` where
    /// `lambda` is the midpoint of the widest gap. With no clear gap
    /// (all merge distances within 1e-6 of each other) everything is
    /// merged into a single cluster.
    pub fn largest_gap_cut(&self) -> (Vec<usize>, f32) {
        if self.merges.len() < 2 {
            let lambda = self
                .merges
                .last()
                .map(|m| m.distance + 1.0)
                .unwrap_or(f32::INFINITY);
            return (self.cut_at(lambda), lambda);
        }
        let mut best_gap = 0.0f32;
        let mut best_i = self.merges.len() - 1;
        for i in 0..self.merges.len() - 1 {
            let gap = self.merges[i + 1].distance - self.merges[i].distance;
            if gap > best_gap {
                best_gap = gap;
                best_i = i;
            }
        }
        if best_gap < 1e-6 {
            let lambda = self
                .merges
                .last()
                .map_or(f32::INFINITY, |m| m.distance + 1.0);
            return (self.cut_at(lambda), lambda);
        }
        let lambda = 0.5 * (self.merges[best_i].distance + self.merges[best_i + 1].distance);
        (self.cut_at(lambda), lambda)
    }

    /// Assignment after applying the first `applied` merges (union-find).
    fn assign_after(&self, applied: usize) -> Vec<usize> {
        let total = self.n + applied;
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, m) in self.merges.iter().take(applied).enumerate() {
            let new_id = self.n + i;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = new_id;
            parent[rb] = new_id;
        }
        // Compact root ids to 0-based cluster labels in first-seen order.
        // A BTreeMap (not HashMap) so the mapping — and with it every cluster
        // label that reaches aggregation and telemetry — is a pure function
        // of the merge structure, never of hasher state.
        let mut label_of_root: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        let mut out = Vec::with_capacity(self.n);
        for item in 0..self.n {
            let root = find(&mut parent, item);
            let next = label_of_root.len();
            let label = *label_of_root.entry(root).or_insert(next);
            out.push(label);
        }
        out
    }
}

/// The first minimum of row `i` of the working matrix over active columns
/// `j > i`, as `(distance, j)` — what a left-to-right scan with a strict `<`
/// from `+∞` finds. `(+∞, i)` when nothing compares below `+∞` (no active
/// column, or only `+∞`/NaN entries): a row can never be its own neighbour.
fn first_min_of_row(dist: &[f32], active: &[bool], n: usize, i: usize) -> (f32, usize) {
    let mut best = (f32::INFINITY, i);
    for j in (i + 1)..n {
        let d = dist[i * n + j];
        if active[j] && d < best.0 {
            best = (d, j);
        }
    }
    best
}

/// Run agglomerative clustering over a proximity matrix and return the full
/// dendrogram (n is the client count).
///
/// Every step merges the globally closest active pair — of equally close
/// pairs the first in row-major order — and rewrites the merged slot's
/// distances with the linkage's Lance–Williams update. The pair is found
/// through a per-row cache, `nn[i]` = the first minimum of row `i` over
/// active columns `j > i`, so a step costs one pass over the `n` cached
/// minima plus the repair of the rows the merge touched, not a rescan of the
/// matrix: expected `O(n²)` for the whole run (~10 ms for the 999 merges of
/// the benchmark's `cluster_round0`, m = 1000). The worst case is still
/// `O(n³)` — every row's cached neighbour can be one of the two merged slots
/// at every step — but it is the same pair, the same updates and the same
/// `f32` operations in the same order as the full rescan (kept as the test
/// oracle below), so the dendrogram is identical to the bit, ties included.
/// That is why this is not the nearest-neighbour chain: the chain merges
/// reciprocal neighbours in another order, which reorders the average/Ward
/// updates and moves merge distances in the last ulp.
///
/// When no pair compares below `+∞` (all remaining distances `+∞` or NaN)
/// the first two active slots merge at their stored distance.
pub fn agglomerative(matrix: &ProximityMatrix, linkage: Linkage) -> Dendrogram {
    let n = matrix.len();
    // Working distance matrix indexed by *slot*; each slot holds an active
    // cluster (or is dead after being merged away).
    let mut dist: Vec<f32> = matrix.as_slice().to_vec();
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<f32> = vec![1.0; n];
    // scipy-style id currently living in each slot.
    let mut id: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut nn: Vec<(f32, usize)> = (0..n)
        .map(|i| first_min_of_row(&dist, &active, n, i))
        .collect();

    for step in 0..n.saturating_sub(1) {
        // The closest active pair: the first row holding the smallest
        // cached minimum, and that row's first minimum.
        let mut closest = None;
        let mut best = f32::INFINITY;
        for (i, &(d, j)) in nn.iter().enumerate() {
            if d < best {
                best = d;
                closest = Some((i, j));
            }
        }
        let (i, j) = if let Some(pair) = closest {
            pair
        } else {
            // Nothing below +∞: the first two active slots (n - step >= 2
            // are active at every step, so the `else` is never taken).
            let mut slots = (0..n).filter(|&s| active[s]);
            let (Some(a), Some(b)) = (slots.next(), slots.next()) else {
                break;
            };
            (a, b)
        };
        let d_ij = dist[i * n + j];
        merges.push(Merge {
            a: id[i].min(id[j]),
            b: id[i].max(id[j]),
            distance: d_ij,
            size: (size[i] + size[j]) as usize,
        });
        // Merge j into i's slot; update distances via Lance–Williams.
        for k in 0..n {
            if !active[k] || k == i || k == j {
                continue;
            }
            let d_ki = dist[k * n + i];
            let d_kj = dist[k * n + j];
            let nd = linkage.update(d_ki, d_kj, d_ij, size[i], size[j], size[k]);
            dist[k * n + i] = nd;
            dist[i * n + k] = nd;
        }
        size[i] += size[j];
        active[j] = false;
        id[i] = n + step;
        // Repair the cache. Column j left every row and column i changed;
        // rows past j hold neither.
        nn[j] = (f32::INFINITY, j);
        nn[i] = first_min_of_row(&dist, &active, n, i);
        for k in 0..j {
            if !active[k] || k == i {
                continue;
            }
            let (d, c) = nn[k];
            if c == i || c == j {
                nn[k] = first_min_of_row(&dist, &active, n, k);
            } else if k < i {
                // Only entry (k, i) changed and it was not the minimum: it
                // takes over if smaller, or equal and left of the cached one.
                let nd = dist[k * n + i];
                #[expect(
                    clippy::float_cmp,
                    reason = "an exact tie goes to the left column, as the full rescan's first minimum does"
                )]
                if nd < d || (nd == d && i < c) {
                    nn[k] = (nd, i);
                }
            }
        }
    }
    Dendrogram { n, merges }
}

/// Convenience: cluster and cut at λ in one call (the paper's `HC(M, λ)`).
pub fn cluster_threshold(matrix: &ProximityMatrix, linkage: Linkage, lambda: f32) -> Vec<usize> {
    agglomerative(matrix, linkage).cut_at(lambda)
}

/// Convenience: cluster and cut to `k` clusters.
pub fn cluster_k(matrix: &ProximityMatrix, linkage: Linkage, k: usize) -> Vec<usize> {
    agglomerative(matrix, linkage).cut_k(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight groups far apart on a line: {0,1,2} near 0, {3,4,5} near 100.
    fn two_groups() -> ProximityMatrix {
        let pos = [0.0f32, 1.0, 2.0, 100.0, 101.0, 102.0];
        ProximityMatrix::from_fn(6, |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn recovers_two_groups_for_all_linkages() {
        let m = two_groups();
        for linkage in Linkage::ALL {
            let labels = cluster_k(&m, linkage, 2);
            assert_eq!(labels[0], labels[1], "{:?}", linkage);
            assert_eq!(labels[1], labels[2], "{:?}", linkage);
            assert_eq!(labels[3], labels[4], "{:?}", linkage);
            assert_eq!(labels[4], labels[5], "{:?}", linkage);
            assert_ne!(labels[0], labels[3], "{:?}", linkage);
        }
    }

    #[test]
    fn threshold_cut_matches_structure() {
        let m = two_groups();
        let dendro = agglomerative(&m, Linkage::Average);
        // λ below inter-group gap, above intra spacing.
        let labels = dendro.cut_at(10.0);
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(dendro.num_clusters_at(10.0), 2);
        // λ below everything: all singletons.
        let labels = dendro.cut_at(0.5);
        assert_eq!(labels, vec![0, 1, 2, 3, 4, 5]);
        // λ above everything: one cluster.
        let labels = dendro.cut_at(1e6);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn merge_distances_are_monotone_for_average_and_complete() {
        // (Single linkage is also monotone; Ward via L-W too. Check all.)
        let m = two_groups();
        for linkage in Linkage::ALL {
            let d = agglomerative(&m, linkage);
            for w in d.merges().windows(2) {
                assert!(
                    w[0].distance <= w[1].distance + 1e-5,
                    "{:?}: {} then {}",
                    linkage,
                    w[0].distance,
                    w[1].distance
                );
            }
        }
    }

    #[test]
    fn cut_k_extremes() {
        let m = two_groups();
        let d = agglomerative(&m, Linkage::Complete);
        assert!(d.cut_k(1).iter().all(|&l| l == 0));
        assert_eq!(d.cut_k(6), vec![0, 1, 2, 3, 4, 5]);
        // Out-of-range k clamps.
        assert_eq!(d.cut_k(100), vec![0, 1, 2, 3, 4, 5]);
        assert!(d.cut_k(0).iter().all(|&l| l == 0));
    }

    #[test]
    fn single_linkage_chains_complete_does_not() {
        // A chain of equidistant points: 0-1-2-3 spaced 1 apart.
        let pos = [0.0f32, 1.0, 2.0, 3.0];
        let m = ProximityMatrix::from_fn(4, |i, j| (pos[i] - pos[j]).abs());
        // With λ=1, single linkage chains everything into one cluster.
        let single = cluster_threshold(&m, Linkage::Single, 1.0);
        assert!(single.iter().all(|&l| l == single[0]));
        // Complete linkage keeps at least two clusters at the same λ.
        let complete = cluster_threshold(&m, Linkage::Complete, 1.0);
        let k = complete.iter().copied().max().unwrap() + 1;
        assert!(k >= 2, "complete produced {} clusters", k);
    }

    #[test]
    fn singleton_and_empty_inputs() {
        let m1 = ProximityMatrix::from_fn(1, |_, _| 0.0);
        let d = agglomerative(&m1, Linkage::Average);
        assert_eq!(d.cut_at(1.0), vec![0]);
        let m0 = ProximityMatrix::from_fn(0, |_, _| 0.0);
        let d = agglomerative(&m0, Linkage::Average);
        assert!(d.cut_at(1.0).is_empty());
    }

    #[test]
    fn ward_prefers_balanced_merges() {
        // Three points: two close, one mid-distance; Ward should still
        // merge the closest pair first.
        let pos = [0.0f32, 1.0, 5.0];
        let m = ProximityMatrix::from_fn(3, |i, j| (pos[i] - pos[j]).abs());
        let d = agglomerative(&m, Linkage::Ward);
        assert_eq!((d.merges()[0].a, d.merges()[0].b), (0, 1));
    }

    #[test]
    fn largest_gap_cut_finds_two_groups() {
        let m = two_groups();
        let d = agglomerative(&m, Linkage::Average);
        let (labels, lambda) = d.largest_gap_cut();
        let k = labels.iter().copied().max().unwrap() + 1;
        assert_eq!(k, 2, "labels {:?} lambda {}", labels, lambda);
        assert!(lambda > 2.0 && lambda < 100.0);
    }

    #[test]
    fn largest_gap_cut_degenerate_inputs() {
        // Single item: one cluster.
        let m1 = ProximityMatrix::from_fn(1, |_, _| 0.0);
        let (labels, _) = agglomerative(&m1, Linkage::Average).largest_gap_cut();
        assert_eq!(labels, vec![0]);
        // Equidistant points: no gap, merge everything.
        let m = ProximityMatrix::from_fn(3, |_, _| 1.0);
        let (labels, _) = agglomerative(&m, Linkage::Single).largest_gap_cut();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn labels_are_canonical_and_permutation_consistent() {
        // Regression: cluster labeling must be a pure function of the merge
        // structure — first-seen compaction over a BTreeMap, never hasher
        // order. Two runs over a shuffled proximity matrix must agree.
        let pos = [0.0f32, 1.0, 2.0, 100.0, 101.0, 102.0, 50.0, 51.0];
        let perm = [6usize, 3, 0, 7, 1, 4, 2, 5]; // shuffled client order
        let shuffled = ProximityMatrix::from_fn(8, |i, j| (pos[perm[i]] - pos[perm[j]]).abs());
        let a = cluster_k(&shuffled, Linkage::Average, 3);
        let b = cluster_k(&shuffled, Linkage::Average, 3);
        assert_eq!(a, b, "two runs over the same shuffled matrix must agree");
        // Labels are canonical: first-seen order, so label 0 appears first
        // and each new label is exactly one more than the current max.
        let mut next = 0usize;
        for &l in &a {
            assert!(l <= next, "labels {:?} not first-seen compacted", a);
            next = next.max(l + 1);
        }
        // Partition equivalence with the unshuffled run: co-membership of
        // any client pair is invariant under the input permutation.
        let base = cluster_k(
            &ProximityMatrix::from_fn(8, |i, j| (pos[i] - pos[j]).abs()),
            Linkage::Average,
            3,
        );
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    base[perm[i]] == base[perm[j]],
                    a[i] == a[j],
                    "pair ({i},{j}) co-membership changed under permutation"
                );
            }
        }
    }

    /// The oracle: `agglomerative` with a full rescan of the working matrix
    /// for every merge, `O(n³)`. Same pair rule, same updates, same order.
    fn naive(matrix: &ProximityMatrix, linkage: Linkage) -> Dendrogram {
        let n = matrix.len();
        let mut dist: Vec<f32> = matrix.as_slice().to_vec();
        let mut active: Vec<bool> = vec![true; n];
        let mut size: Vec<f32> = vec![1.0; n];
        let mut id: Vec<usize> = (0..n).collect();
        let mut merges = Vec::with_capacity(n.saturating_sub(1));
        for step in 0..n.saturating_sub(1) {
            let mut best = f32::INFINITY;
            let mut closest = None;
            for i in (0..n).filter(|&i| active[i]) {
                for j in (i + 1..n).filter(|&j| active[j]) {
                    let d = dist[i * n + j];
                    if d < best {
                        best = d;
                        closest = Some((i, j));
                    }
                }
            }
            let (i, j) = closest.unwrap_or_else(|| {
                let mut slots = (0..n).filter(|&s| active[s]);
                (slots.next().unwrap(), slots.next().unwrap())
            });
            let d_ij = dist[i * n + j];
            merges.push(Merge {
                a: id[i].min(id[j]),
                b: id[i].max(id[j]),
                distance: d_ij,
                size: (size[i] + size[j]) as usize,
            });
            for k in 0..n {
                if !active[k] || k == i || k == j {
                    continue;
                }
                let d_ki = dist[k * n + i];
                let d_kj = dist[k * n + j];
                let nd = linkage.update(d_ki, d_kj, d_ij, size[i], size[j], size[k]);
                dist[k * n + i] = nd;
                dist[i * n + k] = nd;
            }
            size[i] += size[j];
            active[j] = false;
            id[i] = n + step;
        }
        Dendrogram { n, merges }
    }

    /// Whole dendrogram, exact `f32`, for every linkage — and, on top, the
    /// labels of the cuts callers take from it.
    fn assert_matches_naive(m: &ProximityMatrix, what: &str) {
        for linkage in Linkage::ALL {
            let fast = agglomerative(m, linkage);
            let slow = naive(m, linkage);
            assert_eq!(fast, slow, "{what}, {linkage:?}");
            assert_eq!(fast.largest_gap_cut(), slow.largest_gap_cut());
            for k in [1, 2, m.len() / 2, m.len()] {
                assert_eq!(fast.cut_k(k), slow.cut_k(k));
            }
            for merge in slow.merges().iter().step_by(7) {
                assert_eq!(fast.cut_at(merge.distance), slow.cut_at(merge.distance));
            }
        }
    }

    #[test]
    fn cached_minima_give_the_naive_dendrogram_ties_included() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Few distinct distance levels make most comparisons ties; one level
        // is the all-equal matrix, 2²⁰ levels is nearly tie-free.
        for levels in [1u32, 2, 3, 5, 1000, 1 << 20] {
            for m in (0..40).chain([97, 200, 300]) {
                let mut rng = SmallRng::seed_from_u64(u64::from(levels) << 32 | m as u64);
                let matrix =
                    ProximityMatrix::from_fn(m, |_, _| rng.gen_range(1..=levels) as f32 * 0.37);
                assert_matches_naive(&matrix, &format!("{levels} levels, m = {m}"));
            }
        }
    }

    #[test]
    fn duplicated_points_give_the_naive_dendrogram() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // A metric input whose ties are zeros: every point appears 1-4 times.
        for m in [2usize, 9, 30, 120] {
            let mut rng = SmallRng::seed_from_u64(m as u64);
            let distinct: Vec<f32> = (0..m.div_ceil(3))
                .map(|_| rng.gen_range(-50.0f32..50.0))
                .collect();
            let pos: Vec<f32> = (0..m)
                .map(|_| distinct[rng.gen_range(0..distinct.len())])
                .collect();
            let matrix = ProximityMatrix::from_fn(m, |i, j| (pos[i] - pos[j]).abs());
            assert_matches_naive(&matrix, &format!("duplicated points, m = {m}"));
        }
    }

    /// Every id in `0..2n-2` is a merge operand exactly once, the last merge
    /// holds everything, and `cut_k(k)` has exactly k labels.
    fn assert_is_a_full_binary_tree(d: &Dendrogram) {
        let n = d.num_items();
        let mut operands: Vec<usize> = d.merges().iter().flat_map(|m| [m.a, m.b]).collect();
        operands.sort_unstable();
        assert_eq!(operands, (0..2 * n - 2).collect::<Vec<_>>(), "{d:?}");
        assert_eq!(d.merges().last().map(|m| m.size), Some(n), "{d:?}");
        for k in 1..=n {
            let mut labels = d.cut_k(k);
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels, (0..k).collect::<Vec<_>>(), "cut_k({k}) of {d:?}");
        }
    }

    #[test]
    fn no_finite_minimum_never_merges_a_slot_with_itself() {
        // Regression: with nothing below +∞ the scan's `(0, 0)` default
        // merged slot 0 with itself — ids 0, 4, 5 used twice, sizes 2, 4, 8.
        let all_inf = ProximityMatrix::from_fn(4, |_, _| f32::INFINITY);
        // One finite pair, NaN elsewhere: `cut_k(2)` used to have 3 labels.
        let one_pair = ProximityMatrix::from_fn(4, |i, j| match (i, j) {
            (1, 3) => 2.0,
            _ => f32::NAN,
        });
        for linkage in Linkage::ALL {
            let d = agglomerative(&all_inf, linkage);
            assert_is_a_full_binary_tree(&d);
            assert_eq!((d.merges()[0].a, d.merges()[0].b), (0, 1));
            assert_eq!(d.merges()[0].distance, f32::INFINITY);

            let d = agglomerative(&one_pair, linkage);
            assert_is_a_full_binary_tree(&d);
            let first = d.merges()[0];
            assert_eq!((first.a, first.b, first.distance), (1, 3, 2.0));
        }
    }

    #[test]
    fn average_linkage_exact_distance() {
        // Groups {0,1} and {2}: average distance = mean(d02, d12).
        let pos = [0.0f32, 2.0, 10.0];
        let m = ProximityMatrix::from_fn(3, |i, j| (pos[i] - pos[j]).abs());
        let d = agglomerative(&m, Linkage::Average);
        assert_eq!(d.merges()[0].distance, 2.0);
        assert!((d.merges()[1].distance - 9.0).abs() < 1e-5); // (10 + 8)/2
    }
}
