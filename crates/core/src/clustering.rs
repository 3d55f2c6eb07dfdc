//! The one-shot clustering step: `HC(M, λ)` from Algorithm 1.

use fedclust_cluster::hac::{agglomerative, Dendrogram, Linkage};

use fedclust_cluster::ProximityMatrix;

/// How the clustering threshold λ is chosen.
///
/// The paper treats λ as a user-defined hyper-parameter chosen per dataset
/// (its Fig. 4 sweeps it); its conclusion lists data-driven λ selection as
/// future work. This reproduction ships two data-driven selectors —
/// [`LambdaSelect::AutoGap`] and [`LambdaSelect::AutoSilhouette`] (the
/// default) — standing in for the paper's hand tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LambdaSelect {
    /// Use a fixed threshold λ.
    Fixed(f32),
    /// Choose λ at the largest merge-distance gap. Simple, but biased
    /// toward very coarse cuts (the top merges have the biggest absolute
    /// gaps); kept for comparison and for clean two-group data.
    AutoGap,
    /// Choose λ at the largest *relative* jump between consecutive merge
    /// distances, falling back on a dispersion rule when no jump stands
    /// out (see [`cluster_clients`]). Same-distribution clients merge at a
    /// low plateau of distances and cross-distribution merges jump several
    /// fold, so the ratio — unlike [`LambdaSelect::AutoGap`]'s absolute
    /// difference — finds the boundary regardless of how many groups there
    /// are. This emulates the per-dataset λ tuning the paper performs by
    /// hand, and is the reproduction's default.
    Auto,
}

/// Outcome of the one-shot clustering step.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringOutcome {
    /// Cluster id per client (0-based, compact).
    pub labels: Vec<usize>,
    /// Number of clusters formed.
    pub num_clusters: usize,
    /// The λ actually used (the fixed value, or the auto-selected one).
    pub lambda: f32,
}

/// Run `HC(M, λ)`: agglomerative clustering of the proximity matrix and a
/// threshold cut.
pub fn cluster_clients(
    matrix: &ProximityMatrix,
    linkage: Linkage,
    lambda: LambdaSelect,
) -> ClusteringOutcome {
    let dendro = agglomerative(matrix, linkage);
    match lambda {
        LambdaSelect::Auto => plateau_cut(&dendro),
        other => outcome_from_dendrogram(&dendro, other),
    }
}

/// Fallback trigger: if even the *first* merge distance is a sizeable
/// fraction of the largest, there is no "near-duplicate group" plateau.
const NO_PLATEAU_FRACTION: f32 = 0.25;
/// A merge ends the plateau when it exceeds this multiple of the running
/// median of the merges before it.
const PLATEAU_BREAK_FACTOR: f32 = 1.9;
/// Fallback dispersion threshold: merge-distance coefficient of variation
/// above this means heterogeneous clients (personalization regime), below
/// means homogeneous (one cluster).
const FALLBACK_CV: f32 = 0.18;

/// Data-driven λ selection by *plateau detection* on the merge profile.
///
/// Clients with the same underlying distribution produce near-duplicate
/// partial weights, so the dendrogram starts with a plateau of small
/// intra-group merge distances that drifts up slowly (multi-member merges
/// average in more spread) and then jumps when the first cross-group merge
/// happens. Single-gap detectors are fooled by the drift; instead we walk
/// the profile and stop at the first merge that exceeds
/// [`PLATEAU_BREAK_FACTOR`] × the running median:
///
/// 1. if the first merge is already ≥ [`NO_PLATEAU_FRACTION`] of the last,
///    there is no plateau (no duplicate groups) — fall back to the
///    dispersion rule below;
/// 2. otherwise cut at the plateau break (λ = midpoint of the last plateau
///    merge and the breaking merge);
/// 3. fallback: if the merge distances are dispersed (coefficient of
///    variation above [`FALLBACK_CV`] — clients differ a lot but without
///    block structure, e.g. unique label sets or Dirichlet mixtures) cut
///    at the 25th percentile so only near-duplicates share a model
///    (personalization regime); tightly concentrated distances mean
///    homogeneous clients — one cluster (globalization regime,
///    FedAvg-like).
fn plateau_cut(dendro: &Dendrogram) -> ClusteringOutcome {
    let n = dendro.num_items();
    let merges = dendro.merges();
    if n < 3 || merges.len() < 2 {
        return outcome_from_dendrogram(dendro, LambdaSelect::AutoGap);
    }
    let d_max = merges.last().map_or(0.0, |m| m.distance).max(1e-12);
    if merges[0].distance < NO_PLATEAU_FRACTION * d_max {
        // There is a plateau; walk until it breaks.
        let mut plateau: Vec<f32> = vec![merges[0].distance];
        let mut found: Option<(usize, f32)> = None; // (break index, ratio)
        for (i, merge) in merges.iter().enumerate().skip(1) {
            let mut sorted = plateau.clone();
            sorted.sort_by(f32::total_cmp);
            let median = sorted[sorted.len() / 2].max(0.02 * d_max);
            if merge.distance > PLATEAU_BREAK_FACTOR * median {
                found = Some((i, merge.distance / median));
                break;
            }
            plateau.push(merge.distance);
        }
        match found {
            Some((i, ratio)) => {
                // Accept only a *convincing* break: either a strong jump,
                // or an early one. A weak break after most merges means
                // the distances form a drifting continuum (no duplicate
                // groups) — fall through to the dispersion fallback.
                let frac = i as f32 / merges.len() as f32;
                if ratio >= 3.0 || frac < 0.6 {
                    let lambda = 0.5 * (merges[i - 1].distance + merges[i].distance);
                    let labels = dendro.cut_at(lambda);
                    let num_clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
                    return ClusteringOutcome {
                        labels,
                        num_clusters,
                        lambda,
                    };
                }
            }
            None => {
                // The plateau never breaks: one smoothly connected group.
                return ClusteringOutcome {
                    labels: vec![0; n],
                    num_clusters: 1,
                    lambda: d_max + 1.0,
                };
            }
        }
    }
    // Fallback: no block structure. Decide the regime by dispersion.
    let n_m = merges.len() as f32;
    let mean = merges.iter().map(|m| m.distance).sum::<f32>() / n_m;
    let var = merges
        .iter()
        .map(|m| (m.distance - mean) * (m.distance - mean))
        .sum::<f32>()
        / n_m;
    let cv = var.sqrt() / mean.max(1e-12);
    if cv > FALLBACK_CV {
        let lambda = merges[merges.len() / 4].distance;
        let labels = dendro.cut_at(lambda);
        let num_clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
        ClusteringOutcome {
            labels,
            num_clusters,
            lambda,
        }
    } else {
        let lambda = merges.last().map_or(f32::INFINITY, |m| m.distance + 1.0);
        ClusteringOutcome {
            labels: vec![0; n],
            num_clusters: 1,
            lambda,
        }
    }
}
/// Cut an existing dendrogram (lets λ sweeps reuse one clustering run).
///
/// # Panics
/// Panics for [`LambdaSelect::Auto`] — use [`cluster_clients`] for that.
pub fn outcome_from_dendrogram(dendro: &Dendrogram, lambda: LambdaSelect) -> ClusteringOutcome {
    let (labels, lam) = match lambda {
        LambdaSelect::Fixed(l) => (dendro.cut_at(l), l),
        LambdaSelect::AutoGap => dendro.largest_gap_cut(),
        LambdaSelect::Auto => {
            // fedlint::allow(no-panic-paths): documented panic — the # Panics section forbids Auto here; reaching this is a caller bug, not a runtime fault
            panic!("LambdaSelect::Auto needs the full HC run; use cluster_clients")
        }
    };
    let num_clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
    ClusteringOutcome {
        labels,
        num_clusters,
        lambda: lam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_group_matrix() -> ProximityMatrix {
        let pos = [0.0f32, 0.5, 1.0, 50.0, 50.5, 51.0];
        ProximityMatrix::from_fn(6, |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn auto_gap_finds_two_clusters() {
        let m = two_group_matrix();
        let out = cluster_clients(&m, Linkage::Average, LambdaSelect::AutoGap);
        assert_eq!(out.num_clusters, 2);
        assert_eq!(out.labels[0], out.labels[2]);
        assert_ne!(out.labels[0], out.labels[3]);
        assert!(out.lambda > 1.0 && out.lambda < 50.0);
    }

    #[test]
    fn fixed_lambda_extremes_interpolate_global_to_local() {
        // The paper's generalization/personalization dial: large λ → one
        // global cluster (FedAvg), tiny λ → all-singleton (Local).
        let m = two_group_matrix();
        let global = cluster_clients(&m, Linkage::Average, LambdaSelect::Fixed(1e9));
        assert_eq!(global.num_clusters, 1);
        let local = cluster_clients(&m, Linkage::Average, LambdaSelect::Fixed(0.01));
        assert_eq!(local.num_clusters, 6);
        let mid = cluster_clients(&m, Linkage::Average, LambdaSelect::Fixed(5.0));
        assert_eq!(mid.num_clusters, 2);
    }

    #[test]
    fn lambda_monotonically_reduces_clusters() {
        let m = two_group_matrix();
        let dendro = agglomerative(&m, Linkage::Average);
        let mut prev = usize::MAX;
        for lambda in [0.1f32, 0.6, 1.1, 10.0, 100.0] {
            let out = outcome_from_dendrogram(&dendro, LambdaSelect::Fixed(lambda));
            assert!(
                out.num_clusters <= prev,
                "λ {} gave {}",
                lambda,
                out.num_clusters
            );
            prev = out.num_clusters;
        }
    }
}
