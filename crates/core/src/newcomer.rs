//! Algorithm 2: incorporating newcomer clients after federation.
//!
//! A newcomer trains the *initial* server model θ⁰ briefly on its own data,
//! uploads the selected partial weights, and the server assigns it to the
//! cluster whose representative partial weights are closest (Eq. 4). The
//! newcomer then receives that cluster's trained model and personalizes it
//! for a few epochs.

use crate::algorithm::TrainedFederation;
use crate::proximity::WeightSelection;
use fedclust_data::ClientData;
use fedclust_fl::engine::{train_replica, LocalJob};
use fedclust_fl::FlConfig;
use fedclust_tensor::distance::Metric;
use rayon::prelude::*;

/// Result of incorporating one newcomer.
#[derive(Debug, Clone, PartialEq)]
pub struct NewcomerOutcome {
    /// The cluster the newcomer was assigned to (Eq. 4's argmin).
    pub cluster: usize,
    /// Local test accuracy after receiving and personalizing the cluster
    /// model.
    pub accuracy: f32,
}

/// Assign a newcomer to the closest cluster by partial-weight distance.
/// Returns the chosen cluster id. This is Eq. 4; it requires only the
/// stored per-cluster representatives, no re-clustering.
pub fn assign_cluster(
    federation: &TrainedFederation,
    newcomer_partial: &[f32],
    metric: Metric,
) -> usize {
    assert!(
        !federation.representatives.is_empty(),
        "federation has no clusters"
    );
    federation
        .representatives
        .iter()
        .enumerate()
        .map(|(ci, rep)| (ci, metric.eval(newcomer_partial, rep)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(ci, _)| ci)
}

/// Run Algorithm 2 end-to-end for one newcomer: warm-up from θ⁰, upload
/// partial weights, receive the argmin cluster's model, personalize for
/// `personalize_epochs`, and evaluate on the newcomer's local test set.
#[allow(clippy::too_many_arguments)]
pub fn incorporate(
    federation: &TrainedFederation,
    newcomer: &ClientData,
    cfg: &FlConfig,
    selection: WeightSelection,
    metric: Metric,
    warmup_epochs: usize,
    personalize_epochs: usize,
    newcomer_id: usize,
) -> NewcomerOutcome {
    // Line 1–3: train θ⁰ locally, extract partial weights.
    let warmup = LocalJob {
        start_state: &federation.init_state,
        epochs: warmup_epochs,
        client: 1_000_000 + newcomer_id, // distinct rng stream from federation clients
        round: 0,
        prox_mu: None,
    };
    let (probe, _) = train_replica(&federation.template, newcomer, cfg, warmup);
    let partial = selection.extract(&probe);

    // Lines 4–5: Eq. 4 assignment.
    let cluster = assign_cluster(federation, &partial, metric);

    // Receive the cluster model and personalize briefly.
    let personalize = LocalJob {
        start_state: &federation.cluster_states[cluster],
        epochs: personalize_epochs,
        client: 2_000_000 + newcomer_id,
        ..warmup
    };
    let (mut model, _) = train_replica(&federation.template, newcomer, cfg, personalize);

    let idx: Vec<usize> = (0..newcomer.test.len()).collect();
    let accuracy = if idx.is_empty() {
        0.0
    } else {
        let (x, y) = newcomer.test.batch(&idx);
        model.evaluate(x, &y).1
    };
    NewcomerOutcome { cluster, accuracy }
}

/// Incorporate a batch of newcomers in parallel and return their outcomes.
pub fn incorporate_all(
    federation: &TrainedFederation,
    newcomers: &[ClientData],
    cfg: &FlConfig,
    selection: WeightSelection,
    metric: Metric,
    warmup_epochs: usize,
    personalize_epochs: usize,
) -> Vec<NewcomerOutcome> {
    newcomers
        .par_iter()
        .enumerate()
        .map(|(i, nc)| {
            incorporate(
                federation,
                nc,
                cfg,
                selection,
                metric,
                warmup_epochs,
                personalize_epochs,
                i,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FedClust;
    use fedclust_data::{DatasetProfile, FederatedDataset};
    use fedclust_fl::{run_federation, NoCheckpoints};

    /// 10 clients in two groups; the last 2 (one per group) join late.
    fn setup() -> (TrainedFederation, Vec<ClientData>, Vec<usize>, FlConfig) {
        let groups: Vec<Vec<usize>> = (0..10)
            .map(|c| {
                if c % 2 == 0 {
                    (0..5).collect()
                } else {
                    (5..10).collect()
                }
            })
            .collect();
        let fd = FederatedDataset::build_grouped(
            DatasetProfile::FmnistLike,
            &groups,
            &fedclust_data::federated::FederatedConfig {
                num_clients: 10,
                samples_per_class: 40,
                train_fraction: 0.8,
                seed: 11,
            },
        );
        let truth = fd.ground_truth_groups();
        let newcomer_truth = truth[8..].to_vec();
        let (fd, newcomers) = fd.split_newcomers(2);
        let mut cfg = FlConfig::tiny(11);
        cfg.rounds = 4;
        cfg.local_epochs = 2;
        let Ok((_, federation)) =
            run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
        (federation, newcomers, newcomer_truth, cfg)
    }

    #[test]
    fn newcomers_land_in_matching_clusters() {
        let (federation, newcomers, newcomer_truth, cfg) = setup();
        if federation.outcome.num_clusters != 2 {
            // Clustering of the 8 remaining clients must find the 2 groups
            // for this test to be meaningful.
            panic!(
                "expected 2 clusters, got {}",
                federation.outcome.num_clusters
            );
        }
        let outcomes = incorporate_all(
            &federation,
            &newcomers,
            &cfg,
            WeightSelection::FinalLayer,
            Metric::L2,
            2,
            2,
        );
        // The two newcomers come from different ground-truth groups, so
        // they must land in different clusters.
        assert_ne!(outcomes[0].cluster, outcomes[1].cluster);
        // And each must land in the cluster holding its own group: check
        // via the federation's label of a same-group original client.
        // Original clients alternate groups (even=group0, odd=group1);
        // after split_newcomers the remaining are clients 0..8.
        let cluster_of_group: Vec<usize> = vec![federation.labels[0], federation.labels[1]];
        for (o, &g) in outcomes.iter().zip(&newcomer_truth) {
            assert_eq!(o.cluster, cluster_of_group[g], "newcomer in wrong cluster");
        }
    }

    #[test]
    fn personalized_newcomer_accuracy_is_reasonable() {
        let (federation, newcomers, _, cfg) = setup();
        let outcomes = incorporate_all(
            &federation,
            &newcomers,
            &cfg,
            WeightSelection::FinalLayer,
            Metric::L2,
            2,
            3,
        );
        for o in &outcomes {
            // Two-group FMNIST-like with 5 classes per client: even a few
            // rounds of cluster training + personalization beats chance (10%).
            assert!(o.accuracy > 0.2, "newcomer accuracy {}", o.accuracy);
        }
    }

    #[test]
    fn assign_cluster_picks_nearest_representative() {
        let (mut federation, _, _, _) = setup();
        federation.representatives = vec![vec![0.0; 4], vec![10.0; 4]];
        assert_eq!(assign_cluster(&federation, &[0.1; 4], Metric::L2), 0);
        assert_eq!(assign_cluster(&federation, &[9.0; 4], Metric::L2), 1);
    }
}
