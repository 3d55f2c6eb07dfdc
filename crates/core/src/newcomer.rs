//! Algorithm 2: incorporating newcomer clients after federation.
//!
//! A newcomer trains the *initial* server model θ⁰ briefly on its own data,
//! uploads the selected partial weights, and the server assigns it to the
//! cluster whose representative partial weights are closest (Eq. 4). The
//! newcomer then receives that cluster's trained model and personalizes it
//! for a few epochs. Warm-up epochs, weight selection and metric are those
//! of the [`FedClust`](crate::FedClust) that trained the federation, so the
//! newcomer's partial weights live where the representatives do.
//!
//! This module is the assignment ([`assign_newcomer`]). The tail is
//! [`personalized_accuracy`](fedclust_fl::engine::personalized_accuracy)
//! on the chosen cluster's state, which is how Table 6 scores every
//! newcomer.

use crate::algorithm::TrainedFederation;
use fedclust_data::ClientData;
use fedclust_fl::engine::{train_replica, LocalJob};
use fedclust_fl::FlConfig;

/// Assign a newcomer to the closest cluster by partial-weight distance,
/// measured by the federation's own metric. Returns the chosen cluster id:
/// of equals the first, and a NaN distance (a representative a diverged
/// client made non-finite) never over a number. This is Eq. 4; it requires
/// only the stored per-cluster representatives, no re-clustering.
pub fn assign_cluster(federation: &TrainedFederation, newcomer_partial: &[f32]) -> usize {
    let representatives = &federation.saved.representatives;
    assert!(!representatives.is_empty(), "federation has no clusters");
    let metric = federation.method.metric;
    let mut best = (0, f32::INFINITY);
    for (ci, rep) in representatives.iter().enumerate() {
        let distance = metric.eval(newcomer_partial, rep);
        if distance < best.1 {
            best = (ci, distance);
        }
    }
    best.0
}

/// Algorithm 2, lines 1–5, for one newcomer: train θ⁰ on its data exactly
/// as round 0 trained every federated client (same epochs, same SGD), upload
/// the same partial weights, and return the Eq. 4 cluster.
pub fn assign_newcomer(
    federation: &TrainedFederation,
    newcomer: &ClientData,
    cfg: &FlConfig,
    newcomer_id: usize,
) -> usize {
    let warmup = LocalJob {
        start_state: &federation.saved.init_state,
        epochs: federation.method.warmup_epochs,
        client: 1_000_000 + newcomer_id, // distinct rng stream from federation clients
        round: 0,
        prox_mu: None,
    };
    let (probe, _) = train_replica(&federation.template, newcomer, cfg, warmup);
    assign_cluster(federation, &federation.method.selection.extract(&probe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FedClust;
    use crate::proximity::WeightSelection;
    use fedclust_data::{DatasetProfile, FederatedDataset};
    use fedclust_fl::engine::personalized_accuracy;
    use fedclust_fl::{run_federation, NoCheckpoints};
    use fedclust_tensor::distance::Metric;

    /// 10 clients in two groups, federated by `method`; the last 2 (one per
    /// group) join late.
    fn setup(method: FedClust) -> (TrainedFederation, Vec<ClientData>, Vec<usize>, FlConfig) {
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
                seed: 11,
            },
        );
        let truth = fd.ground_truth_groups();
        let newcomer_truth = truth[8..].to_vec();
        let (fd, newcomers) = fd.split_newcomers(2);
        let mut cfg = FlConfig::tiny(11);
        cfg.rounds = 4;
        cfg.local_epochs = 2;
        let Ok((_, federation)) = run_federation(&method, &fd, &cfg, NoCheckpoints, None);
        (federation, newcomers, newcomer_truth, cfg)
    }

    /// Each newcomer's Eq. 4 cluster, newcomer `i` on stream `i` (as Table 6
    /// assigns them).
    fn assignments(
        federation: &TrainedFederation,
        newcomers: &[ClientData],
        cfg: &FlConfig,
    ) -> Vec<usize> {
        newcomers
            .iter()
            .enumerate()
            .map(|(i, nc)| assign_newcomer(federation, nc, cfg, i))
            .collect()
    }

    #[test]
    fn newcomers_land_in_matching_clusters() {
        let (federation, newcomers, newcomer_truth, cfg) = setup(FedClust::default());
        // Clustering of the 8 remaining clients must find the 2 groups for
        // this test to be meaningful.
        assert_eq!(federation.saved.outcome.num_clusters, 2);
        let choice = assignments(&federation, &newcomers, &cfg);
        // The two newcomers come from different ground-truth groups, so
        // they must land in different clusters.
        assert_ne!(choice[0], choice[1]);
        // And each must land in the cluster holding its own group: check
        // via the federation's label of a same-group original client.
        // Original clients alternate groups (even=group0, odd=group1);
        // after split_newcomers the remaining are clients 0..8.
        let labels = &federation.saved.labels;
        let cluster_of_group = [labels[0], labels[1]];
        for (&c, &g) in choice.iter().zip(&newcomer_truth) {
            assert_eq!(c, cluster_of_group[g], "newcomer in wrong cluster");
        }
    }

    #[test]
    fn personalized_newcomer_accuracy_is_reasonable() {
        let (federation, newcomers, _, cfg) = setup(FedClust::default());
        let choice = assignments(&federation, &newcomers, &cfg);
        let states = &federation.saved.cluster_states;
        for (i, (nc, &c)) in newcomers.iter().zip(&choice).enumerate() {
            let accuracy = personalized_accuracy(&federation.template, &states[c], nc, &cfg, 3, i);
            // Two-group FMNIST-like with 5 classes per client: even a few
            // rounds of cluster training + personalization beats chance (10%).
            assert!(accuracy > 0.2, "newcomer accuracy {accuracy}");
        }
    }

    /// The warm-up epochs and the metric are the federation's own: with
    /// representatives planted so that only a 3-epoch warm-up measured by
    /// cosine distance lands in cluster 1, `assign_newcomer` lands there.
    #[test]
    fn newcomers_warm_up_and_compare_as_round_0_did() {
        let method = FedClust {
            warmup_epochs: 3,
            metric: Metric::Cosine,
            ..FedClust::default()
        };
        let (mut federation, newcomers, _, cfg) = setup(method);
        assert_eq!(federation.method, method);
        assert!(federation.saved.cluster_states.len() >= 2);
        let partial = |epochs| {
            let warmup = LocalJob {
                start_state: &federation.saved.init_state,
                epochs,
                client: 1_000_000,
                round: 0,
                prox_mu: None,
            };
            let (probe, _) = train_replica(&federation.template, &newcomers[0], &cfg, warmup);
            WeightSelection::FinalLayer.extract(&probe)
        };
        let (two, three) = (partial(2), partial(3));
        // Cosine distance 0 from the 3-epoch partial, but far from it in L2.
        let scaled: Vec<f32> = three.iter().map(|w| 10.0 * w).collect();
        let mut representatives = vec![two; federation.saved.cluster_states.len()];
        representatives[1] = scaled;
        federation.saved.representatives = representatives;

        assert_eq!(assign_cluster(&federation, &three), 1);
        assert_eq!(assign_newcomer(&federation, &newcomers[0], &cfg, 0), 1);
        federation.method.metric = Metric::L2;
        assert_eq!(assign_cluster(&federation, &three), 0);
    }

    #[test]
    fn assign_cluster_picks_nearest_representative() {
        let (mut federation, _, _, _) = setup(FedClust::default());
        federation.saved.representatives = vec![vec![0.0; 4], vec![10.0; 4]];
        assert_eq!(assign_cluster(&federation, &[0.1; 4]), 0);
        assert_eq!(assign_cluster(&federation, &[9.0; 4]), 1);
    }

    /// One diverged client makes its cluster's centroid NaN (with faults
    /// off the screen admits it); that cluster must not win every newcomer.
    #[test]
    fn a_nan_representative_is_never_the_nearest() {
        let (mut federation, _, _, _) = setup(FedClust::default());
        federation.saved.representatives = vec![vec![f32::NAN; 4], vec![0.0; 4]];
        assert_eq!(assign_cluster(&federation, &[0.1; 4]), 1);
    }
}
