//! End-to-end newcomer incorporation (Algorithm 2) across crates: the
//! Table 6 scenario in miniature, including the comparison against handing
//! newcomers a plain global model.

use fedclust_repro::data::{ClientData, DatasetProfile, FederatedDataset};
use fedclust_repro::fedclust::newcomer::{assign_cluster, assign_newcomer};
use fedclust_repro::fedclust::{FedClust, TrainedFederation};
use fedclust_repro::fl::engine::personalized_accuracy;
use fedclust_repro::fl::methods::FedAvg;
use fedclust_repro::fl::{run_federation, FlConfig, NoCheckpoints};

/// 12 federating clients + 4 newcomers, two clean groups, alternating.
fn setup() -> (FederatedDataset, Vec<ClientData>, Vec<usize>, FlConfig) {
    let groups: Vec<Vec<usize>> = (0..16)
        .map(|c| {
            if c % 2 == 0 {
                (0..5).collect()
            } else {
                (5..10).collect()
            }
        })
        .collect();
    let full = FederatedDataset::build_grouped(
        DatasetProfile::FmnistLike,
        &groups,
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 16,
            samples_per_class: 60,
            train_fraction: 0.8,
            seed: 21,
        },
    );
    let truth = full.ground_truth_groups();
    let newcomer_truth = truth[12..].to_vec();
    let (fd, newcomers) = full.split_newcomers(4);
    let mut cfg = FlConfig::tiny(21);
    cfg.rounds = 5;
    cfg.sample_rate = 0.5;
    (fd, newcomers, newcomer_truth, cfg)
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
fn newcomers_match_their_distribution_cluster() {
    let (fd, newcomers, newcomer_truth, cfg) = setup();
    let Ok((_, federation)) = run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
    assert_eq!(
        federation.saved.outcome.num_clusters, 2,
        "setup requires 2 clusters"
    );
    let choice = assignments(&federation, &newcomers, &cfg);
    // Clients alternate groups; federation.saved.labels[0] is group 0's cluster.
    let cluster_of_group = [federation.saved.labels[0], federation.saved.labels[1]];
    for (&c, &g) in choice.iter().zip(&newcomer_truth) {
        assert_eq!(c, cluster_of_group[g], "newcomer mis-assigned");
    }
}

#[test]
fn cluster_model_beats_global_model_for_newcomers() {
    let (fd, newcomers, _, cfg) = setup();
    let Ok((_, federation)) = run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
    // FedClust's newcomers receive their cluster's model and personalize
    // it for 3 epochs (how the paper's Table 6 treats FedClust).
    let choice = assignments(&federation, &newcomers, &cfg);
    let states = &federation.saved.cluster_states;
    let fedclust_avg = newcomers
        .iter()
        .zip(&choice)
        .enumerate()
        .map(|(i, (nc, &c))| {
            personalized_accuracy(&federation.template, &states[c], nc, &cfg, 3, i) as f64
        })
        .sum::<f64>()
        / newcomers.len() as f64;

    // Baseline: newcomers receive the FedAvg global model, unpersonalized
    // (how the paper's Table 6 treats global methods).
    let Ok((_, global)) = run_federation(&FedAvg, &fd, &cfg, NoCheckpoints, None);
    let handed_over = newcomers.iter().enumerate();
    let global_avg = handed_over
        .map(|(i, nc)| personalized_accuracy(&federation.template, &global, nc, &cfg, 0, i) as f64)
        .sum::<f64>()
        / newcomers.len() as f64;

    assert!(
        fedclust_avg > global_avg,
        "FedClust newcomers {:.3} must beat plain global {:.3}",
        fedclust_avg,
        global_avg
    );
}

#[test]
fn assign_cluster_is_consistent_with_membership() {
    let (fd, _, _, cfg) = setup();
    let Ok((_, federation)) = run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
    // Feeding a cluster's own representative back must return that cluster.
    for (ci, rep) in federation.saved.representatives.iter().enumerate() {
        assert_eq!(assign_cluster(&federation, rep), ci);
    }
}
