//! End-to-end newcomer incorporation (Algorithm 2) across crates: the
//! Table 6 scenario in miniature, including the comparison against handing
//! newcomers a plain global model.

use fedclust_repro::data::{DatasetProfile, FederatedDataset};
use fedclust_repro::fedclust::newcomer::{assign_cluster, incorporate_all};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::engine::personalized_accuracy;
use fedclust_repro::fl::methods::FedAvg;
use fedclust_repro::fl::{run_federation, FlConfig, NoCheckpoints};

/// 12 federating clients + 4 newcomers, two clean groups, alternating.
fn setup() -> (
    FederatedDataset,
    Vec<fedclust_repro::data::ClientData>,
    Vec<usize>,
    FlConfig,
) {
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

#[test]
fn newcomers_match_their_distribution_cluster() {
    let (fd, newcomers, newcomer_truth, cfg) = setup();
    let Ok((_, federation)) = run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
    assert_eq!(
        federation.saved.outcome.num_clusters, 2,
        "setup requires 2 clusters"
    );
    let outcomes = incorporate_all(&federation, &newcomers, &cfg, 3);
    // Clients alternate groups; federation.saved.labels[0] is group 0's cluster.
    let cluster_of_group = [federation.saved.labels[0], federation.saved.labels[1]];
    for (o, &g) in outcomes.iter().zip(&newcomer_truth) {
        assert_eq!(o.cluster, cluster_of_group[g], "newcomer mis-assigned");
    }
}

#[test]
fn cluster_model_beats_global_model_for_newcomers() {
    let (fd, newcomers, _, cfg) = setup();
    let Ok((_, federation)) = run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
    let outcomes = incorporate_all(&federation, &newcomers, &cfg, 3);
    let fedclust_avg: f64 =
        outcomes.iter().map(|o| o.accuracy as f64).sum::<f64>() / outcomes.len() as f64;

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
