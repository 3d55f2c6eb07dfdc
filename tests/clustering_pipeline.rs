//! Cross-crate clustering pipeline tests: warm-up training → partial
//! weights → proximity matrix → hierarchical clustering → ground-truth
//! agreement. This is the paper's §3.3 observation and §4.1 design choice
//! verified end to end.

use fedclust_repro::cluster::hac::Linkage;
use fedclust_repro::cluster::metrics::{adjusted_rand_index, normalized_mutual_info};
use fedclust_repro::data::{DatasetProfile, FederatedDataset};
use fedclust_repro::fedclust::clustering::{cluster_clients, LambdaSelect};
use fedclust_repro::fedclust::proximity::{proximity_matrix, WeightSelection};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::FlConfig;
use fedclust_repro::tensor::distance::Metric;

/// 12 clients in three label groups.
fn three_group_fd(seed: u64) -> (FederatedDataset, Vec<usize>) {
    let groups: Vec<Vec<usize>> = (0..12)
        .map(|c| match c % 3 {
            0 => (0..4).collect(),
            1 => (4..7).collect(),
            _ => (7..10).collect(),
        })
        .collect();
    let fd = FederatedDataset::build_grouped(
        DatasetProfile::FmnistLike,
        &groups,
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 12,
            samples_per_class: 60,
            seed,
        },
    );
    let truth = fd.ground_truth_groups();
    (fd, truth)
}

fn ari_for_selection(
    fd: &FederatedDataset,
    truth: &[usize],
    selection: WeightSelection,
    epochs: usize,
) -> f64 {
    let mut cfg = FlConfig::tiny(7);
    cfg.local_epochs = epochs;
    let method = FedClust {
        warmup_epochs: epochs,
        selection,
        ..FedClust::default()
    };
    let weights = method.clean_partials(fd, &cfg);
    let m = proximity_matrix(&weights, Metric::L2);
    let outcome = cluster_clients(&m, Linkage::Average, LambdaSelect::AutoGap);
    adjusted_rand_index(&outcome.labels, truth)
}

#[test]
fn final_layer_clustering_recovers_three_groups() {
    let (fd, truth) = three_group_fd(0);
    let ari = ari_for_selection(&fd, &truth, WeightSelection::FinalLayer, 2);
    assert!(ari > 0.8, "final-layer ARI {}", ari);
}

#[test]
fn final_layer_is_at_least_as_good_as_full_model() {
    // §4.1's claim: the final layer alone carries the distribution signal;
    // mixing in the (much larger, more task-agnostic) lower-layer weights
    // must not be necessary for correct clustering.
    let (fd, truth) = three_group_fd(1);
    let partial = ari_for_selection(&fd, &truth, WeightSelection::FinalLayer, 2);
    let full = ari_for_selection(&fd, &truth, WeightSelection::FullModel, 2);
    assert!(
        partial >= full - 0.05,
        "partial ARI {} vs full ARI {}",
        partial,
        full
    );
}

#[test]
fn early_conv_block_is_less_informative_than_final_layer() {
    // Fig. 1's contrast: the first conv block's weights should separate the
    // groups worse than the classifier head.
    let (fd, truth) = three_group_fd(2);
    let final_ari = ari_for_selection(&fd, &truth, WeightSelection::FinalLayer, 2);
    let conv_ari = ari_for_selection(&fd, &truth, WeightSelection::Block(0), 2);
    assert!(
        final_ari >= conv_ari,
        "final {} must be >= early-conv {}",
        final_ari,
        conv_ari
    );
    assert!(final_ari > 0.5, "final-layer ARI too low: {}", final_ari);
}

#[test]
fn more_warmup_does_not_destroy_clustering() {
    let (fd, truth) = three_group_fd(3);
    for epochs in [1usize, 2, 4] {
        let ari = ari_for_selection(&fd, &truth, WeightSelection::FinalLayer, epochs);
        assert!(ari > 0.5, "epochs {}: ARI {}", epochs, ari);
    }
}

#[test]
fn nmi_agrees_with_ari_on_good_clusterings() {
    let (fd, truth) = three_group_fd(4);
    let mut cfg = FlConfig::tiny(4);
    cfg.local_epochs = 2;
    let weights = FedClust::default().clean_partials(&fd, &cfg);
    let m = proximity_matrix(&weights, Metric::L2);
    let outcome = cluster_clients(&m, Linkage::Average, LambdaSelect::AutoGap);
    let ari = adjusted_rand_index(&outcome.labels, &truth);
    let nmi = normalized_mutual_info(&outcome.labels, &truth);
    if ari > 0.9 {
        assert!(nmi > 0.8, "high ARI {} but low NMI {}", ari, nmi);
    }
}
