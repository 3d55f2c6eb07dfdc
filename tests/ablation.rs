//! Quality ablations for the design choices DESIGN.md §5 calls out:
//! weight selection, linkage criterion, distance metric, warm-up depth.
//! (The *cost* side — `cluster.hac_s`, `core.proximity_s` — is the benchmark's,
//! see benchmark/README.md.)

use fedclust_repro::cluster::hac::Linkage;
use fedclust_repro::cluster::metrics::adjusted_rand_index;
use fedclust_repro::data::{DatasetProfile, FederatedDataset};
use fedclust_repro::fedclust::clustering::{cluster_clients, LambdaSelect};
use fedclust_repro::fedclust::proximity::{proximity_matrix, WeightSelection};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::FlConfig;
use fedclust_repro::fl::FlMethod;
use fedclust_repro::tensor::distance::Metric;

/// 12 clients, two clean groups.
fn fd(seed: u64) -> (FederatedDataset, Vec<usize>) {
    let groups: Vec<Vec<usize>> = (0..12)
        .map(|c| {
            if c < 6 {
                (0..5).collect()
            } else {
                (5..10).collect()
            }
        })
        .collect();
    let fd = FederatedDataset::build_grouped(
        DatasetProfile::FmnistLike,
        &groups,
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 12,
            samples_per_class: 50,
            seed,
        },
    );
    let truth = fd.ground_truth_groups();
    (fd, truth)
}

fn weights(
    fd: &FederatedDataset,
    selection: WeightSelection,
    epochs: usize,
    seed: u64,
) -> Vec<Vec<f32>> {
    let mut cfg = FlConfig::tiny(seed);
    cfg.local_epochs = epochs;
    let method = FedClust {
        warmup_epochs: epochs,
        selection,
        ..FedClust::default()
    };
    method.clean_partials(fd, &cfg)
}

#[test]
fn every_linkage_recovers_two_clean_groups() {
    let (fd, truth) = fd(0);
    let w = weights(&fd, WeightSelection::FinalLayer, 2, 0);
    let m = proximity_matrix(&w, Metric::L2);
    for linkage in Linkage::ALL {
        let o = cluster_clients(&m, linkage, LambdaSelect::Auto);
        let ari = adjusted_rand_index(&o.labels, &truth);
        assert!(ari > 0.8, "{:?}: ARI {}", linkage, ari);
    }
}

#[test]
fn l2_and_cosine_both_separate_clean_groups() {
    // Metric ablation: both metrics must make the two groups separable —
    // assessed with a fixed 2-cut, independent of the λ heuristic (which
    // is calibrated on L2's distance scale; the paper's Eq. 3 uses L2).
    let (fd, truth) = fd(1);
    let w = weights(&fd, WeightSelection::FinalLayer, 2, 1);
    for metric in [Metric::L2, Metric::Cosine] {
        let m = proximity_matrix(&w, metric);
        let labels = fedclust_repro::cluster::hac::cluster_k(&m, Linkage::Average, 2);
        let ari = adjusted_rand_index(&labels, &truth);
        assert!(ari > 0.8, "{:?}: ARI {}", metric, ari);
    }
}

#[test]
fn auto_selection_beats_or_matches_gap_selection() {
    // On clean data both should be perfect; the relative-gap default must
    // never be the worse of the two.
    let (fd, truth) = fd(2);
    let w = weights(&fd, WeightSelection::FinalLayer, 2, 2);
    let m = proximity_matrix(&w, Metric::L2);
    let gap = cluster_clients(&m, Linkage::Average, LambdaSelect::AutoGap);
    let sil = cluster_clients(&m, Linkage::Average, LambdaSelect::Auto);
    let ari_gap = adjusted_rand_index(&gap.labels, &truth);
    let ari_sil = adjusted_rand_index(&sil.labels, &truth);
    assert!(ari_sil >= ari_gap - 1e-9, "sil {} gap {}", ari_sil, ari_gap);
}

#[test]
fn one_warmup_epoch_is_enough_on_clean_groups() {
    let (fd, truth) = fd(3);
    let w = weights(&fd, WeightSelection::FinalLayer, 1, 3);
    let m = proximity_matrix(&w, Metric::L2);
    let o = cluster_clients(&m, Linkage::Average, LambdaSelect::Auto);
    assert!(adjusted_rand_index(&o.labels, &truth) > 0.8);
}

#[test]
fn fedclust_full_weights_ablation_not_better_than_partial() {
    // End-to-end ablation: running FedClust with full-model uploads must
    // not beat the final-layer default (and costs ~4× the upload).
    let (fd, _) = fd(4);
    let mut cfg = FlConfig::tiny(4);
    cfg.rounds = 4;
    cfg.sample_rate = 0.5;
    let partial = FedClust::default().run(&fd, &cfg);
    let full = FedClust {
        selection: WeightSelection::FullModel,
        ..FedClust::default()
    }
    .run(&fd, &cfg);
    assert!(
        partial.final_acc >= full.final_acc - 0.05,
        "partial {} full {}",
        partial.final_acc,
        full.final_acc
    );
    assert!(partial.total_mb < full.total_mb);
}
