//! Fig. 1: layer-wise client distance matrices.
//!
//! Reproduces the paper's §3.3 observation study: 10 clients in two label
//! groups (classes {0..5} and {5..10}) each briefly train a VGG-style CNN;
//! for four layers (early conv, late conv, hidden FC, final FC) we print
//! the 10×10 pairwise L2 distance matrix of that layer's weights. The
//! block structure — invisible in conv layers, obvious in the final FC —
//! is FedClust's motivating observation. Each matrix also reports the ARI
//! of clustering on that layer alone.

use fedclust::clustering::{cluster_clients, LambdaSelect};
use fedclust::proximity::{proximity_matrix, WeightSelection};
use fedclust::FedClust;
use fedclust_cluster::hac::Linkage;
use fedclust_cluster::metrics::adjusted_rand_index;
use fedclust_data::{DatasetProfile, FederatedDataset};
use fedclust_fl::engine::init_model;
use fedclust_fl::FlConfig;
use fedclust_nn::models::ModelSpec;

/// Print Fig. 1 (one fixed setup, seed 42; the knobs do not reach it).
pub fn print() {
    let profile = DatasetProfile::Cifar10Like;
    let groups: Vec<Vec<usize>> = (0..10)
        .map(|c| {
            if c < 5 {
                (0..5).collect()
            } else {
                (5..10).collect()
            }
        })
        .collect();
    let fd = FederatedDataset::build_grouped(
        profile,
        &groups,
        &fedclust_data::federated::FederatedConfig {
            num_clients: 10,
            samples_per_class: 100,
            train_fraction: 0.8,
            seed: 42,
        },
    );
    let cfg = FlConfig {
        model: ModelSpec::VggMini,
        local_epochs: 3,
        ..FlConfig::default()
    };
    let template = init_model(&fd, &cfg);
    let truth = fd.ground_truth_groups();

    // VGG-mini parameter blocks: conv1 conv2 conv3 conv4 fc1 fc2(final).
    let blocks = template.param_blocks();
    let picks: [(usize, &str); 4] = [
        (0, "(a) CL 1 (early conv)"),
        (2, "(b) CL 3 (late conv)"),
        (blocks.len() - 2, "(c) FC 1 (hidden fc)"),
        (blocks.len() - 1, "(d) FC 2 (final layer)"),
    ];

    println!(
        "Fig. 1: distance matrices from different layer weights (VGG-mini, 10 clients, 2 groups)"
    );
    println!("Ground-truth groups: clients 0-4 hold classes 0-4; clients 5-9 hold classes 5-9.\n");
    // One warm-up; every plotted layer is a slice of the same trained weights.
    let trained = FedClust {
        warmup_epochs: cfg.local_epochs,
        selection: WeightSelection::FullModel,
        ..FedClust::default()
    }
    .clean_partials(&fd, &cfg);
    for (block, label) in picks {
        let layer = |w: &Vec<f32>| WeightSelection::Block(block).select(&template, w).to_vec();
        let weights: Vec<Vec<f32>> = trained.iter().map(layer).collect();
        let m = proximity_matrix(&weights, fedclust_tensor::distance::Metric::L2);
        let outcome = cluster_clients(&m, Linkage::Average, LambdaSelect::AutoGap);
        let ari = adjusted_rand_index(&outcome.labels, &truth);
        let max = m.max_distance().max(1e-9);

        println!(
            "{} — {} weights; HC clusters: {}, ARI vs truth: {:.2}",
            label, blocks[block].len, outcome.num_clusters, ari
        );
        // Normalised distances ×100 for a compact readable heat map.
        print!("      ");
        for j in 0..10 {
            print!(" c{:<3}", j);
        }
        println!();
        for i in 0..10 {
            print!("  c{:<3}", i);
            for j in 0..10 {
                print!(" {:>4.0}", m.get(i, j) / max * 100.0);
            }
            println!();
        }
        println!();
    }
    println!("(Distances are normalised to [0,100] per matrix; lower = more similar.)");
    println!("Expected shape: no block structure in (a)/(b); clear 5x5 blocks in (d).");
}
