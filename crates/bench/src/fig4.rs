//! Fig. 4: test accuracy and number of clusters versus the clustering
//! threshold λ (non-IID label skew 20 %), one panel per dataset.
//!
//! Demonstrates the generalization/personalization trade-off: large λ
//! merges all clients into one cluster (FedAvg-like), small λ fragments
//! them into singletons (Local-like), and the best accuracy sits at an
//! intermediate cluster count.

use crate::scale::Knobs;
use fedclust::lambda_sweep::{dendrogram, lambda_grid, sweep};
use fedclust::FedClust;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

/// Print Fig. 4 (one seed, 42).
pub fn print(knobs: &Knobs) {
    let partition = Partition::LabelSkew { fraction: 0.2 };
    println!("Fig. 4: accuracy and #clusters vs clustering threshold λ (Non-IID label skew 20%)\n");
    for profile in DatasetProfile::ALL {
        let seed = 42;
        let scale = knobs.scale(profile, seed);
        let fd = FederatedDataset::build(profile, partition, &scale.federated);
        let mut cfg = scale.fl;
        // The sweep retrains per λ; halve the rounds to keep it affordable.
        cfg.rounds = (cfg.rounds / 2).max(4);
        let dendro = dendrogram(&fd, &cfg, &FedClust::default());
        let grid = lambda_grid(&dendro, 6);
        eprintln!(
            "[fig4] {}: sweeping {} λ values",
            profile.name(),
            grid.len()
        );
        let points = sweep(&fd, &cfg, &dendro, &grid);
        println!("## {}", profile.name());
        println!(
            "| {:>10} | {:>9} | {:>12} |",
            "λ", "#clusters", "accuracy (%)"
        );
        for p in &points {
            println!(
                "| {:>10.4} | {:>9} | {:>12.2} |",
                p.lambda,
                p.num_clusters,
                p.final_acc * 100.0
            );
        }
        let best = points
            .iter()
            .max_by(|a, b| a.final_acc.partial_cmp(&b.final_acc).unwrap())
            .unwrap();
        println!(
            "best: λ = {:.4} with {} clusters at {:.2}%\n",
            best.lambda,
            best.num_clusters,
            best.final_acc * 100.0
        );
    }
}
