//! The generalization ↔ personalization dial: sweep the clustering
//! threshold λ (the paper's Fig. 4 in miniature).
//!
//! Small λ → every client is its own cluster (fully personalized, like
//! the `Local` baseline); large λ → one cluster (fully global, FedAvg).
//! The sweet spot sits at the data's true group structure.
//!
//! ```sh
//! cargo run --release --example lambda_tradeoff
//! ```

use fedclust::lambda_sweep::{dendrogram, lambda_grid, sweep};
use fedclust::FedClust;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_fl::FlConfig;
use fedclust_nn::models::ModelSpec;

fn main() {
    let fd = FederatedDataset::build(
        DatasetProfile::Cifar10Like,
        Partition::LabelSkew { fraction: 0.2 },
        &fedclust_data::federated::FederatedConfig {
            num_clients: 16,
            samples_per_class: 100,
            train_fraction: 0.8,
            seed: 9,
        },
    );
    let cfg = FlConfig {
        model: ModelSpec::LeNet5,
        rounds: 6,
        sample_rate: 0.5,
        local_epochs: 3,
        batch_size: 10,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        eval_every: 6,
        seed: 9,
        dropout_rate: 0.0,
        faults: fedclust_fl::FaultPlan::none(),
        codec: fedclust_fl::CodecSpec::none(),
    };
    let dendro = dendrogram(&fd, &cfg, &FedClust::default());
    let lambdas = lambda_grid(&dendro, 6);
    println!(
        "sweeping {} λ values on CIFAR-10-like / label skew 20%…\n",
        lambdas.len()
    );
    let points = sweep(&fd, &cfg, &dendro, &lambdas);

    println!("{:>10} {:>10} {:>10}", "λ", "#clusters", "accuracy");
    for p in &points {
        let bar = "#".repeat((p.final_acc * 40.0) as usize);
        println!(
            "{:>10.4} {:>10} {:>9.2}% {}",
            p.lambda,
            p.num_clusters,
            p.final_acc * 100.0,
            bar
        );
    }
    let best = points
        .iter()
        .max_by(|a, b| a.final_acc.partial_cmp(&b.final_acc).unwrap())
        .unwrap();
    println!(
        "\nbest trade-off: λ = {:.4} → {} clusters at {:.2}% \
         (1 cluster = pure globalization, {} clusters = pure personalization)",
        best.lambda,
        best.num_clusters,
        best.final_acc * 100.0,
        fd.num_clients()
    );
}
