//! Quickstart: run FedClust and FedAvg on one small synthetic federation and
//! print what each reached. One seed and ten rounds rank nothing; the
//! paper's comparisons are `paper table1` and its `shape` claims.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fedclust::FedClust;
use fedclust_data::federated::FederatedConfig;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_fl::methods::FedAvg;
use fedclust_fl::{run_federation, FlConfig, FlMethod, NoCheckpoints};

fn main() {
    // 1. Build a federated dataset: 20 clients, each holding only 20 % of
    //    the label space (the paper's "Non-IID label skew (20%)" setting).
    let dataset = FederatedDataset::build(
        DatasetProfile::Cifar10Like,
        Partition::LabelSkew { fraction: 0.2 },
        &FederatedConfig {
            num_clients: 20,
            samples_per_class: 100,
            seed: 7,
            ..Default::default()
        },
    );
    println!(
        "federation: {} clients, {} training samples total",
        dataset.num_clients(),
        dataset.total_train_samples()
    );

    // 2. Configure the FL loop (shared by both methods).
    let cfg = FlConfig {
        rounds: 10,
        sample_rate: 0.25,
        seed: 7,
        ..FlConfig::default()
    };

    // 3. Run FedClust (one-shot weight-driven clustering, then per-cluster
    //    FedAvg) and plain FedAvg on identical data and initialisation.
    let Ok((fedclust_result, federation)) =
        run_federation(&FedClust::default(), &dataset, &cfg, NoCheckpoints, None);
    let fedavg_result = FedAvg.run(&dataset, &cfg);

    println!(
        "\nFedClust formed {} clusters (auto λ = {:.4})",
        federation.saved.outcome.num_clusters, federation.saved.outcome.lambda
    );
    println!("\n{:<10} {:>12} {:>14}", "method", "accuracy", "comm (Mb)");
    for r in [&fedclust_result, &fedavg_result] {
        println!(
            "{:<10} {:>11.2}% {:>14.2}",
            r.method,
            r.final_acc * 100.0,
            r.total_mb
        );
    }
    println!("\naccuracy trajectory (round, FedClust, FedAvg):");
    for (a, b) in fedclust_result.history.iter().zip(&fedavg_result.history) {
        println!(
            "  round {:>2}: {:>6.2}%  vs  {:>6.2}%",
            a.round,
            a.avg_acc * 100.0,
            b.avg_acc * 100.0
        );
    }
}
